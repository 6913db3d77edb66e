#include "net/parallel_exec.hpp"

#include <algorithm>

namespace idonly {

ParallelExecutor::ParallelExecutor(unsigned threads) : threads_(threads < 1 ? 1 : threads) {
  // The calling thread participates in every batch, so spawn threads-1.
  for (unsigned slot = 1; slot < threads_; ++slot) {
    pool_.emplace_back([this, slot] { worker_loop(slot); });
  }
}

ParallelExecutor::~ParallelExecutor() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  wake_.notify_all();
  for (std::thread& t : pool_) t.join();
}

void ParallelExecutor::worker_loop(unsigned slot) {
  std::uint64_t seen_generation = 0;
  while (true) {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      wake_.wait(lock, [&] { return stopping_ || generation_ != seen_generation; });
      if (stopping_) return;
      seen_generation = generation_;
    }
    work(slot);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      busy_workers_ -= 1;
    }
    done_.notify_one();
  }
}

void ParallelExecutor::work(unsigned slot) {
  // Claim contiguous chunks with one atomic bump each: n can be tens of
  // thousands of slots per round, and a mutex (or per-index fetch_add) on
  // that path costs more than the work it hands out.
  while (true) {
    const std::size_t begin = cursor_.fetch_add(chunk_, std::memory_order_relaxed);
    if (begin >= batch_size_) return;
    const std::size_t end = std::min(begin + chunk_, batch_size_);
    for (std::size_t index = begin; index < end; ++index) {
      try {
        (*fn_)(index, slot);
      } catch (...) {
        std::lock_guard<std::mutex> lock(mutex_);
        if (first_error_ == nullptr) first_error_ = std::current_exception();
      }
    }
  }
}

void ParallelExecutor::run(std::size_t n, const std::function<void(std::size_t)>& fn) {
  run(n, [&fn](std::size_t index, unsigned) { fn(index); });
}

void ParallelExecutor::run(std::size_t n,
                           const std::function<void(std::size_t, unsigned)>& fn) {
  if (n == 0) return;
  if (pool_.empty()) {
    for (std::size_t i = 0; i < n; ++i) fn(i, 0);
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    fn_ = &fn;
    batch_size_ = n;
    // ~4 chunks per thread balances straggler re-claiming against cursor
    // contention; tiny batches fall back to index-at-a-time.
    chunk_ = std::max<std::size_t>(1, n / (static_cast<std::size_t>(threads_) * 4));
    cursor_.store(0, std::memory_order_relaxed);
    first_error_ = nullptr;
    busy_workers_ = static_cast<unsigned>(pool_.size());
    generation_ += 1;
  }
  wake_.notify_all();
  work(0);  // the caller claims indices too, as slot 0
  std::exception_ptr error;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    done_.wait(lock, [&] { return busy_workers_ == 0; });
    fn_ = nullptr;
    error = first_error_;
  }
  if (error != nullptr) std::rethrow_exception(error);
}

}  // namespace idonly
