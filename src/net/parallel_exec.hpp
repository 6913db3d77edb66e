// Deterministic parallel round execution: a persistent worker pool.
//
// The engines are all-to-all per round, so the expensive part of a round is
// stepping n independent process state machines over Θ(n)-message inboxes —
// embarrassingly parallel work that the simulators used to run on one core.
// ParallelExecutor shards an index space [0, n) across a fixed set of
// persistent threads (plus the calling thread, which always participates).
//
// Determinism contract: the executor parallelises only *which thread* runs
// each index; it makes no ordering promises between indices and must never
// be used for work whose side effects depend on cross-index order. The
// engines therefore split a round into two PARALLEL phases:
//   1. fill — each process assembles its inbox (into a buffer owned by the
//      worker slot running it) and steps into a PRIVATE outbox slab
//      (per-index, no shared mutation), and
//   2. lane merge — destination slots are partitioned into contiguous
//      per-worker lanes; each lane routes every slab's messages for ITS
//      receivers using precomputed deterministic ordering keys (per-slab
//      prefix sums over the send sequence, per-link chaos counters).
// Every order-sensitive effect is either a pure function of those keys or
// staged per lane and committed in lane order, so the observable execution
// is bit-identical for any thread count — with no sequential replay pass.
// DESIGN.md §8 spells out the argument; tests/test_parallel_exec.cpp
// enforces it via full + canonical trace comparison across --threads 1/2/8.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace idonly {

class ParallelExecutor {
 public:
  /// `threads` is the TOTAL parallelism (including the calling thread);
  /// values < 2 degenerate to inline execution with no pool at all.
  explicit ParallelExecutor(unsigned threads);
  ~ParallelExecutor();

  ParallelExecutor(const ParallelExecutor&) = delete;
  ParallelExecutor& operator=(const ParallelExecutor&) = delete;

  [[nodiscard]] unsigned thread_count() const noexcept { return threads_; }

  /// Invoke `fn(i)` for every i in [0, n) across the pool and block until
  /// all invocations returned. Indices are claimed dynamically in small
  /// contiguous chunks off a lock-free atomic cursor, so stragglers don't
  /// serialise the round and short batches don't thrash the cursor line. If
  /// any invocation throws, one of the exceptions is rethrown on the calling
  /// thread after the batch drains. Not reentrant: one run() at a time per
  /// executor.
  void run(std::size_t n, const std::function<void(std::size_t)>& fn);

  /// Same, passing the worker slot that runs each index as well: slot 0 is
  /// the calling thread, pool threads are 1..thread_count()-1, and no two
  /// invocations in flight at once share a slot. Lets a caller keep one
  /// scratch buffer per slot instead of one per index.
  void run(std::size_t n, const std::function<void(std::size_t index, unsigned slot)>& fn);

 private:
  void worker_loop(unsigned slot);
  void work(unsigned slot);

  unsigned threads_ = 1;
  std::vector<std::thread> pool_;

  std::mutex mutex_;
  std::condition_variable wake_;
  std::condition_variable done_;
  std::uint64_t generation_ = 0;  // bumped per run(); workers wake on change
  bool stopping_ = false;

  // Current batch (valid while busy_workers_ > 0 or the caller is in work()).
  const std::function<void(std::size_t, unsigned)>* fn_ = nullptr;
  std::size_t batch_size_ = 0;
  std::size_t chunk_ = 1;         // indices claimed per cursor bump
  std::atomic<std::size_t> cursor_{0};  // next unclaimed index (lock-free)
  unsigned busy_workers_ = 0;     // pool threads still inside work()
  std::exception_ptr first_error_;
};

}  // namespace idonly
