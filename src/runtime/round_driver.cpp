#include "runtime/round_driver.hpp"

#include <algorithm>
#include <thread>

#include "net/codec.hpp"

namespace idonly {

RoundDriver::RoundDriver(std::unique_ptr<Process> process, std::unique_ptr<Transport> transport,
                         RoundDriverConfig config)
    : process_(std::move(process)), transport_(std::move(transport)), config_(config) {
  current_duration_ms_.store(config_.round_duration.count(), std::memory_order_relaxed);
}

void RoundDriver::interruptible_sleep_until(std::chrono::steady_clock::time_point deadline) {
  constexpr auto kSlice = std::chrono::milliseconds(5);
  while (!stop_requested()) {
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline) return;
    std::this_thread::sleep_for(std::min<std::chrono::steady_clock::duration>(
        kSlice, deadline - now));
  }
}

Round RoundDriver::run() {
  interruptible_sleep_until(config_.epoch);

  // The adaptive clock paces by an accumulated deadline so a grown duration
  // stretches only the rounds it covers; the fixed clock keeps the exact
  // epoch + r·D schedule (no accumulation drift).
  auto duration = config_.round_duration;
  auto deadline = config_.epoch;
  Round clean_streak = 0;
  TraceRecorder* const rec = config_.recorder.get();
  const NodeId self = process_->id();

  for (Round r = 1; r <= config_.max_rounds; ++r) {
    if (stop_requested()) return rounds_executed();
    heartbeat_.fetch_add(1, std::memory_order_relaxed);
    const std::uint64_t late_before = frames_late_.load(std::memory_order_relaxed);

    // Sort arrivals into per-round buffers by their round header. Each
    // datagram is one slab; its frames are decoded in place — the shared
    // frame buffer is never copied here. A datagram that is not a slab is
    // one dropped frame.
    for (const FrameView& view : transport_->drain_views()) {
      const auto slab = parse_shard_slab(view.bytes);
      if (!slab.has_value()) {
        frames_dropped_.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      for (const ShardSlabView::Entry& entry : slab->entries) {
        const auto msg = decode(entry.frame);
        // A frame sent after our last round can never be delivered: buffering
        // it would only pin memory and, adaptively, force a resync per round.
        if (!msg.has_value() || slab->round > config_.max_rounds) {
          frames_dropped_.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        if (slab->round < r - 1) {
          frames_late_.fetch_add(1, std::memory_order_relaxed);  // synchrony violated
          if (rec != nullptr) {
            rec->record(TraceRecord{.kind = TraceEventKind::kLateFrame,
                                    .node = self,
                                    .round = r,
                                    .seq = 0,
                                    .from = msg->sender,
                                    .to = self,
                                    .link_seq = 0,
                                    .extra = slab->round,
                                    .detail = {}});
          }
          continue;
        }
        buffered_[slab->round].push_back(*msg);
      }
    }

    // This round's inbox: exactly the frames our peers sent in round r-1.
    std::vector<Message> inbox;
    if (auto it = buffered_.find(r - 1); it != buffered_.end()) {
      inbox = std::move(it->second);
      buffered_.erase(it);
    }
    if (rec != nullptr) {
      for (const Message& msg : inbox) rec->record_deliver(self, r, msg.sender);
    }

    std::vector<Outgoing> out;
    process_->on_round(RoundInfo{r, r}, inbox, out);
    rounds_executed_.store(r, std::memory_order_relaxed);

    // Coalesce the round's sends into ONE slab datagram per peer: the
    // runtime wire is a broadcast domain (engine-level unicast degrades to
    // broadcast + receiver-side relevance), so one broadcast() carries the
    // whole round — syscalls per round drop from |out| to 1. Nothing on
    // this wire reads the shard id or the routing tags, so they are 0 and
    // broadcast.
    slab_.reset(0, r);
    for (Outgoing& o : out) {
      o.msg.sender = self;  // stamp our identity (see header note)
      slab_.add(std::nullopt, o.msg);
      if (rec != nullptr) rec->record_send(self, r, o.to);
    }
    if (!slab_.empty()) transport_->broadcast(slab_.bytes());

    const std::uint64_t late_this_round =
        frames_late_.load(std::memory_order_relaxed) - late_before;
    frames_late_last_round_.store(late_this_round, std::memory_order_relaxed);

    if (process_->done()) return rounds_executed();

    if (!config_.adaptive) {
      interruptible_sleep_until(config_.epoch + r * config_.round_duration);
      continue;
    }

    // --- self-healing clock -------------------------------------------
    if (late_this_round >= config_.backoff_late_threshold) {
      const auto grown = std::min(
          std::chrono::milliseconds(static_cast<std::int64_t>(
              static_cast<double>(duration.count()) * config_.backoff_factor)),
          config_.max_round_duration);
      if (grown > duration) {
        duration = grown;
        backoffs_.fetch_add(1, std::memory_order_relaxed);
        if (rec != nullptr) {
          rec->record_clock(self, TraceEventKind::kClockBackoff, r, duration.count());
        }
      }
      clean_streak = 0;
    } else if (late_this_round == 0) {
      clean_streak += 1;
      if (clean_streak >= config_.shrink_after_clean_rounds &&
          duration > config_.round_duration) {
        duration = std::max(
            config_.round_duration,
            std::chrono::milliseconds(static_cast<std::int64_t>(
                static_cast<double>(duration.count()) / config_.backoff_factor)));
        shrinks_.fetch_add(1, std::memory_order_relaxed);
        if (rec != nullptr) {
          rec->record_clock(self, TraceEventKind::kClockShrink, r, duration.count());
        }
        clean_streak = 0;
      }
    } else {
      clean_streak = 0;
    }
    current_duration_ms_.store(duration.count(), std::memory_order_relaxed);

    deadline += duration;
    // Header-based resync: buffered traffic from rounds AHEAD of ours means
    // peers' clocks are already there and we are the laggard — skip the
    // sleep and catch up instead of letting every subsequent inbox be late.
    const bool peers_ahead = !buffered_.empty() && buffered_.rbegin()->first > r;
    if (peers_ahead) {
      resyncs_.fetch_add(1, std::memory_order_relaxed);
      if (rec != nullptr) {
        rec->record_clock(self, TraceEventKind::kClockResync, r, buffered_.rbegin()->first);
      }
    } else {
      interruptible_sleep_until(deadline);
    }
  }
  return rounds_executed();
}

}  // namespace idonly
