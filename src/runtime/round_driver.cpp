#include "runtime/round_driver.hpp"

#include <thread>
#include <utility>

#include "net/codec.hpp"

namespace idonly {

RoundDriver::RoundDriver(std::unique_ptr<Process> process, std::unique_ptr<Transport> transport,
                         RoundDriverConfig config)
    : process_(std::move(process)), transport_(std::move(transport)), config_(config) {}

Round RoundDriver::run() {
  std::this_thread::sleep_until(config_.epoch);

  TraceRecorder* const rec = config_.recorder.get();
  const NodeId self = process_->id();

  for (Round r = 1; r <= config_.max_rounds; ++r) {
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
        // it would only pin memory.
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

    if (process_->done()) return rounds_executed();
    // The fixed epoch + r·D schedule: no drift accumulates across rounds.
    std::this_thread::sleep_until(config_.epoch + r * config_.round_duration);
  }
  return rounds_executed();
}

}  // namespace idonly
