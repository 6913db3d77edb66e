#include "runtime/round_driver.hpp"

#include <algorithm>
#include <thread>
#include <tuple>
#include <unordered_set>
#include <utility>

#include "net/codec.hpp"

namespace idonly {

RoundDriver::RoundDriver(std::unique_ptr<Process> process, std::unique_ptr<Transport> transport,
                         RoundDriverConfig config)
    : process_(std::move(process)), transport_(std::move(transport)), config_(config) {}

Round RoundDriver::run() {
  std::this_thread::sleep_until(config_.epoch);
  for (Round r = 1; r <= config_.max_rounds; ++r) {
    if (run_round(r)) break;
    // The fixed epoch + r·D schedule: no drift accumulates across rounds.
    std::this_thread::sleep_until(config_.epoch + r * config_.round_duration);
  }
  return rounds_executed();
}

bool RoundDriver::run_round(Round r) {
  TraceRecorder* const rec = config_.recorder.get();
  ChaosSchedule* const chaos = config_.chaos.get();
  const NodeId self = process_->id();

  // Files one copy of `msg`, sent in round `sent`, for delivery `delay`
  // rounds after its on-time round sent + 1 — or counts it late when that
  // round has passed.
  const auto file = [&](const Message& msg, Round sent, Round delay) {
    if (sent + delay >= r - 1) {
      buffered_[sent + delay].push_back(Filed{sent, msg});
      return;
    }
    frames_late_.fetch_add(1, std::memory_order_relaxed);  // synchrony violated
    if (rec != nullptr) {
      rec->record(TraceRecord{.kind = TraceEventKind::kLateFrame,
                              .node = self,
                              .round = r,
                              .seq = 0,
                              .from = msg.sender,
                              .to = self,
                              .link_seq = 0,
                              .extra = sent,
                              .detail = {}});
    }
  };

  // Sort arrivals into per-round buffers by their round header. Each
  // datagram is one slab; its frames are decoded in place — the shared
  // frame buffer is never copied here, except one entry under a corrupt
  // verdict. A datagram that is not a slab is one dropped frame.
  for (const FrameView& view : transport_->drain_views()) {
    const auto slab = parse_shard_slab(view.bytes);
    if (!slab.has_value()) {
      frames_dropped_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    for (const ShardSlabView::Entry& entry : slab->entries) {
      auto msg = decode(entry.frame);
      // A frame sent after our last round can never be delivered: buffering
      // it would only pin memory.
      if (!msg.has_value() || slab->round > config_.max_rounds) {
        frames_dropped_.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      FaultDecision verdict;  // clean without a schedule
      if (chaos != nullptr) {
        const LinkEvent event{slab->round, msg->sender, self,
                              link_seq_[{slab->round, msg->sender}]++};
        verdict = chaos->decide(event);
        if (rec != nullptr) rec->record_link_verdict(event, verdict);
      }
      if (verdict.drop) continue;
      if (verdict.corrupt) {
        // Flip one bit of one byte of a private copy: wire corruption that
        // decode() (or the protocol) must survive.
        Frame corrupted(entry.frame.begin(), entry.frame.end());
        corrupted[verdict.entropy % corrupted.size()] ^=
            static_cast<std::byte>(1u << ((verdict.entropy >> 8) % 8));
        msg = decode(corrupted);
        if (!msg.has_value()) {
          frames_dropped_.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
      }
      // A duplicate's extra copy is on time; without a delay it dies in dedup.
      if (verdict.duplicate && verdict.delay_rounds > 0) file(*msg, slab->round, 0);
      file(*msg, slab->round, verdict.delay_rounds);
    }
  }

  // This round's inbox: the frames our peers sent in round r-1, then those
  // a delay held, in the sync engine's order — by sent round and sender,
  // each sender's in send order — so that what a process sends, and with it
  // the chaos sequence numbers of its links, never depends on arrival
  // order. One copy of identical messages is kept.
  std::vector<Message> inbox;
  if (auto it = buffered_.find(r - 1); it != buffered_.end()) {
    std::vector<Filed>& filed = it->second;
    std::stable_sort(filed.begin(), filed.end(), [r](const Filed& a, const Filed& b) {
      return std::tuple(a.sent < r - 1, a.sent, a.msg.sender) <
             std::tuple(b.sent < r - 1, b.sent, b.msg.sender);
    });
    std::unordered_set<Message, MessageHash> seen;
    for (Filed& f : filed) {
      if (seen.insert(f.msg).second) inbox.push_back(std::move(f.msg));
    }
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
  return process_->done();
}

}  // namespace idonly
