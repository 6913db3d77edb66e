#include "runtime/chaos_transport.hpp"

#include "net/codec.hpp"

namespace idonly {

ChaosTransport::ChaosTransport(std::unique_ptr<Transport> inner,
                               std::shared_ptr<ChaosSchedule> chaos, NodeId self)
    : inner_(std::move(inner)), chaos_(std::move(chaos)), self_(self) {}

void ChaosTransport::broadcast(std::span<const std::byte> frame) {
  // Faults are receive-side (see header) — sends pass through untouched.
  inner_->broadcast(frame);
}

std::vector<FrameView> ChaosTransport::drain_views() {
  std::scoped_lock lock(mutex_);
  std::vector<FrameView> out;

  // Release delayed frames whose hold expired; one drain ≈ one round.
  std::vector<Held> still_held;
  for (Held& held : held_) {
    if (--held.remaining_drains <= 0) {
      out.push_back(std::move(held.view));
    } else {
      still_held.push_back(std::move(held));
    }
  }
  held_ = std::move(still_held);

  // Verdicts are per message, so every entry of a slab is judged on its
  // own, in slab order — keeping per-link seq counters (and therefore whole
  // fault traces) byte-identical to the simulators, which decide per
  // message. Each surviving copy leaves as a one-entry slab under the
  // input's header and tag, i.e. an owned frame, so holding it across the
  // inner transport's buffer reuse is safe.
  for (FrameView& view : inner_->drain_views()) {
    const auto slab = parse_shard_slab(view.bytes);
    if (!slab.has_value()) {
      out.push_back(std::move(view));  // not a slab — the driver drops it anyway
      continue;
    }
    for (const ShardSlabView::Entry& entry : slab->entries) {
      const auto emit = [&](std::span<const std::byte> frame) {
        ShardSlabWriter writer;
        writer.reset(slab->shard, slab->round);
        writer.add_frame(entry.to, frame);
        return make_frame_view(make_frame_ref(writer.bytes()));
      };
      const auto msg = decode(entry.frame);
      if (!msg.has_value()) {
        out.push_back(emit(entry.frame));  // undecodable — unfaulted, dropped downstream
        continue;
      }
      const LinkEvent event{slab->round, msg->sender, self_, seq_[{slab->round, msg->sender}]++};
      const FaultDecision verdict = chaos_->decide(event);
      if (recorder_ != nullptr) recorder_->record_link_verdict(event, verdict);
      if (verdict.drop) continue;

      std::span<const std::byte> frame = entry.frame;
      Frame corrupted;
      if (verdict.corrupt) {
        // Flip one bit of one frame byte in a private copy — wire corruption
        // that decode() (or the protocol) must survive. The slab header and
        // length prefix stay intact: the header keys the schedule.
        corrupted.assign(frame.begin(), frame.end());
        corrupted[verdict.entropy % corrupted.size()] ^=
            static_cast<std::byte>(1u << ((verdict.entropy >> 8) % 8));
        frame = corrupted;
      }
      const FrameView copy = emit(frame);
      const int copies = verdict.duplicate ? 2 : 1;
      for (int i = 0; i < copies; ++i) {
        if (verdict.delay_rounds > 0) {
          held_.push_back(Held{copy, verdict.delay_rounds});
        } else {
          out.push_back(copy);
        }
      }
    }
  }
  return out;
}

std::size_t ChaosTransport::held_count() const {
  std::scoped_lock lock(mutex_);
  return held_.size();
}

}  // namespace idonly
