// ChaosSchedule decorator for the runtime's byte transports.
//
// The runtime's only wire-fault injector. It keys every fault off the shared
// deterministic schedule, so a runtime run reproduces the exact fault trace
// of a simulator run. Faults are applied on the RECEIVE side: the decorator
// knows its own endpoint id (`self` = the link's `to`) and judges each entry
// of an arriving slab (net/codec.hpp) in place, recovering the sent round
// from the slab header and the sender from the entry's codec frame — so the
// LinkEvent{round, from, to, seq} it hands the schedule is identical to the
// one the simulators build for the same logical message. Datagrams that are
// not slabs, and entries that do not decode, pass through unfaulted; they
// are already dying in the driver's decode.
//
// A slab none of whose entries is faulted leaves whole, as it arrived.
// Otherwise every surviving copy of an entry leaves as a one-entry slab
// that reuses the input's header and routing tag (an unfaulted entry's
// frame bytes are unchanged), one view per copy. Verdicts: drop ⇒ the entry
// vanishes; delay of k rounds ⇒ its view is held for k drain cycles (the
// driver drains once per round); duplicate ⇒ it is delivered twice this
// drain; corrupt ⇒ one bit of one byte of the entry's frame (chosen by the
// verdict's entropy) is flipped, header and length prefix intact. The
// emitted slabs are owned frames, so holding one across the inner
// transport's buffer reuse is safe.
#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <utility>

#include "common/chaos.hpp"
#include "common/trace.hpp"
#include "runtime/transport.hpp"

namespace idonly {

class ChaosTransport final : public Transport {
 public:
  ChaosTransport(std::unique_ptr<Transport> inner, std::shared_ptr<ChaosSchedule> chaos,
                 NodeId self);

  void broadcast(std::span<const std::byte> frame) override;
  [[nodiscard]] std::vector<FrameView> drain_views() override;

  [[nodiscard]] NodeId self() const noexcept { return self_; }
  [[nodiscard]] const std::shared_ptr<ChaosSchedule>& schedule() const noexcept { return chaos_; }
  /// Frames currently held back by delay verdicts.
  [[nodiscard]] std::size_t held_count() const;

  /// Attach a flight recorder: every verdict this transport asks the
  /// schedule for is recorded as a canonical link record (node = self).
  void set_trace_recorder(std::shared_ptr<TraceRecorder> recorder) {
    std::scoped_lock lock(mutex_);
    recorder_ = std::move(recorder);
  }

 private:
  struct Held {
    FrameView view;
    Round remaining_drains = 0;
  };

  std::unique_ptr<Transport> inner_;
  std::shared_ptr<ChaosSchedule> chaos_;
  std::shared_ptr<TraceRecorder> recorder_;
  NodeId self_ = 0;
  mutable std::mutex mutex_;
  std::vector<Held> held_;
  // Per (sent-round, sender) sequence counters; `to` is always self_.
  std::map<std::pair<Round, NodeId>, std::uint64_t> seq_;
};

}  // namespace idonly
