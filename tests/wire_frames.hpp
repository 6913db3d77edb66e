// Wire frames for the runtime tests. Every datagram on a runtime wire is one
// slab (net/codec.hpp); these helpers build a one-entry slab the way
// RoundDriver sends one (shard 0, broadcast tag), decode a drained slab
// back into its messages, and run drivers in unpaced lock-step.
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "net/codec.hpp"
#include "net/mailbox.hpp"
#include "runtime/inmemory_transport.hpp"
#include "runtime/round_driver.hpp"

namespace idonly {

/// A one-entry slab carrying `msg`, sent in `round`.
inline Frame one_entry_slab(Round round, const Message& msg) {
  ShardSlabWriter writer;
  writer.reset(0, round);
  writer.add(std::nullopt, msg);
  const auto bytes = writer.bytes();
  return Frame(bytes.begin(), bytes.end());
}

/// The chatter frame the chaos tests broadcast: one kPresent from `sender`.
inline Frame framed(Round round, NodeId sender) {
  return one_entry_slab(round, Message{.sender = sender, .kind = MsgKind::kPresent});
}

/// Every entry of a drained slab that decodes, in slab order; empty when
/// `bytes` is not a slab.
inline std::vector<Message> decode_slab(std::span<const std::byte> bytes) {
  std::vector<Message> out;
  if (const auto slab = parse_shard_slab(bytes)) {
    for (const ShardSlabView::Entry& entry : slab->entries) {
      if (const auto msg = decode(entry.frame)) out.push_back(*msg);
    }
  }
  return out;
}

/// Runs `inner` through round `last` only: later rounds neither step it nor
/// let it send.
class UntilRound final : public Process {
 public:
  UntilRound(std::unique_ptr<Process> inner, Round last)
      : Process(inner->id()), inner_(std::move(inner)), last_(last) {}
  void on_round(RoundInfo round, std::span<const Message> inbox,
                std::vector<Outgoing>& out) override {
    if (round.global <= last_) inner_->on_round(round, inbox, out);
  }
  [[nodiscard]] bool done() const override { return inner_->done(); }
  [[nodiscard]] Process& inner() noexcept { return *inner_; }

 private:
  std::unique_ptr<Process> inner_;
  Round last_;
};

/// What SyncSimulator::run_rounds(rounds) does with `processes`, through one
/// RoundDriver per process over `hub`, unpaced: every driver runs round r
/// (drain, step, send) before any runs round r+1, so no frame is late. A
/// driver judges `chaos` (recorded into `recorder`; either may be null) on
/// receipt, while the sync engine judges a message when it is sent, so one
/// more round, in which no process steps, drains what was sent in round
/// `rounds`. Each driver's process is an UntilRound around the given one.
inline std::vector<std::unique_ptr<RoundDriver>> run_lock_step(
    InMemoryHub& hub, std::vector<std::unique_ptr<Process>> processes, Round rounds,
    std::shared_ptr<ChaosSchedule> chaos, std::shared_ptr<TraceRecorder> recorder = nullptr) {
  RoundDriverConfig config;
  config.max_rounds = rounds + 1;
  config.chaos = std::move(chaos);
  config.recorder = std::move(recorder);
  std::vector<std::unique_ptr<RoundDriver>> drivers;
  for (auto& process : processes) {
    drivers.push_back(std::make_unique<RoundDriver>(
        std::make_unique<UntilRound>(std::move(process), rounds), hub.make_endpoint(), config));
  }
  for (Round r = 1; r <= rounds + 1; ++r) {
    for (const auto& driver : drivers) driver->run_round(r);
  }
  return drivers;
}

/// The process a run_lock_step driver runs, as its concrete type.
template <class P>
P& process_of(RoundDriver& driver) {
  return dynamic_cast<P&>(dynamic_cast<UntilRound&>(driver.process()).inner());
}

}  // namespace idonly
