// Parallel consensus in the id-only model (paper §Parallel Consensus, Alg. 5).
//
// Every correct node inputs a SET of (pair-id, value) pairs; nodes need not
// agree up front on which pair-ids exist. Guarantees:
//   * Validity    — a pair (id, x), x ≠ ⊥, input at EVERY correct node is
//                   output by every correct node;
//   * Agreement   — any pair output by one correct node is output by all;
//   * Termination — finite rounds (O(f) per instance).
//
// One EarlyConsensus(id) instance runs per pair-id, all sharing a common
// round/phase clock and one rotor-coordinator. The machinery that removes
// the "agree on the instance set first" chicken-and-egg:
//   * explicit id:nopreference / id:nostrongpreference markers so silence
//     is distinguishable from "no quorum";
//   * ⊥-filling — during phase 1, a node that first hears a message type for
//     an id fills the missing copies from other members with that type's ⊥
//     message; in later phases it fills with what it itself sent last;
//   * late adoption — a node unaware of id starts the instance if it first
//     hears id:input / id:prefer / id:strongprefer in rounds 2 / 3 / 5 of
//     phase 1; anything about an unknown id after phase 1 is discarded.
//
// ParallelConsensusMachine is the embeddable engine (the dynamic
// total-ordering protocol runs one machine per round, tagged by instance);
// ParallelConsensusProcess adapts it to the simulator.
//
// Cost: a node's inbox is bucketed by instance tag once per round
// (TaggedInbox), and each machine reads only its own bucket. Within a
// machine, each phase round tallies every live pair in one walk of the
// bucket, so a round reads each message a constant number of times however
// many instances and pair ids are open. Messages under a tag no live machine
// owns are read once, by the bucketing pass, and never again.
#pragma once

#include <map>
#include <optional>
#include <span>
#include <vector>

#include "common/flat_set.hpp"
#include "common/types.hpp"
#include "common/value.hpp"
#include "core/participant_tracker.hpp"
#include "core/rotor_coordinator.hpp"
#include "net/process.hpp"

namespace idonly {

struct InputPair {
  PairId id = 0;
  Value value;
};

struct OutputPair {
  PairId id = 0;
  Value value;
  friend bool operator==(const OutputPair&, const OutputPair&) = default;
  friend bool operator<(const OutputPair& a, const OutputPair& b) {
    if (a.id != b.id) return a.id < b.id;
    return a.value < b.value;
  }
};

/// One pass over a node's inbox for the machines it drives: the inbox's
/// distinct senders, ascending, and one bucket per live instance tag holding
/// that tag's messages in inbox order. A message under any other tag lands
/// in no bucket. Reused round after round, it keeps its buffers' capacity.
class TaggedInbox {
 public:
  /// `live_tags` ascending and distinct.
  void build(std::span<const Message> inbox, std::span<const InstanceTag> live_tags);

  /// The messages tagged `tag`, in inbox order (empty for a tag that was
  /// not live at build()).
  [[nodiscard]] std::span<const Message> bucket(InstanceTag tag) const;
  /// Every sender of the inbox, under any tag, ascending.
  [[nodiscard]] std::span<const NodeId> senders() const noexcept { return senders_; }

 private:
  std::vector<InstanceTag> tags_;
  std::vector<std::vector<Message>> buckets_;  ///< buckets_[i] holds tags_[i]
  std::vector<NodeId> senders_;
};

class ParallelConsensusMachine {
 public:
  /// `membership_restriction` — the total-ordering protocol records its view
  /// S at instance start and only accepts messages from S; empty optional
  /// means "no restriction" (standalone use).
  ParallelConsensusMachine(NodeId self, InstanceTag tag, std::vector<InputPair> inputs,
                           std::optional<FlatSet<NodeId>> membership_restriction = std::nullopt);

  /// Advance one local round. `tagged` is this round's messages under this
  /// machine's instance tag, in inbox order (TaggedInbox::bucket), and
  /// `senders` every sender of the round's inbox under any tag, ascending
  /// (TaggedInbox::senders): before the first phase they count toward n_v.
  /// The machine applies its membership filters itself. Outgoing messages
  /// (already instance-tagged) are appended to `out`.
  void on_round(std::span<const Message> tagged, std::span<const NodeId> senders,
                std::vector<Message>& out);

  [[nodiscard]] bool terminated() const noexcept;
  /// Agreed output pairs, sorted by pair id (⊥-valued pairs already
  /// discarded). Stable once terminated().
  [[nodiscard]] std::vector<OutputPair> outputs() const;

  [[nodiscard]] InstanceTag tag() const noexcept { return tag_; }
  [[nodiscard]] Round local_round() const noexcept { return local_round_; }
  [[nodiscard]] std::size_t n_v() const noexcept { return membership_.n_v(); }
  [[nodiscard]] std::size_t instance_count() const noexcept { return instances_.size(); }

 private:
  struct Instance {
    Value x;                  ///< current opinion (⊥ allowed)
    bool terminated = false;
    std::optional<Value> decided;            ///< set at termination (may be ⊥)
    std::optional<Value> my_last_prefer;     ///< what I sent in P2 (prefer only)
    std::optional<Value> my_last_strongpref; ///< what I sent in P3
    /// This phase round's tally (P2 inputs, P3 prefers); P4's strongprefers
    /// stay until P5 reads them.
    QuorumCounter<Value> tally;
    // Scratch of one walk of the bucket: the instance is being tallied, the
    // members it heard from, the coordinator's first opinion on it.
    bool tallying = false;
    FlatSet<NodeId> heard;
    std::optional<Value> coordinator_opinion;
  };

  /// Restriction and membership checks on a sender (the bucket already
  /// holds only this machine's tag).
  [[nodiscard]] bool accepts(NodeId sender) const;
  Instance& activate(PairId id, Value initial);
  /// Phase-1 late adoption: every accepted `kind` message about an unknown
  /// pair id starts that instance with opinion ⊥, marked `tallying`.
  void adopt_unknown(std::span<const Message> tagged, MsgKind kind);
  /// One walk of the bucket tallies `kind` messages into every instance
  /// marked `tallying`, in inbox order; `heard_marker` messages only mark
  /// their sender heard. Then each such instance gets `fill(instance)` (if
  /// any) for every member it did not hear from, and is unmarked.
  template <typename Fill>
  void tally_marked(std::span<const Message> tagged, MsgKind kind,
                    std::optional<MsgKind> heard_marker, Fill fill);
  /// Marks every live instance `tallying` with an empty tally.
  void mark_live_for_tally();

  void phase_round_1(std::vector<Message>& out);
  void phase_round_2(std::span<const Message> tagged, std::int64_t phase,
                     std::vector<Message>& out);
  void phase_round_3(std::span<const Message> tagged, std::int64_t phase,
                     std::vector<Message>& out);
  void phase_round_4(std::span<const Message> tagged, std::int64_t phase,
                     std::vector<Message>& out);
  void phase_round_5(std::span<const Message> tagged, std::int64_t phase);

  NodeId self_;
  InstanceTag tag_;
  std::vector<InputPair> pending_inputs_;
  std::optional<FlatSet<NodeId>> restriction_;
  RotorCore rotor_;
  ParticipantTracker membership_;
  bool membership_frozen_ = false;
  Round local_round_ = 0;
  std::map<PairId, Instance> instances_;
  std::size_t undecided_ = 0;  ///< instances not yet terminated
  std::optional<NodeId> phase_coordinator_;
};

/// Standalone Alg. 5 as a simulator process.
class ParallelConsensusProcess final : public Process {
 public:
  ParallelConsensusProcess(NodeId self, std::vector<InputPair> inputs);

  void on_round(RoundInfo round, std::span<const Message> inbox,
                std::vector<Outgoing>& out) override;
  [[nodiscard]] bool done() const override { return machine_.terminated(); }
  [[nodiscard]] std::vector<OutputPair> outputs() const { return machine_.outputs(); }
  [[nodiscard]] const ParallelConsensusMachine& machine() const noexcept { return machine_; }

 private:
  ParallelConsensusMachine machine_;
};

}  // namespace idonly
