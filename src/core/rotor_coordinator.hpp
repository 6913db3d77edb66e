// Rotor-coordinator in the id-only model (paper §Rotor-Coordinator, Alg. 2).
//
// Problem: rotate through coordinators so that every correct node, before it
// terminates, witnesses at least one *good round* — a round in which all
// correct nodes select the SAME coordinator and that coordinator is correct.
// With known f and consecutive ids this is trivial (rotate through ids
// 1..f+1); with unknown n, f and sparse ids it is the paper's key technical
// contribution.
//
// Mechanism: every node announces itself (`init`); candidate ids propagate
// into each node's ordered candidate set C_v in reliable-broadcast fashion
// (n_v/3 relay, 2n_v/3 accept), so by Lemma 5 any candidate accepted by one
// correct node is accepted by all within one round. Each rotor round r
// selects C_v[r mod |C_v|]; a node terminates when it re-selects a node.
// Lemma 6 shows the adversary can force at most 2f non-silent and f silent
// bad rounds, so |C_v| > r holds until a good round has been witnessed.
//
// Cost: the candidate echoes are most of the traffic wherever a rotor runs.
// Round 2 echoes every init, and at the first rotor step C_v is still empty,
// so every node relays an echo for every candidate: each batch is n echoes
// from each of n senders at each of n nodes, n³ deliveries network-wide.
// Without faults the second batch names only candidates the first batch
// already got accepted, so absorb() drops echoes whose subject is in C_v.
// The drop cannot be observed: step() skips accepted keys before reading
// their tallies, C_v never shrinks, and nothing else reads the tallies. The
// C_v test is a cursor that follows each sender's ascending subject run
// (O(1) per echo) and restarts with a binary search when a subject goes
// backwards, so a Byzantine order costs O(log n), never O(n). A new
// candidate's tally costs one allocation: its sender set is sized once for
// every echoing sender of the inbox (one pass over the grouped inbox, made
// only when some candidate is new) instead of growing by doubling as the
// batch arrives.
//
// RotorCore is the embeddable state machine (consensus/parallel consensus
// execute one rotor step per phase); RotorProcess is the standalone
// algorithm with the termination rule and an audit log used by tests.
#pragma once

#include <optional>
#include <vector>

#include "common/flat_set.hpp"
#include "common/observer.hpp"
#include "common/types.hpp"
#include "common/value.hpp"
#include "core/participant_tracker.hpp"
#include "net/process.hpp"

namespace idonly {

class RotorCore {
 public:
  /// `instance` tags all emitted messages (0 = untagged) so multiple rotors
  /// can coexist (total ordering runs one per parallel-consensus instance).
  explicit RotorCore(NodeId self, InstanceTag instance = 0) noexcept
      : self_(self), instance_(instance) {}

  /// Local round 1: emit `init`.
  void round1(std::vector<Message>& out) const;

  /// Local round 2: emit echo(p) for every init received.
  void round2(std::span<const Message> inbox, std::vector<Message>& out) const;

  /// Absorb candidate echoes from an inbox. Call every round — embedded in
  /// consensus, relay echoes sent at one rotor step arrive in the *next*
  /// protocol round and must not be lost before the next rotor step.
  /// Echoes for candidates already in C_v are dropped (see the file header).
  void absorb(std::span<const Message> inbox);

  struct StepResult {
    std::optional<NodeId> coordinator;  ///< selected this step (C_v empty → none)
    bool repeated = false;              ///< coordinator already in S_v (Alg. 2 break)
    std::vector<Message> relay;         ///< echo relays to broadcast this round
  };

  /// One rotor loop iteration (Alg. 2 loop body, minus opinion handling
  /// which the caller owns). `r` is the 0-based rotor round index, `n_v` the
  /// caller's participant count. If `repeated` is returned, the coordinator
  /// was NOT re-added to S_v (pseudocode breaks before the insert).
  [[nodiscard]] StepResult step(std::size_t n_v, std::int64_t r);

  /// Sorted candidate set C_v.
  [[nodiscard]] const std::vector<NodeId>& candidates() const noexcept {
    return candidates_.values();
  }
  [[nodiscard]] const FlatSet<NodeId>& selected() const noexcept { return selected_; }

 private:
  NodeId self_;
  InstanceTag instance_;
  QuorumCounter<NodeId> echoes_;  // candidate id -> distinct echoers (until accepted)
  FlatSet<NodeId> candidates_;    // C_v, ascending (selection indexes .values())
  FlatSet<NodeId> selected_;      // S_v
};

/// Standalone Alg. 2: selects coordinators until one repeats; records what
/// happened each rotor round so tests can verify Theorem 2 (a good round is
/// witnessed before termination).
class RotorProcess final : public Process {
 public:
  RotorProcess(NodeId self, Value opinion);

  void on_round(RoundInfo round, std::span<const Message> inbox,
                std::vector<Outgoing>& out) override;
  [[nodiscard]] bool done() const override { return terminated_; }

  struct RoundRecord {
    std::int64_t rotor_round = 0;               ///< r
    std::optional<NodeId> selected;              ///< coordinator chosen at r
    std::optional<Value> accepted_opinion;       ///< opinion accepted at r (from r-1's coordinator)
    std::optional<NodeId> accepted_from;         ///< who that opinion came from
  };

  [[nodiscard]] const std::vector<RoundRecord>& history() const noexcept { return history_; }
  [[nodiscard]] const RotorCore& core() const noexcept { return core_; }
  [[nodiscard]] Value opinion() const noexcept { return opinion_; }

  /// Non-owning; must outlive the process. Receives kCoordinatorSelected
  /// and kGoodOpinionAccepted events.
  void set_observer(ProtocolObserver* observer) noexcept { observer_ = observer; }

 private:
  Value opinion_;
  RotorCore core_;
  ParticipantTracker tracker_;
  std::optional<NodeId> prev_coordinator_;
  std::vector<RoundRecord> history_;
  bool terminated_ = false;
  ProtocolObserver* observer_ = nullptr;
};

}  // namespace idonly
