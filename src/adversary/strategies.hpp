// Byzantine strategy library.
//
// Adversaries run inside the same engine as correct nodes (same Process
// interface) but ignore the algorithms. The model lets a Byzantine node:
//   * stay silent toward everyone or toward a chosen subset,
//   * send *different* (conflicting) messages to different recipients,
//   * claim to have received messages from other — possibly non-existent —
//     nodes (only the direct sender id is unforgeable),
//   * announce itself to only some nodes, or join late.
//
// The strategies here cover the attack surface the paper's lemmas defend
// against, plus the strongest attacks we could construct against each
// algorithm (used by the resiliency-boundary experiment E5, where they DO
// break agreement at n = 3f).
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "common/value.hpp"

#include "common/rng.hpp"
#include "common/types.hpp"
#include "net/process.hpp"

namespace idonly {

/// Shared omniscient view handed to adversaries by the scenario builder:
/// Byzantine nodes "can behave as if they already know all the nodes".
struct AdversaryContext {
  std::vector<NodeId> all_ids;      ///< every node in the scenario
  std::vector<NodeId> correct_ids;  ///< the correct subset
};

/// Base with the byzantine() flag set.
class ByzantineProcess : public Process {
 public:
  using Process::Process;
  [[nodiscard]] bool byzantine() const final { return true; }
};

/// Sends nothing, ever — not even `present`. Exercises the "a Byzantine node
/// may not announce itself" part of the model: correct nodes must work with
/// n_v < n.
class SilentAdversary final : public ByzantineProcess {
 public:
  using ByzantineProcess::ByzantineProcess;
  void on_round(RoundInfo round, std::span<const Message> inbox,
                std::vector<Outgoing>& out) override;
};

/// Runs a correct inner protocol until `crash_round` (local), then goes
/// silent forever — the classic crash-in-the-middle failure.
class CrashAdversary final : public ByzantineProcess {
 public:
  CrashAdversary(std::unique_ptr<Process> inner, Round crash_round);
  void on_round(RoundInfo round, std::span<const Message> inbox,
                std::vector<Outgoing>& out) override;

 private:
  std::unique_ptr<Process> inner_;
  Round crash_round_;
};

/// The generic equivocation attack: runs TWO correct protocol instances with
/// different inputs and shows face A to one half of the network and face B
/// to the other half. Protocol-agnostic — this is the strongest
/// "split-brain" adversary for any of the algorithms, and the one that
/// actually violates agreement once n ≤ 3f.
class TwoFacedAdversary final : public ByzantineProcess {
 public:
  /// `side_a(id)` decides which face a recipient sees. `context.all_ids`
  /// is split into the two sides once, at the first round.
  TwoFacedAdversary(std::unique_ptr<Process> face_a, std::unique_ptr<Process> face_b,
                    std::function<bool(NodeId)> side_a, AdversaryContext context);
  void on_round(RoundInfo round, std::span<const Message> inbox,
                std::vector<Outgoing>& out) override;

 private:
  std::unique_ptr<Process> face_a_;
  std::unique_ptr<Process> face_b_;
  std::function<bool(NodeId)> side_a_;  // still decides a face's own unicasts
  std::vector<NodeId> all_ids_;         // recipients not yet split (until round 1)
  std::vector<NodeId> ids_a_;           // all_ids on side A, in all_ids order
  std::vector<NodeId> ids_b_;           // ... and on side B
};

/// Broadcasts syntactically valid but semantically random protocol messages
/// every round: random kinds, random subjects (sometimes non-existent ids),
/// random values. A fuzzer for every quorum rule.
class RandomNoiseAdversary final : public ByzantineProcess {
 public:
  RandomNoiseAdversary(NodeId id, AdversaryContext context, Rng rng, double send_probability = 1.0);
  void on_round(RoundInfo round, std::span<const Message> inbox,
                std::vector<Outgoing>& out) override;

 private:
  AdversaryContext context_;
  Rng rng_;
  double send_probability_;
};

/// Attack on reliable broadcast: floods echo(m*, s*) for a message the
/// (correct, silent) source s* never sent, trying to get it accepted — the
/// unforgeability property must hold regardless.
class ForgedEchoAdversary final : public ByzantineProcess {
 public:
  ForgedEchoAdversary(NodeId id, NodeId forged_source, Value forged_payload);
  void on_round(RoundInfo round, std::span<const Message> inbox,
                std::vector<Outgoing>& out) override;

 private:
  NodeId forged_source_;
  Value forged_payload_;
};

/// Attack on the rotor-coordinator: participates in init, then drips echoes
/// for fake candidate ids (one new fake id per round, each echoed by ALL
/// colluding stuffers so correct nodes relay them) to stretch the candidate
/// set and delay/perturb the schedule. Lemma 6 shows at most 2f non-silent
/// rounds can be produced this way.
class RotorStufferAdversary final : public ByzantineProcess {
 public:
  RotorStufferAdversary(NodeId id, std::vector<NodeId> fake_ids, InstanceTag instance = 0);
  void on_round(RoundInfo round, std::span<const Message> inbox,
                std::vector<Outgoing>& out) override;

 private:
  std::vector<NodeId> fake_ids_;
  InstanceTag instance_;
};

/// Attack on consensus thresholds: echoes every quorum-adjacent message it
/// sees back with the opposite opinion to the half of the network that
/// leans the other way (classic vote-splitting). Works on kInput/kPrefer/
/// kStrongPrefer kinds; sends opinion(x) garbage when selected coordinator.
class VoteSplitAdversary final : public ByzantineProcess {
 public:
  VoteSplitAdversary(NodeId id, AdversaryContext context);
  void on_round(RoundInfo round, std::span<const Message> inbox,
                std::vector<Outgoing>& out) override;

 private:
  AdversaryContext context_;
};

/// Attack on parallel consensus' late-adoption rules: whisper messages about
/// a pair id NO correct node has as input — id:input / id:prefer /
/// id:strongprefer — to a chosen subset of nodes at a chosen local round.
/// Theorem 5's second half says no correct node may ever OUTPUT such a pair;
/// the tests drive this adversary through every adoption window (rounds
/// 2/3/5 of phase 1, and post-phase-1 where messages must be discarded).
class WhisperAdversary final : public ByzantineProcess {
 public:
  /// Sends `kind`(value) for pair `pair` to `targets` in local round
  /// `fire_round` (message arrives in fire_round + 1), after announcing
  /// itself in rounds 1–2 so it counts toward n_v.
  WhisperAdversary(NodeId id, PairId pair, MsgKind kind, Value value, Round fire_round,
                   std::vector<NodeId> targets);
  void on_round(RoundInfo round, std::span<const Message> inbox,
                std::vector<Outgoing>& out) override;

 private:
  PairId pair_;
  MsgKind kind_;
  Value value_;
  Round fire_round_;
  std::vector<NodeId> targets_;
};

/// Records everything it hears and re-broadcasts stale messages `lag` rounds
/// later — the model explicitly allows duplicates across rounds, and the
/// cumulative distinct-sender counting must make replays harmless.
class ReplayAdversary final : public ByzantineProcess {
 public:
  ReplayAdversary(NodeId id, Round lag);
  void on_round(RoundInfo round, std::span<const Message> inbox,
                std::vector<Outgoing>& out) override;

 private:
  Round lag_;
  std::map<Round, std::vector<Message>> recorded_;
};

/// The sharpest consensus attack: tell every node exactly what it wants to
/// hear. The adversary tracks each correct node's current opinion (from its
/// kInput broadcasts) and feeds it matching input/prefer/strongprefer/opinion
/// copies every round. At n = 3f this pushes BOTH camps over the 2n_v/3
/// termination threshold in the first phase — a clean agreement violation;
/// at n > 3f the f forged copies never tip any quorum (experiment E5).
class EchoChamberAdversary final : public ByzantineProcess {
 public:
  EchoChamberAdversary(NodeId id, AdversaryContext context);
  void on_round(RoundInfo round, std::span<const Message> inbox,
                std::vector<Outgoing>& out) override;

 private:
  AdversaryContext context_;
  std::map<NodeId, Value> last_opinion_;
};

/// Approximate-agreement attack: reports the most extreme value possible,
/// and *different* extremes to different halves (pulls each side outward).
class ExtremeValueAdversary final : public ByzantineProcess {
 public:
  ExtremeValueAdversary(NodeId id, AdversaryContext context, double lo, double hi);
  void on_round(RoundInfo round, std::span<const Message> inbox,
                std::vector<Outgoing>& out) override;

 private:
  AdversaryContext context_;
  double lo_;
  double hi_;
};

}  // namespace idonly
