// Deterministic chaos-injection schedules shared by every engine.
//
// An independent coin per frame would make failures impossible to
// reproduce across engines: the sync simulator (in-process or in forked
// shard workers) and the runtime each consume randomness in a different
// order. A ChaosSchedule avoids that by making every fault verdict a PURE
// FUNCTION of (seed, link event): the engines merely describe each delivery
// attempt as a LinkEvent{round, from, to, seq} and ask `decide()` for the
// verdict. Same seed + same logical traffic ⇒ the same verdicts, no matter
// which engine replays them or in which order its threads drain mailboxes.
// It is the only link-fault injector: the sync simulator and the runtime's
// RoundDriver (on receipt, per decoded frame) both consult one and deliver
// drop, delay and duplicate verdicts alike; only a corrupt verdict flips a
// real bit in the runtime alone. The schedule keeps only per-phase fault
// counters; the record of individual verdicts is the flight recorder's
// link family (common/trace.hpp), whose canonical export is the
// cross-engine comparison.
//
// A schedule is a sequence of PHASES, each active over an inclusive round
// window: burst loss, duplication, delay distributions (jitter), one-byte
// corruption, bidirectional partitions between id sets, per-link asymmetric
// faults, and crash windows on endpoints (crash-and-rejoin: every frame to
// or from the node dies while the window is open, then traffic resumes —
// the id-only model explicitly tolerates the late rejoin). Self-delivery
// (from == to) is never faulted: a node's loopback is local memory, not
// wire, and every protocol in the library assumes it.
#pragma once

#include <algorithm>
#include <cstdint>
#include <mutex>
#include <optional>
#include <span>
#include <vector>

#include "common/metrics.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"

namespace idonly {

/// Jitter/delay distribution: with `probability`, hold the frame for a
/// uniform 1..max_extra_rounds extra rounds (the extra count is itself a
/// pure function of the link event, so it reproduces too).
struct DelaySpec {
  double probability = 0.0;
  Round max_extra_rounds = 1;
};

/// Bidirectional partition: every frame crossing between `side_a` and
/// `side_b` (either direction) is dropped while the phase is active. Nodes
/// listed on neither side are unaffected.
struct ChaosPartition {
  std::vector<NodeId> side_a;
  std::vector<NodeId> side_b;
};

/// Asymmetric per-link fault: extra probabilities applied ONLY to frames
/// from → to (not the reverse direction).
struct LinkFaultSpec {
  NodeId from = 0;
  NodeId to = 0;
  double drop = 0.0;
  double duplicate = 0.0;
  double delay = 0.0;
};

/// Crash window on an endpoint: while `first <= round <= last` every frame
/// from or to `node` is dropped. After `last` the node rejoins as a late
/// participant.
struct CrashWindow {
  NodeId node = 0;
  Round first = 1;
  Round last = 1;
};

/// One phase of a fault plan, active for rounds in [first_round, last_round]
/// inclusive. Probabilities compose: partition and crash verdicts are
/// checked first (deterministic, no coin), then drop, duplicate, delay, and
/// corrupt coins in that fixed order.
struct ChaosPhase {
  Round first_round = 1;
  Round last_round = 1;
  double drop = 0.0;
  double duplicate = 0.0;
  double corrupt = 0.0;
  DelaySpec delay;
  std::vector<ChaosPartition> partitions;
  std::vector<LinkFaultSpec> link_faults;
  std::vector<CrashWindow> crashes;
};

struct ChaosPlan {
  std::vector<ChaosPhase> phases;
};

/// One delivery attempt as described by an engine. `round` is the round the
/// message was SENT in (the sync simulator's current round; the runtime's
/// frame round header). `seq` disambiguates multiple sends over the same
/// (round, from, to) link — engines count it per link per round, so the
/// k-th send on a link gets the same verdict everywhere.
struct LinkEvent {
  Round round = 0;
  NodeId from = 0;
  NodeId to = 0;
  std::uint64_t seq = 0;
};

/// Which rule dropped a frame: the drop coin, a partition or a crash window.
enum class FaultKind : std::uint8_t {
  kDrop,
  kPartitionDrop,
  kCrashDrop,
};

/// Verdict for one delivery attempt. At most one of drop/duplicate is set;
/// delay and corrupt may combine with duplicate (both copies delayed /
/// corrupted — wire-level faults hit the frame, not a copy).
struct FaultDecision {
  bool drop = false;
  bool duplicate = false;
  bool corrupt = false;
  /// Which drop flavour fired (meaningful only when `drop`): crash window,
  /// partition, or the plain drop coin. Lets commit() count the verdict
  /// under the right per-phase counter without re-deriving it.
  FaultKind drop_kind = FaultKind::kDrop;
  int phase = -1;           ///< active phase index, -1 when no phase covers the round
  Round delay_rounds = 0;   ///< extra rounds to hold the frame (0 = on time)
  std::uint64_t entropy = 0;  ///< deterministic per-event word (corrupt position/bit)

  /// True when the verdict implies at least one fault.
  [[nodiscard]] bool faulted() const noexcept {
    return drop || duplicate || corrupt || delay_rounds > 0;
  }
};

class ChaosSchedule {
 public:
  /// Validates the plan: all probabilities must be in [0, 1], round windows
  /// non-empty (first <= last), delay max_extra_rounds >= 1. Throws
  /// std::invalid_argument on violation.
  ChaosSchedule(ChaosPlan plan, std::uint64_t seed);

  /// Verdict for one delivery attempt — pure in (seed, plan, event); the
  /// only mutation is counting it (thread-safe). Equivalent to peek() +
  /// commit().
  [[nodiscard]] FaultDecision decide(const LinkEvent& event);

  /// The verdict alone — PURE and lock-free, safe to call concurrently from
  /// any number of merge lanes. Counts nothing: pair with commit() /
  /// commit_batch() so the per-phase counters still fill in.
  [[nodiscard]] FaultDecision peek(const LinkEvent& event) const noexcept;

  // The verdict hash is keyed in three stages, split where the engines'
  // loops split: a SenderKey once per sender run (seed, round, from; the
  // phase), a LinkKey once per (sender run, receiver) (to; every rule that
  // does not depend on seq), then one fold of `seq` and one mix per coin
  // per message.

  /// One sender's links in one round: the (seed, round, from) prefix of
  /// every verdict hash and the phase covering the round.
  struct SenderKey {
    std::uint64_t prefix = 0;
    Round round = 0;
    NodeId from = 0;
    int phase = -1;  ///< phase index covering `round`, -1 when none
  };

  /// Key `from`'s links of `round`, with `phase` = phase_for(round) (looked
  /// up once per round by the caller).
  [[nodiscard]] SenderKey sender_key(Round round, NodeId from,
                                     std::optional<std::size_t> phase) const noexcept;

  /// One link of a sender run: the hash folded through `to`, and the rule
  /// the link's (round, from, to) settles before any coin.
  struct LinkKey {
    enum class Rule : std::uint8_t {
      kClean,  ///< loopback, or no phase covers the round: no verdict at all
      kCut,    ///< a crash window or a partition drops every send (`cut`)
      kCoins,  ///< the phase's coins
      kNamed,  ///< the phase's coins plus a LinkFaultSpec that names the link
    };
    std::uint64_t state = 0;
    NodeId to = 0;
    Rule rule = Rule::kClean;
    FaultKind cut = FaultKind::kDrop;  ///< kCrashDrop or kPartitionDrop under kCut
  };

  /// Key the link from `sender.from` to `to`.
  [[nodiscard]] LinkKey link_key(const SenderKey& sender, NodeId to) const noexcept;

  /// The verdict of the link's `seq`-th send, except `entropy` (left 0):
  /// the engines never read it, so they never pay its mix. A kCoins link
  /// mixes one word per coin whose probability is not 0. Inline (below),
  /// so that a merge lane's link walk compiles into one loop.
  [[nodiscard]] FaultDecision verdict(const SenderKey& sender, const LinkKey& link,
                                      std::uint64_t seq) const noexcept;

  /// peek(LinkEvent{key.round, key.from, to, seq}), bit for bit: verdict()
  /// plus the entropy word. peek(LinkEvent) itself goes through here.
  [[nodiscard]] FaultDecision peek(const SenderKey& key, NodeId to,
                                   std::uint64_t seq) const noexcept;

  /// Count the faults `verdict` implies under its phase (no-op for clean
  /// verdicts). One lock acquisition.
  void commit(const FaultDecision& verdict);

  /// Bulk commit under ONE lock — the merge lanes' flush path. Counters are
  /// sums, so the order in which lanes flush cannot change them.
  void commit_batch(std::span<const FaultDecision> staged);

  /// Phase index covering `round`, or nullopt. Later phases win overlaps.
  [[nodiscard]] std::optional<std::size_t> phase_for(Round round) const noexcept;

  [[nodiscard]] const ChaosPlan& plan() const noexcept { return plan_; }
  [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }
  /// Last round any phase is active; quiet after this (recovery window).
  [[nodiscard]] Round last_faulty_round() const noexcept { return last_faulty_round_; }

  /// Injected-fault counters, one FaultCounters per phase (recovery fields
  /// are left zero — those belong to the runtime's drivers).
  [[nodiscard]] ChaosCounters counters() const;

  /// The deterministic coin: uniform double in [0, 1) from (seed, event,
  /// salt). Exposed for tests; every verdict in decide() flows from it.
  [[nodiscard]] static double coin(std::uint64_t seed, const LinkEvent& event,
                                   std::uint64_t salt) noexcept;
  /// Deterministic 64-bit word from the same keying (delay lengths, corrupt
  /// positions).
  [[nodiscard]] static std::uint64_t word(std::uint64_t seed, const LinkEvent& event,
                                          std::uint64_t salt) noexcept;

  /// The integer form of a probability: ceil(p * 2^53). A coin over word `w`
  /// fires when `below(w, threshold(p))`, which is exactly
  /// `(w >> 11) * 2^-53 < p`, the double coin(), for every word.
  [[nodiscard]] static std::uint64_t threshold(double p) noexcept;
  [[nodiscard]] static bool below(std::uint64_t word, std::uint64_t threshold) noexcept {
    return (word >> 11) < threshold;
  }

 private:
  void count_locked(const FaultDecision& verdict);

  /// A phase's or a link spec's probabilities as threshold()s, fixed at
  /// construction, and one `live` bit per threshold that is not 0. The
  /// verdict tests the bit before it mixes a coin's word: `t != 0 &&
  /// below(w, t)` equals `below(w, t)`, so a guard on the threshold itself
  /// is folded away and every coin is mixed.
  struct Thresholds {
    static constexpr std::uint8_t kDrop = 1;
    static constexpr std::uint8_t kDuplicate = 2;
    static constexpr std::uint8_t kDelay = 4;
    static constexpr std::uint8_t kCorrupt = 8;
    Thresholds() = default;
    Thresholds(double drop_p, double duplicate_p, double delay_p, double corrupt_p) noexcept;
    std::uint64_t drop = 0;
    std::uint64_t duplicate = 0;
    std::uint64_t delay = 0;
    std::uint64_t corrupt = 0;
    std::uint8_t live = 0;
  };

  // Fault-type salts: each verdict draws from an independent pure stream so
  // e.g. raising the drop probability never perturbs delay lengths.
  static constexpr std::uint64_t kSaltDrop = 0;
  static constexpr std::uint64_t kSaltDuplicate = 1;
  static constexpr std::uint64_t kSaltDelay = 2;
  static constexpr std::uint64_t kSaltDelayLength = 3;
  static constexpr std::uint64_t kSaltCorrupt = 4;
  static constexpr std::uint64_t kSaltEntropy = 5;
  static constexpr std::uint64_t kSaltLinkDrop = 6;
  static constexpr std::uint64_t kSaltLinkDuplicate = 7;
  static constexpr std::uint64_t kSaltLinkDelay = 8;

  /// One field of the verdict hash: advance the splitmix64 state, then xor
  /// the field in.
  static std::uint64_t fold(std::uint64_t state, std::uint64_t field) noexcept {
    (void)splitmix64(state);
    return state ^ field;
  }
  /// The word of coin `salt` for the send whose folded state is `state`.
  static std::uint64_t salted(std::uint64_t state, std::uint64_t salt) noexcept {
    std::uint64_t folded = fold(state, salt);
    return splitmix64(folded);
  }

  /// The phase's thresholds on a kNamed link, with each coin certain whose
  /// LinkFaultSpec coin fires for this send.
  [[nodiscard]] Thresholds named_coins(const SenderKey& sender, const LinkKey& link,
                                       std::uint64_t state) const noexcept;

  ChaosPlan plan_;
  std::vector<Thresholds> phase_thresholds_;               // one per phase
  std::vector<std::vector<Thresholds>> link_thresholds_;  // per phase, one per link spec
  std::uint64_t seed_ = 0;
  Round last_faulty_round_ = 0;
  mutable std::mutex mutex_;
  std::vector<FaultCounters> per_phase_;
};

inline FaultDecision ChaosSchedule::verdict(const SenderKey& sender, const LinkKey& link,
                                            std::uint64_t seq) const noexcept {
  FaultDecision decision;
  if (link.rule == LinkKey::Rule::kClean) return decision;
  decision.phase = sender.phase;
  if (link.rule == LinkKey::Rule::kCut) {
    decision.drop = true;
    decision.drop_kind = link.cut;
    return decision;
  }
  const auto p = static_cast<std::size_t>(sender.phase);
  const std::uint64_t state = fold(link.state, seq);
  const Thresholds coins = link.rule == LinkKey::Rule::kNamed ? named_coins(sender, link, state)
                                                              : phase_thresholds_[p];
  // A coin whose probability is 0 is never mixed.
  if ((coins.live & Thresholds::kDrop) != 0 && below(salted(state, kSaltDrop), coins.drop)) {
    decision.drop = true;
    decision.drop_kind = FaultKind::kDrop;
    return decision;
  }
  if ((coins.live & Thresholds::kDuplicate) != 0 &&
      below(salted(state, kSaltDuplicate), coins.duplicate)) {
    decision.duplicate = true;
  }
  if ((coins.live & Thresholds::kDelay) != 0 && below(salted(state, kSaltDelay), coins.delay)) {
    const auto span =
        static_cast<std::uint64_t>(std::max<Round>(plan_.phases[p].delay.max_extra_rounds, 1));
    decision.delay_rounds = 1 + static_cast<Round>(salted(state, kSaltDelayLength) % span);
  }
  if ((coins.live & Thresholds::kCorrupt) != 0 &&
      below(salted(state, kSaltCorrupt), coins.corrupt)) {
    decision.corrupt = true;
  }
  return decision;
}

}  // namespace idonly
