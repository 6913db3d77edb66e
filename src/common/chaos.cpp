#include "common/chaos.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "common/rng.hpp"

namespace idonly {

namespace {

// Fault-type salts: each verdict draws from an independent pure stream so
// e.g. raising the drop probability never perturbs delay lengths.
constexpr std::uint64_t kSaltDrop = 0;
constexpr std::uint64_t kSaltDuplicate = 1;
constexpr std::uint64_t kSaltDelay = 2;
constexpr std::uint64_t kSaltDelayLength = 3;
constexpr std::uint64_t kSaltCorrupt = 4;
constexpr std::uint64_t kSaltEntropy = 5;
constexpr std::uint64_t kSaltLinkDrop = 6;
constexpr std::uint64_t kSaltLinkDuplicate = 7;
constexpr std::uint64_t kSaltLinkDelay = 8;

void check_probability(double p, const char* what) {
  if (!(p >= 0.0 && p <= 1.0)) {
    throw std::invalid_argument(std::string("chaos plan: ") + what +
                                " probability must be in [0, 1]");
  }
}

bool in_set(const std::vector<NodeId>& set, NodeId id) noexcept {
  return std::find(set.begin(), set.end(), id) != set.end();
}

/// The verdict hash, folded in three steps: (seed, round, from) once per
/// sender run, (to, seq) once per link, then the salt once per draw.
std::uint64_t sender_prefix(std::uint64_t seed, Round round, NodeId from) noexcept {
  std::uint64_t state = seed;
  (void)splitmix64(state);
  state ^= static_cast<std::uint64_t>(round);
  (void)splitmix64(state);
  return state ^ from;
}

std::uint64_t link_state(std::uint64_t prefix, NodeId to, std::uint64_t seq) noexcept {
  std::uint64_t state = prefix;
  (void)splitmix64(state);
  state ^= to;
  (void)splitmix64(state);
  state ^= seq;
  (void)splitmix64(state);
  return state;
}

std::uint64_t salted(std::uint64_t link, std::uint64_t salt) noexcept {
  std::uint64_t state = link ^ salt;
  return splitmix64(state);
}

/// Uniform double in [0, 1) from a verdict word.
double to_unit(std::uint64_t word) noexcept { return static_cast<double>(word >> 11) * 0x1.0p-53; }

bool partition_cuts(const ChaosPartition& partition, NodeId from, NodeId to) noexcept {
  return (in_set(partition.side_a, from) && in_set(partition.side_b, to)) ||
         (in_set(partition.side_b, from) && in_set(partition.side_a, to));
}

}  // namespace

ChaosSchedule::ChaosSchedule(ChaosPlan plan, std::uint64_t seed)
    : plan_(std::move(plan)), seed_(seed) {
  for (const ChaosPhase& phase : plan_.phases) {
    if (phase.first_round > phase.last_round) {
      throw std::invalid_argument("chaos plan: phase round window is empty (first > last)");
    }
    if (phase.first_round < 1) {
      throw std::invalid_argument("chaos plan: rounds are 1-based");
    }
    check_probability(phase.drop, "drop");
    check_probability(phase.duplicate, "duplicate");
    check_probability(phase.corrupt, "corrupt");
    check_probability(phase.delay.probability, "delay");
    if (phase.delay.probability > 0.0 && phase.delay.max_extra_rounds < 1) {
      throw std::invalid_argument("chaos plan: delay max_extra_rounds must be >= 1");
    }
    for (const LinkFaultSpec& link : phase.link_faults) {
      check_probability(link.drop, "link drop");
      check_probability(link.duplicate, "link duplicate");
      check_probability(link.delay, "link delay");
    }
    for (const CrashWindow& crash : phase.crashes) {
      if (crash.first > crash.last) {
        throw std::invalid_argument("chaos plan: crash window is empty (first > last)");
      }
    }
    last_faulty_round_ = std::max(last_faulty_round_, phase.last_round);
  }
  per_phase_.resize(plan_.phases.size());
}

std::optional<std::size_t> ChaosSchedule::phase_for(Round round) const noexcept {
  std::optional<std::size_t> hit;
  for (std::size_t i = 0; i < plan_.phases.size(); ++i) {
    if (round >= plan_.phases[i].first_round && round <= plan_.phases[i].last_round) hit = i;
  }
  return hit;
}

// Every verdict word hash-combines (seed, round, from, to, seq, salt): each
// field is folded into a splitmix64 state by an advance and an xor, and only
// the result is mixed. (So keys whose small xors cancel across the advances
// share a word; every recorded verdict depends on these exact bits.) The
// fold is split where the engines' loops split — per sender run, per link,
// per salt — and word()/coin() are the same fold in one go.
std::uint64_t ChaosSchedule::word(std::uint64_t seed, const LinkEvent& event,
                                  std::uint64_t salt) noexcept {
  return salted(link_state(sender_prefix(seed, event.round, event.from), event.to, event.seq),
                salt);
}

double ChaosSchedule::coin(std::uint64_t seed, const LinkEvent& event,
                           std::uint64_t salt) noexcept {
  return to_unit(word(seed, event, salt));
}

ChaosSchedule::SenderKey ChaosSchedule::sender_key(Round round, NodeId from,
                                                   std::optional<std::size_t> phase) const noexcept {
  return SenderKey{sender_prefix(seed_, round, from), round, from,
                   phase.has_value() ? static_cast<int>(*phase) : -1};
}

FaultDecision ChaosSchedule::peek(const LinkEvent& event) const noexcept {
  if (event.from == event.to) return {};
  return peek(sender_key(event.round, event.from, phase_for(event.round)), event.to, event.seq);
}

FaultDecision ChaosSchedule::peek(const SenderKey& key, NodeId to,
                                  std::uint64_t seq) const noexcept {
  FaultDecision decision;
  if (key.from == to) return decision;  // loopback is never wire
  if (key.phase < 0) return decision;
  const ChaosPhase& phase = plan_.phases[static_cast<std::size_t>(key.phase)];
  const std::uint64_t link = link_state(key.prefix, to, seq);
  const auto coin_at = [link](std::uint64_t salt) { return to_unit(salted(link, salt)); };
  decision.phase = key.phase;
  decision.entropy = salted(link, kSaltEntropy);

  // Deterministic structural faults first: a crashed endpoint or a cut
  // partition kills the frame outright, no coin spent.
  for (const CrashWindow& crash : phase.crashes) {
    if ((crash.node == key.from || crash.node == to) && key.round >= crash.first &&
        key.round <= crash.last) {
      decision.drop = true;
      decision.drop_kind = FaultKind::kCrashDrop;
      return decision;
    }
  }
  for (const ChaosPartition& partition : phase.partitions) {
    if (partition_cuts(partition, key.from, to)) {
      decision.drop = true;
      decision.drop_kind = FaultKind::kPartitionDrop;
      return decision;
    }
  }

  // Per-link asymmetric faults stack on top of the phase-wide ones; the
  // link coins draw from separate salts so both can be active at once.
  double drop_p = phase.drop;
  double duplicate_p = phase.duplicate;
  double delay_p = phase.delay.probability;
  for (const LinkFaultSpec& spec : phase.link_faults) {
    if (spec.from != key.from || spec.to != to) continue;
    if (spec.drop > 0.0 && coin_at(kSaltLinkDrop) < spec.drop) drop_p = 1.0;
    if (spec.duplicate > 0.0 && coin_at(kSaltLinkDuplicate) < spec.duplicate) duplicate_p = 1.0;
    if (spec.delay > 0.0 && coin_at(kSaltLinkDelay) < spec.delay) delay_p = 1.0;
  }

  if (drop_p > 0.0 && coin_at(kSaltDrop) < drop_p) {
    decision.drop = true;
    decision.drop_kind = FaultKind::kDrop;
    return decision;
  }
  if (duplicate_p > 0.0 && coin_at(kSaltDuplicate) < duplicate_p) {
    decision.duplicate = true;
  }
  if (delay_p > 0.0 && coin_at(kSaltDelay) < delay_p) {
    const auto span = static_cast<std::uint64_t>(std::max<Round>(phase.delay.max_extra_rounds, 1));
    decision.delay_rounds = 1 + static_cast<Round>(salted(link, kSaltDelayLength) % span);
  }
  if (phase.corrupt > 0.0 && coin_at(kSaltCorrupt) < phase.corrupt) {
    decision.corrupt = true;
  }
  return decision;
}

FaultDecision ChaosSchedule::decide(const LinkEvent& event) {
  const FaultDecision decision = peek(event);
  commit(decision);
  return decision;
}

void ChaosSchedule::commit(const FaultDecision& verdict) {
  if (!verdict.faulted()) return;
  std::scoped_lock lock(mutex_);
  count_locked(verdict);
}

void ChaosSchedule::commit_batch(std::span<const FaultDecision> staged) {
  if (staged.empty()) return;
  std::scoped_lock lock(mutex_);
  for (const FaultDecision& verdict : staged) count_locked(verdict);
}

void ChaosSchedule::count_locked(const FaultDecision& verdict) {
  // A drop (crash, partition or coin) ends the verdict; otherwise duplicate,
  // delay and corrupt each count once.
  if (!verdict.faulted()) return;
  FaultCounters& counters = per_phase_[static_cast<std::size_t>(verdict.phase)];
  if (verdict.drop) {
    switch (verdict.drop_kind) {
      case FaultKind::kDrop: counters.drops += 1; break;
      case FaultKind::kPartitionDrop: counters.partition_drops += 1; break;
      case FaultKind::kCrashDrop: counters.crash_drops += 1; break;
    }
    return;
  }
  if (verdict.duplicate) counters.duplicates += 1;
  if (verdict.delay_rounds > 0) counters.delays += 1;
  if (verdict.corrupt) counters.corrupts += 1;
}

ChaosCounters ChaosSchedule::counters() const {
  std::scoped_lock lock(mutex_);
  ChaosCounters out;
  out.per_phase = per_phase_;
  return out;
}

}  // namespace idonly
