#include "common/chaos.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "common/rng.hpp"

namespace idonly {

namespace {

void check_probability(double p, const char* what) {
  if (!(p >= 0.0 && p <= 1.0)) {
    throw std::invalid_argument(std::string("chaos plan: ") + what +
                                " probability must be in [0, 1]");
  }
}

bool in_set(const std::vector<NodeId>& set, NodeId id) noexcept {
  return std::find(set.begin(), set.end(), id) != set.end();
}

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
    phase_thresholds_.emplace_back(phase.drop, phase.duplicate, phase.delay.probability,
                                   phase.corrupt);
    std::vector<Thresholds>& links = link_thresholds_.emplace_back();
    for (const LinkFaultSpec& link : phase.link_faults) {
      links.emplace_back(link.drop, link.duplicate, link.delay, 0.0);
    }
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
// field is fold()ed into a splitmix64 state by an advance and an xor, and
// only the result is mixed. (So keys whose small xors cancel across the
// advances share a word; every recorded verdict depends on these exact
// bits.) The fold is split in the three key stages, where the engines'
// loops split: (seed, round, from) per sender run, `to` per link, then
// `seq` and the salt per message; word()/coin() are the same fold in one go.
std::uint64_t ChaosSchedule::word(std::uint64_t seed, const LinkEvent& event,
                                  std::uint64_t salt) noexcept {
  const std::uint64_t prefix =
      fold(fold(seed, static_cast<std::uint64_t>(event.round)), event.from);
  return salted(fold(fold(prefix, event.to), event.seq), salt);
}

double ChaosSchedule::coin(std::uint64_t seed, const LinkEvent& event,
                           std::uint64_t salt) noexcept {
  return static_cast<double>(word(seed, event, salt) >> 11) * 0x1.0p-53;
}

ChaosSchedule::Thresholds::Thresholds(double drop_p, double duplicate_p, double delay_p,
                                      double corrupt_p) noexcept
    : drop(threshold(drop_p)),
      duplicate(threshold(duplicate_p)),
      delay(threshold(delay_p)),
      corrupt(threshold(corrupt_p)) {
  live = static_cast<std::uint8_t>((drop != 0 ? kDrop : 0) | (duplicate != 0 ? kDuplicate : 0) |
                                   (delay != 0 ? kDelay : 0) | (corrupt != 0 ? kCorrupt : 0));
}

std::uint64_t ChaosSchedule::threshold(double p) noexcept {
  // p * 2^53 is exact (a power-of-two scale), and the integer x = w >> 11
  // satisfies x * 2^-53 < p exactly when x < ceil(p * 2^53).
  return static_cast<std::uint64_t>(std::ceil(p * 0x1.0p53));
}

ChaosSchedule::SenderKey ChaosSchedule::sender_key(Round round, NodeId from,
                                                   std::optional<std::size_t> phase) const noexcept {
  return SenderKey{fold(fold(seed_, static_cast<std::uint64_t>(round)), from), round, from,
                   phase.has_value() ? static_cast<int>(*phase) : -1};
}

ChaosSchedule::LinkKey ChaosSchedule::link_key(const SenderKey& sender, NodeId to) const noexcept {
  LinkKey link{fold(sender.prefix, to), to, LinkKey::Rule::kClean, FaultKind::kDrop};
  if (sender.from == to || sender.phase < 0) return link;  // loopback is never wire
  const ChaosPhase& phase = plan_.phases[static_cast<std::size_t>(sender.phase)];
  // Deterministic structural faults first: a crashed endpoint or a cut
  // partition kills every send on the link, no coin spent.
  for (const CrashWindow& crash : phase.crashes) {
    if ((crash.node == sender.from || crash.node == to) && sender.round >= crash.first &&
        sender.round <= crash.last) {
      link.rule = LinkKey::Rule::kCut;
      link.cut = FaultKind::kCrashDrop;
      return link;
    }
  }
  for (const ChaosPartition& partition : phase.partitions) {
    if (partition_cuts(partition, sender.from, to)) {
      link.rule = LinkKey::Rule::kCut;
      link.cut = FaultKind::kPartitionDrop;
      return link;
    }
  }
  const bool named = std::any_of(
      phase.link_faults.begin(), phase.link_faults.end(),
      [&](const LinkFaultSpec& spec) { return spec.from == sender.from && spec.to == to; });
  link.rule = named ? LinkKey::Rule::kNamed : LinkKey::Rule::kCoins;
  return link;
}

ChaosSchedule::Thresholds ChaosSchedule::named_coins(const SenderKey& sender,
                                                     const LinkKey& link,
                                                     std::uint64_t state) const noexcept {
  // Per-link asymmetric faults stack on top of the phase-wide ones; the
  // link coins draw from separate salts so both can be active at once. A
  // link coin that fires makes its phase coin certain.
  constexpr std::uint64_t kCertain = std::uint64_t{1} << 53;
  const auto p = static_cast<std::size_t>(sender.phase);
  Thresholds coins = phase_thresholds_[p];
  const std::vector<LinkFaultSpec>& specs = plan_.phases[p].link_faults;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    if (specs[i].from != sender.from || specs[i].to != link.to) continue;
    const Thresholds& named = link_thresholds_[p][i];
    if ((named.live & Thresholds::kDrop) != 0 &&
        below(salted(state, kSaltLinkDrop), named.drop)) {
      coins.drop = kCertain;
      coins.live |= Thresholds::kDrop;
    }
    if ((named.live & Thresholds::kDuplicate) != 0 &&
        below(salted(state, kSaltLinkDuplicate), named.duplicate)) {
      coins.duplicate = kCertain;
      coins.live |= Thresholds::kDuplicate;
    }
    if ((named.live & Thresholds::kDelay) != 0 &&
        below(salted(state, kSaltLinkDelay), named.delay)) {
      coins.delay = kCertain;
      coins.live |= Thresholds::kDelay;
    }
  }
  return coins;
}

FaultDecision ChaosSchedule::peek(const LinkEvent& event) const noexcept {
  return peek(sender_key(event.round, event.from, phase_for(event.round)), event.to, event.seq);
}

FaultDecision ChaosSchedule::peek(const SenderKey& key, NodeId to,
                                  std::uint64_t seq) const noexcept {
  const LinkKey link = link_key(key, to);
  FaultDecision decision = verdict(key, link, seq);
  if (link.rule != LinkKey::Rule::kClean) {
    decision.entropy = salted(fold(link.state, seq), kSaltEntropy);
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
