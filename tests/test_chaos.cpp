// Deterministic chaos engine: plan validation, pure-function verdicts, and
// the cross-engine reproducibility contract — ONE schedule replays the SAME
// verdicts on the sync simulator and the runtime's RoundDriver, because
// every verdict is a pure function of (seed, LinkEvent) and the engines only
// differ in how they derive the key. A run's verdicts are compared through
// a flight recorder's canonical export plus the schedule's per-phase
// counters, and the two engines' deliveries inbox by inbox.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <stdexcept>
#include <string>
#include <variant>
#include <vector>

#include "common/chaos.hpp"
#include "common/invariants.hpp"
#include "common/trace.hpp"
#include "core/consensus.hpp"
#include "core/reliable_broadcast.hpp"
#include "harness/script.hpp"
#include "net/sync_simulator.hpp"
#include "runtime/inmemory_transport.hpp"
#include "runtime/round_driver.hpp"
#include "wire_frames.hpp"

namespace idonly {
namespace {

ChaosPhase phase_window(Round first, Round last) {
  ChaosPhase phase;
  phase.first_round = first;
  phase.last_round = last;
  return phase;
}

// ------------------------------------------------------------- validation --

TEST(ChaosPlan_, RejectsOutOfRangeProbabilities) {
  for (double bad : {-0.1, 1.5}) {
    ChaosPhase phase = phase_window(1, 5);
    phase.drop = bad;
    EXPECT_THROW(ChaosSchedule(ChaosPlan{{phase}}, 1), std::invalid_argument);
    phase = phase_window(1, 5);
    phase.duplicate = bad;
    EXPECT_THROW(ChaosSchedule(ChaosPlan{{phase}}, 1), std::invalid_argument);
    phase = phase_window(1, 5);
    phase.corrupt = bad;
    EXPECT_THROW(ChaosSchedule(ChaosPlan{{phase}}, 1), std::invalid_argument);
    phase = phase_window(1, 5);
    phase.delay.probability = bad;
    EXPECT_THROW(ChaosSchedule(ChaosPlan{{phase}}, 1), std::invalid_argument);
    phase = phase_window(1, 5);
    phase.link_faults.push_back(LinkFaultSpec{1, 2, bad, 0.0, 0.0});
    EXPECT_THROW(ChaosSchedule(ChaosPlan{{phase}}, 1), std::invalid_argument);
  }
}

TEST(ChaosPlan_, RejectsEmptyWindowsAndBadDelaySpan) {
  EXPECT_THROW(ChaosSchedule(ChaosPlan{{phase_window(4, 2)}}, 1), std::invalid_argument);
  EXPECT_THROW(ChaosSchedule(ChaosPlan{{phase_window(0, 2)}}, 1), std::invalid_argument);

  ChaosPhase phase = phase_window(1, 5);
  phase.delay = DelaySpec{0.5, 0};
  EXPECT_THROW(ChaosSchedule(ChaosPlan{{phase}}, 1), std::invalid_argument);

  phase = phase_window(1, 5);
  phase.crashes.push_back(CrashWindow{7, 4, 2});
  EXPECT_THROW(ChaosSchedule(ChaosPlan{{phase}}, 1), std::invalid_argument);

  // A fully loaded valid plan constructs fine.
  phase = phase_window(2, 9);
  phase.drop = 1.0;
  phase.delay = DelaySpec{0.3, 4};
  phase.partitions.push_back(ChaosPartition{{1}, {2}});
  phase.crashes.push_back(CrashWindow{7, 2, 4});
  EXPECT_NO_THROW(ChaosSchedule(ChaosPlan{{phase}}, 1));
}

// ------------------------------------------------------------ pure coins --

TEST(ChaosCoin, DeterministicInRangeAndSaltSeparated) {
  const LinkEvent event{5, 11, 22, 1};
  const double first = ChaosSchedule::coin(42, event, 0);
  EXPECT_EQ(first, ChaosSchedule::coin(42, event, 0)) << "same key, same coin";
  EXPECT_GE(first, 0.0);
  EXPECT_LT(first, 1.0);
  // Independent streams: changing any key component lands elsewhere.
  EXPECT_NE(ChaosSchedule::word(42, event, 0), ChaosSchedule::word(42, event, 1));
  EXPECT_NE(ChaosSchedule::word(42, event, 0), ChaosSchedule::word(43, event, 0));
  EXPECT_NE(ChaosSchedule::word(42, event, 0),
            ChaosSchedule::word(42, LinkEvent{5, 11, 22, 2}, 0));
}

TEST(ChaosSchedule_, VerdictsArePureAcrossInstances) {
  ChaosPhase phase = phase_window(1, 30);
  phase.drop = 0.2;
  phase.duplicate = 0.2;
  phase.corrupt = 0.1;
  phase.delay = DelaySpec{0.2, 3};
  ChaosSchedule a(ChaosPlan{{phase}}, 7);
  ChaosSchedule b(ChaosPlan{{phase}}, 7);
  TraceRecorder trace_a(TraceEngine::kSync);
  TraceRecorder trace_b(TraceEngine::kSync);
  for (Round r = 1; r <= 30; ++r) {
    for (NodeId from : {1u, 2u, 3u}) {
      for (NodeId to : {1u, 2u, 3u}) {
        for (std::uint64_t seq = 0; seq < 2; ++seq) {
          const LinkEvent event{r, from, to, seq};
          const auto va = a.decide(event);
          const auto vb = b.decide(event);
          EXPECT_EQ(va.drop, vb.drop);
          EXPECT_EQ(va.duplicate, vb.duplicate);
          EXPECT_EQ(va.corrupt, vb.corrupt);
          EXPECT_EQ(va.delay_rounds, vb.delay_rounds);
          trace_a.record_link_verdict(event, va);
          trace_b.record_link_verdict(event, vb);
        }
      }
    }
  }
  EXPECT_EQ(trace_a.canonical_jsonl(), trace_b.canonical_jsonl());
  EXPECT_EQ(a.counters().summary(), b.counters().summary());
  EXPECT_GT(a.counters().total_faults().total(), 0u);

  ChaosSchedule other_seed(ChaosPlan{{phase}}, 8);
  TraceRecorder trace_other(TraceEngine::kSync);
  for (Round r = 1; r <= 30; ++r) {
    for (NodeId from : {1u, 2u, 3u}) {
      for (NodeId to : {1u, 2u, 3u}) {
        for (std::uint64_t seq = 0; seq < 2; ++seq) {
          const LinkEvent event{r, from, to, seq};
          trace_other.record_link_verdict(event, other_seed.decide(event));
        }
      }
    }
  }
  EXPECT_NE(trace_a.canonical_jsonl(), trace_other.canonical_jsonl())
      << "a different seed must produce a different fault pattern";
}

TEST(ChaosSchedule_, VerdictBitsArePinned) {
  // Verdicts are part of every chaos trace, so their bits must not move when
  // the hashing is restructured: entropy word, drop, duplicate, delay length
  // and corrupt for 64 fixed events of one plan (every eighth event crosses
  // the per-link fault 3 -> 7).
  ChaosPhase phase = phase_window(1, 20);
  phase.drop = 0.1;
  phase.duplicate = 0.2;
  phase.corrupt = 0.15;
  phase.delay = DelaySpec{0.25, 5};
  phase.link_faults.push_back(
      LinkFaultSpec{.from = 3, .to = 7, .drop = 0.3, .duplicate = 0.4, .delay = 0.5});
  const ChaosSchedule schedule(ChaosPlan{{phase}}, 0x5eed);
  struct Pinned {
    std::uint64_t entropy;
    int drop;
    int duplicate;
    int delay_rounds;
    int corrupt;
  };
  const Pinned pinned[64] = {
      {0x23664d9d46412eb4ULL, 0, 1, 0, 0},
      {0x85f50c62855291b4ULL, 0, 0, 0, 0},
      {0x4fd41118bbbc8771ULL, 0, 1, 1, 1},
      {0x15785611dff75dd6ULL, 0, 0, 0, 0},
      {0xfab36b263ffdd9fcULL, 0, 0, 0, 1},
      {0x67ed3f04339f7326ULL, 0, 0, 0, 0},
      {0x9b234a8214b32ad2ULL, 0, 0, 0, 0},
      {0x3c490215a408558dULL, 0, 0, 0, 0},
      {0x80e6d9be5374194dULL, 0, 1, 3, 0},
      {0x38da41c7901ca098ULL, 0, 0, 0, 0},
      {0x6aba5863555556aaULL, 1, 0, 0, 0},
      {0xb1fa4e602a9925e3ULL, 0, 0, 0, 1},
      {0x044ed6a0fa66f206ULL, 0, 0, 0, 0},
      {0xe66ed7f2615c0541ULL, 0, 0, 0, 0},
      {0x55f06d71e671ce63ULL, 0, 0, 3, 0},
      {0x45e9581e07d5b9bfULL, 0, 0, 0, 0},
      {0xcf40fbd81e10ef9cULL, 0, 0, 0, 0},
      {0xb5b5ba1b96bc6d42ULL, 0, 0, 2, 0},
      {0xd9dde7bbac4988dfULL, 0, 0, 3, 0},
      {0xf2840215c0f2ee2cULL, 0, 0, 1, 0},
      {0x36da7f348aef8564ULL, 0, 0, 0, 0},
      {0x7a19ce50c1b6f80fULL, 0, 0, 0, 0},
      {0x8820214181696c15ULL, 0, 0, 0, 1},
      {0x55f06d71e671ce63ULL, 0, 0, 3, 0},
      {0xa63a8a117434e8e7ULL, 0, 0, 0, 0},
      {0x62ad139168091069ULL, 0, 0, 0, 0},
      {0x1e193774eff9bf35ULL, 1, 0, 0, 0},
      {0x9aee8eb83be914bfULL, 0, 0, 0, 0},
      {0x2e756216d016b2d1ULL, 0, 0, 0, 1},
      {0xe186f987c238917cULL, 0, 1, 0, 0},
      {0x8ff70108ffd1196eULL, 0, 0, 2, 0},
      {0x49f07cf69789303eULL, 0, 0, 3, 0},
      {0xadb43f9508c80725ULL, 0, 1, 0, 0},
      {0x9db94b8fba6b6463ULL, 0, 0, 0, 0},
      {0x67a77594b67664abULL, 1, 0, 0, 0},
      {0x9d6bb40a57389eefULL, 0, 0, 0, 0},
      {0x219cee2e8e6fc6c9ULL, 1, 0, 0, 0},
      {0x36eae9d9eb194016ULL, 0, 0, 0, 0},
      {0x219cee2e8e6fc6c9ULL, 1, 0, 0, 0},
      {0x402f3728c0781d5dULL, 0, 0, 0, 0},
      {0xf86cbb97522bd518ULL, 1, 0, 0, 0},
      {0xc98c52abf1f12a47ULL, 0, 1, 0, 1},
      {0x4fd41118bbbc8771ULL, 0, 1, 1, 1},
      {0xcc3b4a0601fb1bf0ULL, 0, 0, 0, 1},
      {0x9a0e59371859e0f8ULL, 0, 0, 0, 0},
      {0xefe9df75146400f1ULL, 0, 1, 0, 0},
      {0x9f47437a8a34dcc1ULL, 0, 0, 0, 0},
      {0x8cf87c0dd178b453ULL, 0, 0, 1, 0},
      {0xac8041c1d5e8c039ULL, 1, 0, 0, 0},
      {0x883377d87b8e8b6fULL, 0, 0, 0, 0},
      {0x6aba5863555556aaULL, 1, 0, 0, 0},
      {0xf45ed1ae2ae634f4ULL, 0, 0, 5, 0},
      {0xf0981e93c6f18c16ULL, 0, 1, 0, 0},
      {0xb1fa4e602a9925e3ULL, 0, 0, 0, 1},
      {0x7b673e0a926bc202ULL, 0, 0, 0, 1},
      {0x45e9581e07d5b9bfULL, 0, 0, 0, 0},
      {0x6aba5863555556aaULL, 0, 0, 1, 1},
      {0xb5b5ba1b96bc6d42ULL, 0, 0, 2, 0},
      {0xd9dde7bbac4988dfULL, 0, 0, 3, 0},
      {0xb5b5ba1b96bc6d42ULL, 0, 0, 2, 0},
      {0x3f3e56b921cbd8a2ULL, 0, 0, 0, 0},
      {0xdb4f4cf2d689a2beULL, 0, 1, 0, 0},
      {0xeda86d3807a865caULL, 0, 0, 2, 0},
      {0xabaaf97b2fff518cULL, 0, 1, 0, 0},
  };
  for (std::uint64_t i = 0; i < 64; ++i) {
    const bool link = i % 8 == 2;
    const LinkEvent event{static_cast<Round>(1 + (i * 7) % 20),
                          static_cast<NodeId>(link ? 3 : 10 + (i * 37) % 200),
                          static_cast<NodeId>(link ? 7 : 10 + (i * 53 + 11) % 200), i % 5};
    const FaultDecision verdict = schedule.peek(event);
    EXPECT_EQ(verdict.entropy, pinned[i].entropy) << i;
    EXPECT_EQ(verdict.drop, pinned[i].drop != 0) << i;
    EXPECT_EQ(verdict.duplicate, pinned[i].duplicate != 0) << i;
    EXPECT_EQ(verdict.delay_rounds, pinned[i].delay_rounds) << i;
    EXPECT_EQ(verdict.corrupt, pinned[i].corrupt != 0) << i;
  }
}

const std::vector<NodeId> kAllRulesIds = {2, 5, 9, 14, 20, 27};

/// Three phases over rounds 1-10 (none covers 11 and 12), each with random
/// drop, duplicate, corrupt and delay probabilities and six random link
/// specs over kAllRulesIds (self-links included); a partition in the second
/// phase and a crash window in the third.
ChaosPlan all_rules_plan(std::mt19937_64& rng) {
  const auto draw = [&] { return std::uniform_real_distribution<double>(0, 0.5)(rng); };
  const std::vector<NodeId>& ids = kAllRulesIds;
  ChaosPlan plan;
  for (Round first : {1, 4, 7}) {
    ChaosPhase phase = phase_window(first, first + 3);
    phase.drop = draw();
    phase.duplicate = draw();
    phase.corrupt = draw();
    phase.delay = DelaySpec{draw(), 1 + static_cast<Round>(rng() % 4)};
    for (int k = 0; k < 6; ++k) {
      phase.link_faults.push_back(LinkFaultSpec{.from = ids[rng() % ids.size()],
                                                .to = ids[rng() % ids.size()],
                                                .drop = draw(),
                                                .duplicate = draw(),
                                                .delay = draw()});
    }
    if (first == 4) phase.partitions.push_back(ChaosPartition{{2, 5}, {20, 27}});
    if (first == 7) phase.crashes.push_back(CrashWindow{9, 8, 9});
    plan.phases.push_back(phase);
  }
  return plan;
}

TEST(ChaosSchedule_, SenderKeyedVerdictsEqualPeekOnEveryLink) {
  // The merge keys each verdict hash once per sender run; peek(LinkEvent)
  // must be the same function on every link of a plan that uses every rule.
  std::mt19937_64 rng(0xC4A05);
  const std::vector<NodeId>& ids = kAllRulesIds;
  const ChaosPlan plan = all_rules_plan(rng);
  const ChaosSchedule schedule(plan, rng());
  std::size_t faulted = 0;
  for (Round round = 1; round <= 12; ++round) {
    const auto phase = schedule.phase_for(round);
    for (NodeId from : ids) {
      const ChaosSchedule::SenderKey key = schedule.sender_key(round, from, phase);
      for (NodeId to : ids) {
        for (std::uint64_t seq = 0; seq < 3; ++seq) {
          const FaultDecision keyed = schedule.peek(key, to, seq);
          const FaultDecision plain = schedule.peek(LinkEvent{round, from, to, seq});
          const std::string where = std::to_string(round) + " " + std::to_string(from) + "->" +
                                    std::to_string(to) + " #" + std::to_string(seq);
          EXPECT_EQ(keyed.drop, plain.drop) << where;
          EXPECT_EQ(keyed.drop_kind, plain.drop_kind) << where;
          EXPECT_EQ(keyed.duplicate, plain.duplicate) << where;
          EXPECT_EQ(keyed.corrupt, plain.corrupt) << where;
          EXPECT_EQ(keyed.delay_rounds, plain.delay_rounds) << where;
          EXPECT_EQ(keyed.phase, plain.phase) << where;
          EXPECT_EQ(keyed.entropy, plain.entropy) << where;
          if (plain.phase >= 0 && from != to) {
            EXPECT_EQ(plain.entropy, ChaosSchedule::word(schedule.seed(),
                                                         LinkEvent{round, from, to, seq}, 5))
                << where << ": entropy is the salt-5 word";
          }
          faulted += plain.faulted() ? 1 : 0;
        }
      }
    }
  }
  EXPECT_GT(faulted, 100u);
}

/// The verdict as ChaosPhase documents it, on the double coins: crash, then
/// partition, then the link specs' coins, then drop, duplicate, delay (and
/// its length) and corrupt, each coin drawn only when its probability is
/// not 0. Salts: drop 0, duplicate 1, delay 2, delay length 3, corrupt 4,
/// link drop 6, link duplicate 7, link delay 8.
FaultDecision reference_verdict(const ChaosSchedule& schedule, const LinkEvent& event) {
  FaultDecision decision;
  const auto index = schedule.phase_for(event.round);
  if (event.from == event.to || !index.has_value()) return decision;
  const ChaosPhase& phase = schedule.plan().phases[*index];
  const auto coin = [&](std::uint64_t salt) {
    return ChaosSchedule::coin(schedule.seed(), event, salt);
  };
  const auto in = [](const std::vector<NodeId>& side, NodeId id) {
    return std::find(side.begin(), side.end(), id) != side.end();
  };
  decision.phase = static_cast<int>(*index);
  for (const CrashWindow& crash : phase.crashes) {
    if ((crash.node == event.from || crash.node == event.to) && event.round >= crash.first &&
        event.round <= crash.last) {
      decision.drop = true;
      decision.drop_kind = FaultKind::kCrashDrop;
      return decision;
    }
  }
  for (const ChaosPartition& cut : phase.partitions) {
    if ((in(cut.side_a, event.from) && in(cut.side_b, event.to)) ||
        (in(cut.side_b, event.from) && in(cut.side_a, event.to))) {
      decision.drop = true;
      decision.drop_kind = FaultKind::kPartitionDrop;
      return decision;
    }
  }
  double drop = phase.drop;
  double duplicate = phase.duplicate;
  double delay = phase.delay.probability;
  for (const LinkFaultSpec& spec : phase.link_faults) {
    if (spec.from != event.from || spec.to != event.to) continue;
    if (spec.drop > 0 && coin(6) < spec.drop) drop = 1;
    if (spec.duplicate > 0 && coin(7) < spec.duplicate) duplicate = 1;
    if (spec.delay > 0 && coin(8) < spec.delay) delay = 1;
  }
  if (drop > 0 && coin(0) < drop) {
    decision.drop = true;
    return decision;
  }
  decision.duplicate = duplicate > 0 && coin(1) < duplicate;
  if (delay > 0 && coin(2) < delay) {
    const auto span = static_cast<std::uint64_t>(std::max<Round>(phase.delay.max_extra_rounds, 1));
    decision.delay_rounds =
        1 + static_cast<Round>(ChaosSchedule::word(schedule.seed(), event, 3) % span);
  }
  decision.corrupt = phase.corrupt > 0 && coin(4) < phase.corrupt;
  return decision;
}

TEST(ChaosSchedule_, LinkKeyedVerdictsEqualPeekOnEveryLink) {
  // The engines key each link once per sender run and ask verdict() for each
  // send on it. On every link of the all-rules plan plus a drop-only phase
  // (self-links and rounds no phase covers included), that verdict must equal
  // peek(LinkEvent) in every field but entropy, which the engines never
  // read and verdict() leaves 0, and both must equal the documented verdict
  // on the double coins.
  std::mt19937_64 rng(0xC4A05);
  const std::vector<NodeId>& ids = kAllRulesIds;
  ChaosPlan plan = all_rules_plan(rng);
  ChaosPhase drop_only = phase_window(13, 14);
  drop_only.drop = 0.3;
  drop_only.link_faults.push_back(LinkFaultSpec{.from = 5, .to = 9, .duplicate = 0.5});
  plan.phases.push_back(drop_only);
  const ChaosSchedule schedule(plan, rng());
  std::size_t faulted = 0;
  for (Round round = 1; round <= 15; ++round) {
    const auto phase = schedule.phase_for(round);
    for (NodeId from : ids) {
      const ChaosSchedule::SenderKey sender = schedule.sender_key(round, from, phase);
      for (NodeId to : ids) {
        const ChaosSchedule::LinkKey link = schedule.link_key(sender, to);
        for (std::uint64_t seq = 0; seq < 3; ++seq) {
          const LinkEvent event{round, from, to, seq};
          const FaultDecision keyed = schedule.verdict(sender, link, seq);
          const FaultDecision plain = schedule.peek(event);
          const FaultDecision reference = reference_verdict(schedule, event);
          const std::string where = std::to_string(round) + " " + std::to_string(from) + "->" +
                                    std::to_string(to) + " #" + std::to_string(seq);
          for (const FaultDecision* other : {&plain, &reference}) {
            EXPECT_EQ(keyed.drop, other->drop) << where;
            EXPECT_EQ(keyed.drop_kind, other->drop_kind) << where;
            EXPECT_EQ(keyed.duplicate, other->duplicate) << where;
            EXPECT_EQ(keyed.corrupt, other->corrupt) << where;
            EXPECT_EQ(keyed.delay_rounds, other->delay_rounds) << where;
            EXPECT_EQ(keyed.phase, other->phase) << where;
          }
          EXPECT_EQ(keyed.entropy, 0u) << where;
          EXPECT_EQ(link.rule == ChaosSchedule::LinkKey::Rule::kClean,
                    from == to || !phase.has_value())
              << where;
          faulted += keyed.faulted() ? 1 : 0;
        }
      }
    }
  }
  EXPECT_GT(faulted, 100u);
}

TEST(ChaosSchedule_, IntegerThresholdsMatchUnitCoins) {
  // below(w, threshold(p)) must be the double coin (w >> 11) * 2^-53 < p
  // for every word: checked at the words whose top 53 bits sit at T - 1,
  // T and T + 1, and at random words.
  const auto unit = [](std::uint64_t w) { return static_cast<double>(w >> 11) * 0x1.0p-53; };
  constexpr std::uint64_t kTop = std::uint64_t{1} << 53;
  std::mt19937_64 rng(0x7E57);
  for (const double p : {0.0, 0x1.0p-53, 0.05, 1.0 / 3.0, 0.5, 1.0 - 0x1.0p-53, 1.0}) {
    const std::uint64_t t = ChaosSchedule::threshold(p);
    std::vector<std::uint64_t> words;
    for (const std::uint64_t top : {t - 1, t, t + 1}) {
      if (top >= kTop) continue;  // t - 1 wraps at p = 0; t + 1 passes 2^53 at p = 1
      words.push_back(top << 11);
      words.push_back((top << 11) | 0x7FF);
    }
    for (int k = 0; k < 1000; ++k) words.push_back(rng());
    for (const std::uint64_t w : words) {
      EXPECT_EQ(ChaosSchedule::below(w, t), unit(w) < p) << "p " << p << " word " << w;
    }
  }
  EXPECT_EQ(ChaosSchedule::threshold(0.0), 0u);
  EXPECT_EQ(ChaosSchedule::threshold(1.0), kTop);
}

TEST(ChaosSchedule_, SelfLinksAreNeverFaulted) {
  ChaosPhase phase = phase_window(1, 10);
  phase.drop = 1.0;
  ChaosSchedule chaos(ChaosPlan{{phase}}, 3);
  for (Round r = 1; r <= 10; ++r) {
    const auto verdict = chaos.decide(LinkEvent{r, 7, 7, 0});
    EXPECT_FALSE(verdict.drop) << "loopback is local memory, not wire";
  }
  EXPECT_EQ(chaos.counters().total_faults().total(), 0u);
}

TEST(ChaosSchedule_, PhaseWindowsApplyAndLaterPhasesWinOverlaps) {
  ChaosPhase dropper = phase_window(2, 3);
  dropper.drop = 1.0;
  ChaosPhase duper = phase_window(3, 4);
  duper.duplicate = 1.0;
  ChaosSchedule chaos(ChaosPlan{{dropper, duper}}, 5);
  EXPECT_EQ(chaos.last_faulty_round(), 4);
  EXPECT_FALSE(chaos.phase_for(1).has_value());
  EXPECT_EQ(chaos.phase_for(2), std::optional<std::size_t>(0));
  EXPECT_EQ(chaos.phase_for(3), std::optional<std::size_t>(1)) << "later phase wins";
  EXPECT_EQ(chaos.phase_for(4), std::optional<std::size_t>(1));

  EXPECT_FALSE(chaos.decide(LinkEvent{1, 1, 2, 0}).drop);
  EXPECT_TRUE(chaos.decide(LinkEvent{2, 1, 2, 0}).drop);
  const auto overlap = chaos.decide(LinkEvent{3, 1, 2, 0});
  EXPECT_FALSE(overlap.drop) << "round 3 runs phase 1, which never drops";
  EXPECT_TRUE(overlap.duplicate);
  EXPECT_TRUE(chaos.decide(LinkEvent{4, 1, 2, 0}).duplicate) << "phase 1 alone past round 3";
  EXPECT_FALSE(chaos.decide(LinkEvent{5, 1, 2, 0}).duplicate) << "quiet after last phase";

  const auto counters = chaos.counters();
  ASSERT_EQ(counters.per_phase.size(), 2u);
  EXPECT_EQ(counters.per_phase[0].drops, 1u);
  EXPECT_EQ(counters.per_phase[1].duplicates, 2u);
  EXPECT_EQ(counters.total_faults().total(), 3u);
}

TEST(ChaosSchedule_, PartitionCutsBothDirectionsAndSparesTheRest) {
  ChaosPhase phase = phase_window(1, 5);
  phase.partitions.push_back(ChaosPartition{{1, 2}, {3}});
  ChaosSchedule chaos(ChaosPlan{{phase}}, 9);
  EXPECT_TRUE(chaos.decide(LinkEvent{1, 1, 3, 0}).drop);
  EXPECT_TRUE(chaos.decide(LinkEvent{1, 3, 1, 0}).drop) << "bidirectional";
  EXPECT_TRUE(chaos.decide(LinkEvent{1, 2, 3, 0}).drop);
  EXPECT_FALSE(chaos.decide(LinkEvent{1, 1, 2, 0}).drop) << "intra-side traffic flows";
  EXPECT_FALSE(chaos.decide(LinkEvent{1, 4, 3, 0}).drop) << "bystander unaffected";
  EXPECT_FALSE(chaos.decide(LinkEvent{6, 1, 3, 0}).drop) << "healed after the phase";
  EXPECT_EQ(chaos.counters().per_phase[0].partition_drops, 3u);
}

TEST(ChaosSchedule_, CrashWindowSilencesEndpointThenRejoins) {
  ChaosPhase phase = phase_window(1, 10);
  phase.crashes.push_back(CrashWindow{5, 2, 3});
  ChaosSchedule chaos(ChaosPlan{{phase}}, 2);
  EXPECT_FALSE(chaos.decide(LinkEvent{1, 5, 1, 0}).drop) << "before the crash";
  EXPECT_TRUE(chaos.decide(LinkEvent{2, 5, 1, 0}).drop) << "crashed node sends nothing";
  EXPECT_TRUE(chaos.decide(LinkEvent{3, 1, 5, 0}).drop) << "crashed node receives nothing";
  EXPECT_FALSE(chaos.decide(LinkEvent{4, 5, 1, 0}).drop) << "rejoined";
  EXPECT_FALSE(chaos.decide(LinkEvent{2, 1, 2, 0}).drop) << "others keep talking";
  EXPECT_EQ(chaos.counters().per_phase[0].crash_drops, 2u);
}

TEST(ChaosSchedule_, LinkFaultsAreAsymmetric) {
  ChaosPhase phase = phase_window(1, 20);
  phase.link_faults.push_back(LinkFaultSpec{1, 2, /*drop=*/1.0, 0.0, 0.0});
  ChaosSchedule chaos(ChaosPlan{{phase}}, 4);
  for (Round r = 1; r <= 20; ++r) {
    EXPECT_TRUE(chaos.decide(LinkEvent{r, 1, 2, 0}).drop) << "faulted direction";
    EXPECT_FALSE(chaos.decide(LinkEvent{r, 2, 1, 0}).drop) << "reverse direction clean";
  }
}

// ------------------------------------------- cross-engine reproducibility --

// A process that broadcasts one message per round and ignores its inbox:
// with traffic independent of delivery, every engine generates the same
// logical link events and the traces must match byte for byte.
class ChatterProcess final : public Process {
 public:
  using Process::Process;
  void on_round(RoundInfo /*round*/, std::span<const Message> /*inbox*/,
                std::vector<Outgoing>& out) override {
    broadcast(out, Message{.kind = MsgKind::kPresent});
  }
};

/// Sends what the test scripts for each global round; records every inbox.
class RecordingProcess final : public Process {
 public:
  using Process::Process;
  void send_in_round(Round round, Outgoing out) { script_[round].push_back(std::move(out)); }
  void on_round(RoundInfo round, std::span<const Message> inbox,
                std::vector<Outgoing>& out) override {
    received[round.global].assign(inbox.begin(), inbox.end());
    if (const auto it = script_.find(round.global); it != script_.end()) {
      out.insert(out.end(), it->second.begin(), it->second.end());
    }
  }

  std::map<Round, std::vector<Message>> received;

 private:
  std::map<Round, std::vector<Outgoing>> script_;
};

Message valued(double v) { return Message{.kind = MsgKind::kPresent, .value = Value::real(v)}; }

TEST(ChaosCrossEngine, OneSeedOneTraceOnAllThreeEngines) {
  ChaosPhase phase = phase_window(2, 4);
  phase.drop = 0.25;
  phase.duplicate = 0.2;
  phase.corrupt = 0.15;
  phase.delay = DelaySpec{0.25, 2};
  const ChaosPlan plan{{phase}};
  const std::uint64_t seed = 99;
  const std::vector<NodeId> ids{10, 20, 30};
  constexpr Round kRounds = 6;

  // A run's verdicts: the recorder's canonical link records, then the
  // schedule's per-phase fault counters.
  const auto verdicts = [](const TraceRecorder& recorder, const ChaosSchedule& chaos) {
    return recorder.canonical_jsonl() + chaos.counters().summary();
  };

  // Sync engine: per-link verdicts through SyncSimulator::set_chaos.
  auto run_sync = [&] {
    auto chaos = std::make_shared<ChaosSchedule>(plan, seed);
    auto recorder = std::make_shared<TraceRecorder>(TraceEngine::kSync);
    SyncSimulator sim;
    sim.set_chaos(chaos);
    sim.set_trace_recorder(recorder);
    for (NodeId id : ids) sim.add_process(std::make_unique<ChatterProcess>(id));
    sim.run_rounds(kRounds);
    EXPECT_GT(chaos->counters().total_faults().total(), 0u)
        << "the plan must actually fire at these probabilities";
    return verdicts(*recorder, *chaos);
  };
  const std::string sync_trace = run_sync();
  EXPECT_EQ(sync_trace, run_sync()) << "repeated runs of one engine are byte-identical";

  // Runtime engine: each RoundDriver judges what it receives, keying the
  // link by the slab's round header and the codec sender.
  auto runtime_chaos = std::make_shared<ChaosSchedule>(plan, seed);
  auto runtime_trace = std::make_shared<TraceRecorder>(TraceEngine::kRuntime);
  InMemoryHub hub;
  std::vector<std::unique_ptr<Process>> chatter;
  for (NodeId id : ids) chatter.push_back(std::make_unique<ChatterProcess>(id));
  run_lock_step(hub, std::move(chatter), kRounds, runtime_chaos, runtime_trace);
  EXPECT_EQ(sync_trace, verdicts(*runtime_trace, *runtime_chaos));
}

/// Each (round, node) inbox as a sorted (sender, encoded message) list.
using InboxLog = std::map<std::pair<Round, NodeId>, std::vector<std::pair<NodeId, Frame>>>;

/// One logged inbox, readable.
std::string render(const std::vector<std::pair<NodeId, Frame>>& inbox) {
  std::string out;
  for (const auto& [sender, frame] : inbox) out += " " + decode(frame)->to_string();
  return out;
}

/// Runs `inner` and files every inbox it is handed into `log`.
class InboxLogger final : public Process {
 public:
  InboxLogger(std::unique_ptr<Process> inner, InboxLog* log)
      : Process(inner->id()), inner_(std::move(inner)), log_(log) {}
  void on_round(RoundInfo round, std::span<const Message> inbox,
                std::vector<Outgoing>& out) override {
    auto& logged = (*log_)[{round.global, id()}];
    for (const Message& msg : inbox) logged.emplace_back(msg.sender, encode(msg));
    std::sort(logged.begin(), logged.end());
    inner_->on_round(round, inbox, out);
  }
  [[nodiscard]] bool done() const override { return inner_->done(); }

 private:
  std::unique_ptr<Process> inner_;
  InboxLog* log_;
};

TEST(ChaosCrossEngine, DriverInboxesEqualSyncInboxesUnderDropDuplicateAndDelay) {
  // Protocols whose traffic feeds back on what was delivered: one delivery
  // that differs between engines changes later sends, so equal inboxes in
  // every round (and equal canonical traces) show that the driver applies
  // drop, duplicate and delay verdicts exactly as the sync engine does.
  ChaosPhase phase = phase_window(2, 6);
  phase.drop = 0.1;
  phase.duplicate = 0.3;
  phase.delay = DelaySpec{0.3, 2};
  const ChaosPlan plan{{phase}};
  const std::vector<NodeId> ids{3, 14, 15, 92, 65, 35, 89};
  constexpr Round kRounds = 14;

  struct Protocol {
    const char* name;
    std::function<std::unique_ptr<Process>(std::size_t)> make;
  };
  const std::vector<Protocol> protocols{
      {"rb-alg1",
       [&](std::size_t i) -> std::unique_ptr<Process> {
         return std::make_unique<ReliableBroadcastProcess>(
             ids[i], ids[0], i == 0 ? Value::real(42.0) : Value::bot(), RbBackendKind::kAlg1);
       }},
      {"rb-imbs",
       [&](std::size_t i) -> std::unique_ptr<Process> {
         return std::make_unique<ReliableBroadcastProcess>(
             ids[i], ids[0], i == 0 ? Value::real(42.0) : Value::bot(), RbBackendKind::kImbs);
       }},
      {"consensus",
       [&](std::size_t i) -> std::unique_ptr<Process> {
         return std::make_unique<ConsensusProcess>(ids[i],
                                                   Value::real(static_cast<double>(i % 2)));
       }},
  };
  for (const std::uint64_t seed : {17U, 18U, 19U}) {
    SCOPED_TRACE(seed);
    for (const Protocol& protocol : protocols) {
      SCOPED_TRACE(protocol.name);
      InboxLog sync_log;
      auto sync_chaos = std::make_shared<ChaosSchedule>(plan, seed);
      auto sync_trace = std::make_shared<TraceRecorder>(TraceEngine::kSync);
      SyncSimulator sim;
      sim.set_chaos(sync_chaos);
      sim.set_trace_recorder(sync_trace);
      for (std::size_t i = 0; i < ids.size(); ++i) {
        sim.add_process(std::make_unique<InboxLogger>(protocol.make(i), &sync_log));
      }
      sim.run_rounds(kRounds);
      const FaultCounters fired = sync_chaos->counters().total_faults();
      EXPECT_GT(fired.drops, 0u);
      EXPECT_GT(fired.duplicates, 0u);
      EXPECT_GT(fired.delays, 0u);
      const auto records = sync_trace->canonical();
      EXPECT_TRUE(std::any_of(records.begin(), records.end(), [](const TraceRecord& rec) {
        return rec.kind == TraceEventKind::kLinkDuplicate && rec.extra > 0;
      })) << "a delayed duplicate must fire: one on-time and one late copy";

      InboxLog runtime_log;
      auto runtime_chaos = std::make_shared<ChaosSchedule>(plan, seed);
      auto runtime_trace = std::make_shared<TraceRecorder>(TraceEngine::kRuntime);
      InMemoryHub hub;
      std::vector<std::unique_ptr<Process>> processes;
      for (std::size_t i = 0; i < ids.size(); ++i) {
        processes.push_back(std::make_unique<InboxLogger>(protocol.make(i), &runtime_log));
      }
      const auto drivers =
          run_lock_step(hub, std::move(processes), kRounds, runtime_chaos, runtime_trace);
      for (const auto& driver : drivers) {
        EXPECT_EQ(driver->frames_late(), 0u);
        EXPECT_EQ(driver->frames_dropped(), 0u);
      }

      EXPECT_EQ(sync_trace->canonical_jsonl(), runtime_trace->canonical_jsonl());
      ASSERT_EQ(sync_log.size(), runtime_log.size());
      for (const auto& [at, inbox] : sync_log) {
        EXPECT_TRUE(inbox == runtime_log[at])
            << "round " << at.first << ", node " << at.second << "\n  sync:   " << render(inbox)
            << "\n  driver: " << render(runtime_log[at]);
      }
    }
  }
}

// ------------------------------------------------ runtime verdicts, unit --

TEST(RoundDriverChaos, AppliesDropDuplicateAndSparesSelf) {
  // Sender 1 broadcasts one message in round 1; receiver 2 would get it in
  // round 2.
  const auto run = [](const ChaosPhase& phase) {
    InMemoryHub hub;
    auto chaos = std::make_shared<ChaosSchedule>(ChaosPlan{{phase}}, 1);
    auto sender = std::make_unique<RecordingProcess>(1);
    sender->send_in_round(1, Outgoing{std::nullopt, valued(7)});
    std::vector<std::unique_ptr<Process>> processes;
    processes.push_back(std::move(sender));
    processes.push_back(std::make_unique<RecordingProcess>(2));
    const auto drivers = run_lock_step(hub, std::move(processes), 2, chaos);
    return std::pair{process_of<RecordingProcess>(*drivers[0]).received[2],
                     process_of<RecordingProcess>(*drivers[1]).received[2]};
  };

  ChaosPhase drop = phase_window(1, 10);
  drop.drop = 1.0;
  const auto [dropper_self, dropped] = run(drop);
  EXPECT_TRUE(dropped.empty()) << "cross-link frame dropped";
  EXPECT_EQ(dropper_self.size(), 1u) << "self loopback exempt from chaos";

  ChaosPhase dup = phase_window(1, 10);
  dup.duplicate = 1.0;
  const auto [duper_self, duplicated] = run(dup);
  ASSERT_EQ(duplicated.size(), 1u) << "the extra on-time copy dies in dedup";
  EXPECT_EQ(duplicated[0].value, Value::real(7));
  EXPECT_EQ(duper_self.size(), 1u);
}

TEST(RoundDriverChaos, CorruptionFlipsExactlyOnePayloadByte) {
  // The driver flips the bit the verdict's entropy names in a private copy
  // of the entry's frame, then decodes the copy: the receiver must get
  // exactly what decoding that one-bit-flipped frame yields. Pick a seed
  // whose flip still decodes, so a message is delivered.
  ChaosPhase phase = phase_window(1, 10);
  phase.corrupt = 1.0;
  const ChaosPlan plan{{phase}};
  const Message sent{.sender = 1, .kind = MsgKind::kInput, .value = Value::real(2.5)};
  const Frame original = encode(sent);
  std::optional<Message> expected;
  std::uint64_t seed = 0;
  for (std::uint64_t s = 1; !expected.has_value() && s < 1000; ++s) {
    const FaultDecision verdict = ChaosSchedule(plan, s).peek(LinkEvent{3, 1, 2, 0});
    Frame flipped = original;
    flipped[verdict.entropy % flipped.size()] ^=
        static_cast<std::byte>(1u << ((verdict.entropy >> 8) % 8));
    expected = decode(flipped);
    seed = s;
  }
  ASSERT_TRUE(expected.has_value());
  ASSERT_NE(*expected, sent);

  InMemoryHub hub;
  auto chaos = std::make_shared<ChaosSchedule>(plan, seed);
  auto sender = std::make_unique<RecordingProcess>(1);
  sender->send_in_round(3, Outgoing{std::nullopt, sent});
  std::vector<std::unique_ptr<Process>> processes;
  processes.push_back(std::move(sender));
  processes.push_back(std::make_unique<RecordingProcess>(2));
  const auto drivers = run_lock_step(hub, std::move(processes), 4, chaos);
  const auto& received = process_of<RecordingProcess>(*drivers[1]).received;
  ASSERT_EQ(received.at(4).size(), 1u);
  EXPECT_EQ(received.at(4)[0], *expected) << "the slab header keyed the verdict of round 3";
  EXPECT_EQ(chaos->counters().total_faults().corrupts, 1u) << "loopback is never corrupted";
  EXPECT_EQ(process_of<RecordingProcess>(*drivers[0]).received.at(4)[0], sent);
}

TEST(RoundDriverChaos, DelayHoldsFrameForItsVerdictThenReleasesIntact) {
  ChaosPhase phase = phase_window(1, 10);
  phase.delay = DelaySpec{1.0, 1};  // always exactly one extra round
  InMemoryHub hub;
  auto chaos = std::make_shared<ChaosSchedule>(ChaosPlan{{phase}}, 3);
  auto sender = std::make_unique<RecordingProcess>(1);
  sender->send_in_round(1, Outgoing{std::nullopt, valued(4)});
  std::vector<std::unique_ptr<Process>> processes;
  processes.push_back(std::move(sender));
  processes.push_back(std::make_unique<RecordingProcess>(2));
  const auto drivers = run_lock_step(hub, std::move(processes), 3, chaos);
  auto& received = process_of<RecordingProcess>(*drivers[1]).received;
  EXPECT_TRUE(received[2].empty()) << "held past its on-time round";
  ASSERT_EQ(received[3].size(), 1u) << "delivered one round late";
  const Message delayed{.sender = 1, .kind = MsgKind::kPresent, .value = Value::real(4)};
  EXPECT_EQ(received[3][0], delayed);
  EXPECT_EQ(drivers[1]->frames_late(), 0u) << "a delay verdict is not a late frame";
  EXPECT_EQ(chaos->counters().total_faults().delays, 1u);
}

// ------------------------------------------ sync engine: per-link faults --

TEST(ChaosSyncLinks, DuplicateWithDelayDeliversOneOnTimeAndOneLateCopy) {
  ChaosPhase phase = phase_window(1, 1);
  phase.duplicate = 1.0;
  phase.delay = DelaySpec{1.0, 1};
  for (const unsigned threads : {1U, 2U}) {
    SyncSimulator sim;
    sim.set_threads(threads);
    sim.set_chaos(std::make_shared<ChaosSchedule>(ChaosPlan{{phase}}, 3));
    auto sender = std::make_unique<RecordingProcess>(1);
    auto receiver = std::make_unique<RecordingProcess>(2);
    sender->send_in_round(1, Outgoing{std::nullopt, valued(7)});
    RecordingProcess* s = sender.get();
    RecordingProcess* r = receiver.get();
    sim.add_process(std::move(sender));
    sim.add_process(std::move(receiver));
    sim.run_rounds(3);
    ASSERT_EQ(r->received[2].size(), 1u) << "the duplicate keeps the on-time copy";
    ASSERT_EQ(r->received[3].size(), 1u) << "the delayed copy lands one round late";
    EXPECT_EQ(r->received[3][0], r->received[2][0]);
    EXPECT_EQ(s->received[2].size(), 1u) << "self-delivery is never faulted";
    EXPECT_TRUE(s->received[3].empty());
  }
}

TEST(ChaosSyncLinks, RepeatedBroadcastReachesTheReceiverItsFirstCopyMissed) {
  // Sender 1 broadcasts X, Y, X in one round. Pick a seed whose verdicts on
  // link 1→2 drop the first X only: receiver 2 must get Y, then X at the
  // repeat's place in send order, while the sender's loopback sees X, Y.
  ChaosPhase phase = phase_window(1, 1);
  phase.drop = 0.5;
  const ChaosPlan plan{{phase}};
  std::uint64_t seed = 0;
  for (std::uint64_t s = 1; seed == 0 && s < 1000; ++s) {
    const ChaosSchedule probe(plan, s);
    if (probe.peek(LinkEvent{1, 1, 2, 0}).drop && !probe.peek(LinkEvent{1, 1, 2, 1}).drop &&
        !probe.peek(LinkEvent{1, 1, 2, 2}).drop) {
      seed = s;
    }
  }
  ASSERT_NE(seed, 0u);
  for (const unsigned threads : {1U, 2U}) {
    SyncSimulator sim;
    sim.set_threads(threads);
    sim.set_chaos(std::make_shared<ChaosSchedule>(plan, seed));
    auto sender = std::make_unique<RecordingProcess>(1);
    auto receiver = std::make_unique<RecordingProcess>(2);
    for (const double v : {1.0, 2.0, 1.0}) sender->send_in_round(1, Outgoing{std::nullopt, valued(v)});
    RecordingProcess* s = sender.get();
    RecordingProcess* r = receiver.get();
    sim.add_process(std::move(sender));
    sim.add_process(std::move(receiver));
    sim.run_rounds(2);
    ASSERT_EQ(r->received[2].size(), 2u);
    EXPECT_EQ(r->received[2][0].value, Value::real(2.0));
    EXPECT_EQ(r->received[2][1].value, Value::real(1.0));
    ASSERT_EQ(s->received[2].size(), 2u) << "the repeat is a duplicate where X arrived";
    EXPECT_EQ(s->received[2][0].value, Value::real(1.0));
    EXPECT_EQ(s->received[2][1].value, Value::real(2.0));
  }
}

// ----------------------------------------------- sync consensus + monitor --

TEST(ChaosConsensus, SurvivesBurstLossWithInvariantMonitorClean) {
  const std::vector<NodeId> ids{1, 2, 3, 4, 5, 6, 7, 8, 9};
  ChaosPhase phase = phase_window(2, 6);
  phase.drop = 0.1;
  auto chaos = std::make_shared<ChaosSchedule>(ChaosPlan{{phase}}, 5);
  SyncSimulator sim;
  sim.set_chaos(chaos);
  std::vector<Value> inputs;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    inputs.push_back(Value::real(static_cast<double>(i % 2)));
    sim.add_process(std::make_unique<ConsensusProcess>(ids[i], inputs.back()));
  }
  InvariantMonitor monitor(inputs);
  for (NodeId id : ids) sim.get<ConsensusProcess>(id)->set_observer(&monitor);

  ASSERT_TRUE(sim.run_until_all_correct_done(300));
  EXPECT_TRUE(monitor.ok()) << (monitor.violations().empty() ? ""
                                                             : monitor.violations().front());
  EXPECT_EQ(monitor.decided_count(), ids.size());
  EXPECT_GT(chaos->counters().total_faults().total(), 0u) << "the burst must have actually fired";

  std::optional<Value> first;
  for (NodeId id : ids) {
    const auto output = sim.get<ConsensusProcess>(id)->output();
    ASSERT_TRUE(output.has_value());
    if (!first.has_value()) first = *output;
    EXPECT_EQ(*output, *first);
  }
}

// ----------------------------------------------------------- script DSL ----

TEST(ChaosScript, ParsesFullChaosLine) {
  const auto parsed = parse_script(
      "protocol consensus\n"
      "nodes 6\n"
      "chaos 2-4 drop=0.5 dup=0.1 corrupt=0.05 delay=0.2:3 partition=0-1 crash=2:3-4\n"
      "expect agreement\n");
  ASSERT_TRUE(std::holds_alternative<ScenarioScript>(parsed));
  const auto& script = std::get<ScenarioScript>(parsed);
  ASSERT_EQ(script.chaos_phases.size(), 1u);
  const ChaosPhaseSpec& spec = script.chaos_phases[0];
  EXPECT_EQ(spec.first_round, 2);
  EXPECT_EQ(spec.last_round, 4);
  EXPECT_DOUBLE_EQ(spec.drop, 0.5);
  EXPECT_DOUBLE_EQ(spec.duplicate, 0.1);
  EXPECT_DOUBLE_EQ(spec.corrupt, 0.05);
  EXPECT_DOUBLE_EQ(spec.delay_probability, 0.2);
  EXPECT_EQ(spec.delay_max_extra, 3);
  ASSERT_TRUE(spec.partition.has_value());
  EXPECT_EQ(spec.partition->first, 0u);
  EXPECT_EQ(spec.partition->second, 1u);
  ASSERT_EQ(spec.crashes.size(), 1u);
  EXPECT_EQ(spec.crashes[0].index, 2u);
  EXPECT_EQ(spec.crashes[0].first, 3);
  EXPECT_EQ(spec.crashes[0].last, 4);
}

TEST(ChaosScript, RejectsMalformedChaosLines) {
  const char* bad[] = {
      "protocol consensus\nchaos 4-2 drop=0.1\n",      // inverted window
      "protocol consensus\nchaos 1-2 drop=1.5\n",      // probability out of range
      "protocol consensus\nchaos 1-2 bogus=0.1\n",     // unknown fault key
      "protocol consensus\nchaos 1-2\n",               // no fault spec at all
  };
  for (const char* text : bad) {
    EXPECT_TRUE(std::holds_alternative<ParseError>(parse_script(text))) << text;
  }
}

TEST(ChaosScript, ChaosParsesForEveryProtocolChurnOnlyForConsensusAndTotalOrder) {
  const std::string chaos = "chaos 2-4 drop=0.1 dup=0.1 delay=0.1:2\n";
  for (const std::string protocol :
       {"consensus", "king", "rb", "approx", "rotor", "renaming", "totalorder"}) {
    const std::string head = "protocol " + protocol + "\nnodes 7\n";
    const auto parsed = parse_script(head + chaos);
    ASSERT_TRUE(std::holds_alternative<ScenarioScript>(parsed)) << protocol;
    EXPECT_EQ(std::get<ScenarioScript>(parsed).chaos_phases.size(), 1u) << protocol;
    const bool churns = protocol == "consensus" || protocol == "totalorder";
    EXPECT_EQ(std::holds_alternative<ParseError>(parse_script(head + "churn 3 join=1\n")), !churns)
        << protocol;
  }
}

TEST(ChaosScript, MaterializesIndicesAgainstSortedIds) {
  ChaosPhaseSpec spec;
  spec.first_round = 2;
  spec.last_round = 4;
  spec.drop = 0.25;
  spec.partition = {1, 2};
  spec.crashes.push_back(ChaosPhaseSpec::CrashSpec{3, 2, 3});
  const std::vector<NodeId> ids{5, 6, 7, 8};
  const ChaosPlan plan = materialize_chaos_plan({spec}, ids);
  ASSERT_EQ(plan.phases.size(), 1u);
  EXPECT_DOUBLE_EQ(plan.phases[0].drop, 0.25);
  ASSERT_EQ(plan.phases[0].partitions.size(), 1u);
  EXPECT_EQ(plan.phases[0].partitions[0].side_a, (std::vector<NodeId>{6, 7}));
  EXPECT_EQ(plan.phases[0].partitions[0].side_b, (std::vector<NodeId>{5, 8}));
  ASSERT_EQ(plan.phases[0].crashes.size(), 1u);
  EXPECT_EQ(plan.phases[0].crashes[0].node, 8u);

  ChaosPhaseSpec out_of_range;
  out_of_range.partition = {0, 9};
  EXPECT_THROW(materialize_chaos_plan({out_of_range}, ids), std::invalid_argument);
}

}  // namespace
}  // namespace idonly
