// Constructive side of §"Synchrony is Necessary": the id-only algorithms
// are correct ONLY under lock-step rounds. Injecting delays between correct
// nodes (violating the model) must break liveness/safety in some runs —
// while the delay-free control and a Byzantine-only-delay run stay correct.
// The delays come from a chaos schedule, so every scenario also runs at 1
// and 4 threads and must decide the same and leave the same fault trace: the
// same canonical link records in a flight recorder and the same per-phase
// fault counters.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/chaos.hpp"
#include "common/rng.hpp"
#include "common/trace.hpp"
#include "core/consensus.hpp"
#include "core/reliable_broadcast.hpp"
#include "harness/scenario.hpp"
#include "net/sync_simulator.hpp"

namespace idonly {
namespace {

constexpr Round kRoundBudget = 250;

struct Outcome {
  bool all_decided = false;
  bool agreement = true;
  std::vector<std::optional<Value>> decisions;  ///< per correct id, ascending
  std::string fault_trace;  ///< canonical link records, then per-phase fault counters
  std::uint64_t faults = 0;
};

std::string verdict_trace(const TraceRecorder& recorder, const ChaosSchedule& chaos) {
  return recorder.canonical_jsonl() + chaos.counters().summary();
}

Outcome run_desynced_consensus_at(std::uint64_t seed, double delay_probability,
                                  unsigned threads) {
  ScenarioConfig config;
  config.n_correct = 7;
  config.n_byzantine = 2;
  config.adversary = AdversaryKind::kSilent;
  config.seed = seed;
  const Scenario scenario = make_scenario(config);
  // Every message is delayed 1–3 extra rounds with `delay_probability`.
  ChaosPhase phase;
  phase.first_round = 1;
  phase.last_round = kRoundBudget;
  phase.delay = DelaySpec{delay_probability, 3};
  auto chaos = std::make_shared<ChaosSchedule>(ChaosPlan{{phase}}, derive_seed(seed, 0xDE1A));
  auto recorder = std::make_shared<TraceRecorder>(TraceEngine::kSync);
  SyncSimulator sim;
  sim.set_threads(threads);
  sim.set_chaos(chaos);
  sim.set_trace_recorder(recorder);
  auto factory = [&](NodeId id, std::size_t index) -> std::unique_ptr<Process> {
    return std::make_unique<ConsensusProcess>(id, Value::real(static_cast<double>(index % 2)));
  };
  populate(sim, scenario, factory);
  Outcome outcome;
  outcome.all_decided = sim.run_until_all_correct_done(kRoundBudget);
  std::optional<Value> first;
  for (NodeId id : scenario.correct_ids) {
    auto* p = sim.get<ConsensusProcess>(id);
    outcome.decisions.push_back(p == nullptr ? std::nullopt : p->output());
    if (p == nullptr || !p->output().has_value()) continue;
    if (!first.has_value()) first = *p->output();
    outcome.agreement = outcome.agreement && *p->output() == *first;
  }
  outcome.fault_trace = verdict_trace(*recorder, *chaos);
  outcome.faults = chaos->counters().total_faults().total();
  return outcome;
}

/// The 1-thread outcome, after checking that 4 threads replay it exactly.
Outcome run_desynced_consensus(std::uint64_t seed, double delay_probability) {
  Outcome one = run_desynced_consensus_at(seed, delay_probability, 1);
  const Outcome four = run_desynced_consensus_at(seed, delay_probability, 4);
  EXPECT_EQ(one.all_decided, four.all_decided) << seed;
  EXPECT_TRUE(one.decisions == four.decisions) << "decisions differ across threads, seed " << seed;
  EXPECT_EQ(one.fault_trace, four.fault_trace) << seed;
  return one;
}

TEST(SynchronyViolation, DelayFreeControlAlwaysCorrect) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const auto outcome = run_desynced_consensus(seed, /*delay_probability=*/0.0);
    EXPECT_TRUE(outcome.all_decided) << seed;
    EXPECT_TRUE(outcome.agreement) << seed;
    EXPECT_EQ(outcome.faults, 0u) << seed;
  }
}

TEST(SynchronyViolation, HeavyDesyncBreaksConsensus) {
  // With half of all traffic arriving 1–3 rounds late, the per-round quorum
  // counting collapses; some run must lose a property (termination or
  // agreement). This is the model assumption earning its keep.
  bool any_violation = false;
  for (std::uint64_t seed = 1; seed <= 10 && !any_violation; ++seed) {
    const auto outcome = run_desynced_consensus(seed, /*delay_probability=*/0.5);
    any_violation = !outcome.all_decided || !outcome.agreement;
  }
  EXPECT_TRUE(any_violation);
}

TEST(SynchronyViolation, MildDesyncToleratedSafetyBreaksUnderHeavy) {
  // Empirical finding worth pinning down: with the explicit no-preference
  // markers (see consensus.hpp), the algorithm tolerates mild
  // desynchronization outright — and when it does fail under heavy desync,
  // the failure mode is DISAGREEMENT, not mere non-termination. Safety
  // itself rests on the synchrony assumption.
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const auto mild = run_desynced_consensus(seed, /*delay_probability=*/0.1);
    EXPECT_TRUE(mild.all_decided) << seed;
    EXPECT_TRUE(mild.agreement) << seed;
  }
  bool any_disagreement = false;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const auto heavy = run_desynced_consensus(seed, /*delay_probability=*/0.5);
    any_disagreement = any_disagreement || !heavy.agreement;
  }
  EXPECT_TRUE(any_disagreement);
}

TEST(SynchronyViolation, ReliableBroadcastToleratesDelayedByzantineTraffic) {
  // Delaying only the BYZANTINE nodes' messages stays WITHIN the model (the
  // adversary may always choose to send late) — properties must hold.
  ScenarioConfig config;
  config.n_correct = 7;
  config.n_byzantine = 2;
  config.adversary = AdversaryKind::kForgedEcho;
  config.seed = 3;
  const Scenario scenario = make_scenario(config);
  constexpr Round kRounds = 20;
  ChaosPhase phase;
  phase.first_round = 1;
  phase.last_round = kRounds;
  std::vector<NodeId> everyone = scenario.correct_ids;
  everyone.insert(everyone.end(), scenario.byzantine_ids.begin(), scenario.byzantine_ids.end());
  for (NodeId byz : scenario.byzantine_ids) {
    for (NodeId to : everyone) {
      phase.link_faults.push_back(LinkFaultSpec{.from = byz, .to = to, .delay = 1.0});
    }
  }
  const NodeId source = scenario.correct_ids.front();
  std::string traces[2];
  std::uint64_t faults = 0;
  for (const unsigned threads : {1U, 4U}) {
    auto chaos = std::make_shared<ChaosSchedule>(ChaosPlan{{phase}}, config.seed);
    auto recorder = std::make_shared<TraceRecorder>(TraceEngine::kSync);
    SyncSimulator sim;
    sim.set_threads(threads);
    sim.set_chaos(chaos);
    sim.set_trace_recorder(recorder);
    auto factory = [&](NodeId id, std::size_t) -> std::unique_ptr<Process> {
      return std::make_unique<ReliableBroadcastProcess>(id, source, Value::real(4.0));
    };
    populate(sim, scenario, factory);
    sim.run_rounds(kRounds);
    for (NodeId id : scenario.correct_ids) {
      auto* p = sim.get<ReliableBroadcastProcess>(id);
      ASSERT_TRUE(p->accepted()) << id << " at " << threads << " threads";
      EXPECT_EQ(*p->accepted_payload(), Value::real(4.0));
    }
    traces[threads == 1 ? 0 : 1] = verdict_trace(*recorder, *chaos);
    if (threads == 1) faults = chaos->counters().total_faults().total();
  }
  EXPECT_GT(faults, 0u) << "the Byzantine traffic was actually delayed";
  EXPECT_EQ(traces[0], traces[1]);
}

}  // namespace
}  // namespace idonly
