// Rotor-based king consensus (the paper draft's original construction):
// agreement + validity with O(n)-round termination, and the ablation
// contrast with Alg. 3's early termination.
#include <gtest/gtest.h>

#include <memory>
#include <tuple>

#include "common/thresholds.hpp"
#include "core/king_consensus.hpp"
#include "harness/scenario.hpp"
#include "net/sync_simulator.hpp"
#include "resilient_cells.hpp"

namespace idonly {
namespace {

struct KingRun {
  bool all_done = false;
  std::vector<Value> outputs;
  bool agreement = false;
  bool validity = false;
  Round rounds = 0;
};

KingRun run_king(std::size_t n_correct, std::size_t n_byz, AdversaryKind adversary,
                 std::uint64_t seed, const std::vector<double>& inputs,
                 Round max_rounds = 2000) {
  ScenarioConfig config;
  config.n_correct = n_correct;
  config.n_byzantine = n_byz;
  config.adversary = adversary;
  config.seed = seed;
  const Scenario scenario = make_scenario(config);
  SyncSimulator sim;
  auto factory = [&](NodeId id, std::size_t index) -> std::unique_ptr<Process> {
    const double input = index < n_correct ? inputs[index % inputs.size()]
                                           : static_cast<double>(index % 2);
    return std::make_unique<KingConsensusProcess>(id, Value::real(input));
  };
  populate(sim, scenario, factory);
  KingRun run;
  run.all_done = sim.run_until_all_correct_done(max_rounds);
  run.rounds = sim.round();
  for (NodeId id : scenario.correct_ids) {
    auto* p = sim.get<KingConsensusProcess>(id);
    if (p != nullptr && p->output().has_value()) run.outputs.push_back(*p->output());
  }
  run.agreement = run.outputs.size() == n_correct &&
                  std::all_of(run.outputs.begin(), run.outputs.end(),
                              [&](const Value& v) { return v == run.outputs.front(); });
  if (run.agreement) {
    for (std::size_t i = 0; i < n_correct; ++i) {
      if (Value::real(inputs[i % inputs.size()]) == run.outputs.front()) run.validity = true;
    }
  }
  return run;
}

TEST(KingConsensus, UnanimousInputsPreserved) {
  const auto run = run_king(7, 2, AdversaryKind::kSilent, 1, {3.0});
  EXPECT_TRUE(run.all_done);
  EXPECT_TRUE(run.agreement);
  ASSERT_FALSE(run.outputs.empty());
  EXPECT_EQ(run.outputs.front(), Value::real(3.0));
}

TEST(KingConsensus, MixedInputsAgree) {
  const auto run = run_king(7, 2, AdversaryKind::kTwoFaced, 2, {0.0, 1.0});
  EXPECT_TRUE(run.all_done);
  EXPECT_TRUE(run.agreement);
  EXPECT_TRUE(run.validity);
}

TEST(KingConsensus, TerminatesWithinLinearRounds) {
  const auto run = run_king(10, 3, AdversaryKind::kVoteSplit, 3, {0.0, 1.0});
  EXPECT_TRUE(run.all_done);
  // Rotor terminates within ~2n selections; 5 rounds per phase + 2 init.
  EXPECT_LE(run.rounds, 5 * (2 * 13 + 6) + 2);
}

using KingSweepParam = std::tuple<std::size_t, std::size_t, AdversaryKind, std::uint64_t>;
class KingSweep : public ::testing::TestWithParam<KingSweepParam> {};

TEST_P(KingSweep, AgreementValidity) {
  const auto [n_correct, n_byz, adversary, seed] = GetParam();
  const auto run = run_king(n_correct, n_byz, adversary, seed, {0.0, 1.0, 1.0});
  EXPECT_TRUE(run.all_done);
  EXPECT_TRUE(run.agreement);
  EXPECT_TRUE(run.validity);
}

INSTANTIATE_TEST_SUITE_P(
    Adversaries, KingSweep,
    ::testing::ValuesIn(resilient_cells({4, 7, 10}, {1, 2},
                                        {AdversaryKind::kSilent, AdversaryKind::kNoise,
                                         AdversaryKind::kTwoFaced, AdversaryKind::kEchoChamber,
                                         AdversaryKind::kReplay},
                                        {1, 2})));

TEST(KingConsensus, SlowerThanEarlyTerminatingOnUnanimousInputs) {
  // The ablation behind Alg. 3's design: early termination decides a
  // unanimous instance in one phase; the king variant always runs the full
  // rotor schedule.
  const auto king = run_king(7, 2, AdversaryKind::kSilent, 4, {5.0});
  ScenarioConfig config;
  config.n_correct = 7;
  config.n_byzantine = 2;
  config.adversary = AdversaryKind::kSilent;
  config.seed = 4;
  // Compare simulated rounds until everyone decided.
  const Scenario scenario = make_scenario(config);
  SyncSimulator sim;
  auto factory = [&](NodeId id, std::size_t) -> std::unique_ptr<Process> {
    return std::make_unique<KingConsensusProcess>(id, Value::real(5.0));
  };
  populate(sim, scenario, factory);
  sim.run_until_all_correct_done(2000);
  EXPECT_GT(king.rounds, 7) << "king must outlast Alg. 3's single unanimous phase (7 rounds)";
}

}  // namespace
}  // namespace idonly
