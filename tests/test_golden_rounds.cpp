// Golden round-count regressions: canonical configurations must keep their
// exact round/phase/message characteristics. Any drift means a protocol
// schedule changed — deliberate changes must update these numbers
// consciously, with the paper's bounds re-checked.
#include <gtest/gtest.h>

#include "harness/runner.hpp"

namespace idonly {
namespace {

ScenarioConfig config_for(std::size_t n_correct, std::size_t n_byz, AdversaryKind adversary,
                          std::uint64_t seed) {
  ScenarioConfig config;
  config.n_correct = n_correct;
  config.n_byzantine = n_byz;
  config.adversary = adversary;
  config.seed = seed;
  return config;
}

TEST(GoldenRounds, ReliableBroadcastAcceptsInRoundThree) {
  // Alg. 1's schedule: payload r1 → echo r2 → quorum r3. Forever.
  const auto run = run_reliable_broadcast(config_for(7, 2, AdversaryKind::kSilent, 1), 1.0);
  EXPECT_EQ(run.first_accept_round, 3);
  EXPECT_EQ(run.last_accept_round, 3);
}

TEST(GoldenRounds, ConsensusUnanimousIsSevenRounds) {
  // 2 init + one 5-round phase.
  const auto run = run_consensus(config_for(7, 2, AdversaryKind::kSilent, 1), {4.0});
  EXPECT_EQ(run.rounds, 7);
  EXPECT_EQ(run.max_decision_phase, 1);
}

TEST(GoldenRounds, ConsensusMixedSilentIsTwoPhases) {
  // Mixed inputs, silent adversary: the first coordinator round resolves it
  // (all-correct candidate set), termination at the end of phase 2.
  const auto run = run_consensus(config_for(7, 2, AdversaryKind::kSilent, 1), {0.0, 1.0});
  EXPECT_EQ(run.rounds, 12);
  EXPECT_EQ(run.max_decision_phase, 2);
}

TEST(GoldenRounds, ConsensusTwoFacedFacesSplitZeroOne) {
  // Each two-faced node's faces propose 0 and 1 whatever the correct inputs
  // are; faces that cycled the correct inputs would end this run a phase
  // early (7 rounds, 1791 deliveries).
  const auto run =
      run_consensus(config_for(7, 2, AdversaryKind::kTwoFaced, 1), {3.25, -1.5, 3.25, 3.25});
  ASSERT_TRUE(run.all_decided);
  ASSERT_TRUE(run.agreement);
  EXPECT_EQ(run.outputs.front(), Value::real(3.25));
  EXPECT_EQ(run.max_decision_phase, 2);
  EXPECT_EQ(run.rounds, 12);
  EXPECT_EQ(run.messages, 2043u);
}

TEST(GoldenRounds, RotorNoFaultsTerminatesAtNPlusThree) {
  // All n ids are candidates before the first selection; the wrap-around
  // repeat lands at rotor round n, i.e. local round n + 3.
  for (std::size_t n : {4u, 8u, 16u}) {
    const auto run = run_rotor(config_for(n, 0, AdversaryKind::kNone, 1));
    EXPECT_EQ(run.max_termination_round, static_cast<Round>(n) + 3) << n;
    EXPECT_EQ(run.first_good_round, 0) << n;
  }
}

TEST(GoldenRounds, ApproxAgreementMessageCount) {
  // One iteration = every node broadcasts once to everyone (self-inclusive):
  // exactly n·n messages from the correct side plus the adversary's unicasts.
  const auto run = run_approx_agreement(config_for(7, 0, AdversaryKind::kNone, 1),
                                        {0, 1, 2, 3, 4, 5, 6}, /*iterations=*/1);
  EXPECT_EQ(run.messages, 7u * 7u);
  EXPECT_EQ(run.rounds, 2);
}

TEST(GoldenRounds, ParallelConsensusUniversalPairIsSevenRounds) {
  const auto run = run_parallel_consensus(
      config_for(7, 2, AdversaryKind::kSilent, 1),
      std::vector<std::vector<InputPair>>(7, {{.id = 1, .value = Value::real(2.0)}}));
  EXPECT_EQ(run.rounds, 7);
}

TEST(GoldenRounds, MessageCountsAreSeedStable) {
  // Fixed seed ⇒ bit-identical traffic. Guards engine determinism.
  const auto a = run_consensus(config_for(10, 3, AdversaryKind::kNoise, 77), {0.0, 1.0});
  const auto b = run_consensus(config_for(10, 3, AdversaryKind::kNoise, 77), {0.0, 1.0});
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_EQ(a.rounds, b.rounds);
}

}  // namespace
}  // namespace idonly
