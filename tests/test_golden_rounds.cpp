// Golden round-count regressions: canonical configurations must keep their
// exact round/phase/message characteristics. Any drift means a protocol
// schedule changed — deliberate changes must update these numbers
// consciously, with the paper's bounds re-checked.
#include <gtest/gtest.h>

#include <variant>

#include "harness/runner.hpp"
#include "harness/script.hpp"

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

TEST(GoldenRounds, TotalOrderChurnTwoFacedChainIsPinned) {
  // The totalorder bench script at smoke size: one two-faced node, a dup
  // phase, two joiners at round 20 and a leave at round 30. Each initial
  // node i submits events 10i..10i+3; instances 2..5 each agree on one event
  // from every initial node, in witness order.
  const auto parsed = parse_script(
      "protocol totalorder\nnodes 16\nbyzantine 1 twofaced\nseed 3\nmax-rounds 120\n"
      "chaos 5-14 dup=0.10\nchurn 20 join=2\nchurn 30 leave=1\n"
      "expect termination\nexpect agreement\nexpect no-violations\n");
  ASSERT_TRUE(std::holds_alternative<ScenarioScript>(parsed));
  const std::vector<NodeId> witnesses{158, 193, 200, 247, 310, 325, 385, 388,
                                      397, 454, 505, 533, 551, 568, 586, 608};
  std::vector<ChainEntry> expected;
  for (Round instance = 2; instance <= 5; ++instance) {
    for (std::size_t i = 0; i < witnesses.size(); ++i) {
      expected.push_back({instance, witnesses[i], static_cast<double>(10 * i) +
                                                      static_cast<double>(instance - 2)});
    }
  }
  for (unsigned threads : {1u, 4u}) {
    const LoopRun loop = run_loop_script(std::get<ScenarioScript>(parsed), {.threads = threads});
    EXPECT_TRUE(loop.run.all_satisfied) << threads;
    EXPECT_EQ(loop.run.rounds, 120) << threads;
    EXPECT_EQ(loop.run.messages, 1394015u) << threads;
    ASSERT_EQ(loop.nodes.size(), 15u) << threads << " (16 initial nodes, one left)";
    EXPECT_EQ(loop.nodes.begin()->first, NodeId{158}) << threads;
    EXPECT_EQ(loop.nodes.begin()->second.chain, expected) << threads;
  }
}

}  // namespace
}  // namespace idonly
