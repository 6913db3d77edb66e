// Consensus (Alg. 3): agreement + validity + O(f)-round termination
// (Theorem 3), including the unanimous-input fast path (Lemma 7) — swept
// over sizes, adversaries, and input patterns.
#include <gtest/gtest.h>

#include <tuple>

#include "common/thresholds.hpp"
#include "core/consensus.hpp"
#include "harness/runner.hpp"
#include "resilient_cells.hpp"

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

TEST(Consensus, UnanimousInputsDecideInOnePhase) {
  // Lemma 7 (validity): if every correct node starts with x, everyone
  // terminates with x at the end of the very first phase.
  const auto run = run_consensus(config_for(7, 2, AdversaryKind::kSilent, 1), {5.0});
  EXPECT_TRUE(run.all_decided);
  EXPECT_TRUE(run.agreement);
  EXPECT_TRUE(run.validity);
  EXPECT_EQ(run.max_decision_phase, 1);
  EXPECT_EQ(run.outputs.front(), Value::real(5.0));
}

TEST(Consensus, MixedInputsStillAgree) {
  const auto run = run_consensus(config_for(7, 2, AdversaryKind::kSilent, 2), {0.0, 1.0});
  EXPECT_TRUE(run.all_decided);
  EXPECT_TRUE(run.agreement);
  EXPECT_TRUE(run.validity);
}

TEST(Consensus, NoByzantineNodes) {
  const auto run = run_consensus(config_for(4, 0, AdversaryKind::kNone, 3), {0.0, 1.0});
  EXPECT_TRUE(run.all_decided);
  EXPECT_TRUE(run.agreement);
  EXPECT_TRUE(run.validity);
}

TEST(Consensus, MinimalResilientSystem) {
  const auto run = run_consensus(config_for(3, 1, AdversaryKind::kTwoFaced, 4), {0.0, 1.0, 0.0});
  EXPECT_TRUE(run.all_decided);
  EXPECT_TRUE(run.agreement);
  EXPECT_TRUE(run.validity);
}

TEST(Consensus, RealValuedInputs) {
  const auto run =
      run_consensus(config_for(7, 2, AdversaryKind::kNoise, 5), {3.25, -1.5, 3.25, 3.25});
  EXPECT_TRUE(run.all_decided);
  EXPECT_TRUE(run.agreement);
  EXPECT_TRUE(run.validity);
}

TEST(Consensus, TerminationWithinLinearPhases) {
  // Theorem 3: O(f) rounds. A good coordinator round occurs within ~3f+1
  // phases; one more phase finishes. Generous linear envelope in f.
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const auto run = run_consensus(config_for(10, 3, AdversaryKind::kVoteSplit, seed),
                                   {0.0, 1.0, 0.0, 1.0});
    EXPECT_TRUE(run.all_decided) << "seed=" << seed;
    EXPECT_LE(run.max_decision_phase, 3 * 3 + 2) << "seed=" << seed;
  }
}

using ConsensusSweepParam =
    std::tuple<std::size_t, std::size_t, AdversaryKind, std::uint64_t>;

class ConsensusSweep : public ::testing::TestWithParam<ConsensusSweepParam> {};

TEST_P(ConsensusSweep, AgreementValidityTermination) {
  const auto [n_correct, n_byz, adversary, seed] = GetParam();
  const auto run =
      run_consensus(config_for(n_correct, n_byz, adversary, seed), {0.0, 1.0, 1.0, 0.0});
  EXPECT_TRUE(run.all_decided);
  EXPECT_TRUE(run.agreement);
  EXPECT_TRUE(run.validity);
}

TEST_P(ConsensusSweep, UnanimousFastPath) {
  const auto [n_correct, n_byz, adversary, seed] = GetParam();
  const auto run = run_consensus(config_for(n_correct, n_byz, adversary, seed), {7.75});
  EXPECT_TRUE(run.all_decided);
  EXPECT_TRUE(run.agreement);
  ASSERT_FALSE(run.outputs.empty());
  EXPECT_EQ(run.outputs.front(), Value::real(7.75)) << "unanimous input must win";
  EXPECT_EQ(run.max_decision_phase, 1);
}

INSTANTIATE_TEST_SUITE_P(
    Adversaries, ConsensusSweep,
    ::testing::ValuesIn(resilient_cells({4, 7, 10}, {1, 2},
                                        {AdversaryKind::kSilent, AdversaryKind::kCrash,
                                         AdversaryKind::kNoise, AdversaryKind::kTwoFaced,
                                         AdversaryKind::kVoteSplit, AdversaryKind::kEchoChamber},
                                        {1, 2, 3})));

INSTANTIATE_TEST_SUITE_P(
    MaxFaults, ConsensusSweep,
    ::testing::Combine(::testing::Values<std::size_t>(9),
                       ::testing::Values<std::size_t>(4),  // n = 13, f = 4 (max)
                       ::testing::Values(AdversaryKind::kTwoFaced, AdversaryKind::kVoteSplit),
                       ::testing::Values<std::uint64_t>(1, 2)));

TEST(Consensus, SilentByzantineExcludedFromMembership) {
  // A silent Byzantine never counts toward n_v, so the protocol behaves as
  // an all-correct run with the same outcome.
  const auto with_silent = run_consensus(config_for(7, 2, AdversaryKind::kSilent, 9), {1.0, 0.0});
  const auto without = run_consensus(config_for(7, 0, AdversaryKind::kNone, 9), {1.0, 0.0});
  EXPECT_TRUE(with_silent.all_decided);
  EXPECT_TRUE(without.all_decided);
  EXPECT_TRUE(with_silent.agreement);
  EXPECT_TRUE(without.agreement);
}

TEST(Consensus, SubstitutionRuleFillsSilentMembers) {
  // Drive one process by hand: members {1,2,3,4} are established during
  // initialization, then 2,3,4 go silent. The caption rule makes node 1
  // substitute its own previous-round message for each of them, so it still
  // reaches the 2n_v/3 input quorum and broadcasts prefer.
  ConsensusProcess p(/*self=*/1, Value::real(9.0));
  std::vector<Outgoing> out;

  auto make_inbox = [](MsgKind kind, std::initializer_list<NodeId> senders) {
    std::vector<Message> inbox;
    for (NodeId s : senders) {
      Message m;
      m.sender = s;
      m.kind = kind;
      inbox.push_back(m);
    }
    return inbox;
  };

  p.on_round(RoundInfo{1, 1}, {}, out);                                        // init
  out.clear();
  auto r2 = make_inbox(MsgKind::kInit, {1, 2, 3, 4});
  p.on_round(RoundInfo{2, 2}, r2, out);                                        // echo round
  out.clear();
  auto r3 = make_inbox(MsgKind::kEcho, {1, 2, 3, 4});
  for (auto& m : r3) m.subject = m.sender;
  p.on_round(RoundInfo{3, 3}, r3, out);                                        // P1: input
  ASSERT_EQ(p.n_v(), 4u);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].msg.kind, MsgKind::kInput);
  out.clear();

  // P2 with a COMPLETELY empty inbox: everyone else silent. Substitution
  // must fill input(9.0) for members 2,3,4 → quorum 4 of 4 → prefer(9.0).
  p.on_round(RoundInfo{4, 4}, {}, out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].msg.kind, MsgKind::kPrefer);
  EXPECT_EQ(out[0].msg.value, Value::real(9.0));
}

TEST(Consensus, NonMemberMessagesDiscardedAfterInit) {
  // A node that never spoke during initialization cannot influence the
  // quorums later (Alg. 3 caption). Node 99 floods inputs from round 4 on;
  // node 1's quorum math must be unchanged: with only itself as member, its
  // own input still wins; 99's value must not.
  ConsensusProcess p(1, Value::real(2.0));
  std::vector<Outgoing> out;
  p.on_round(RoundInfo{1, 1}, {}, out);
  out.clear();
  std::vector<Message> self_init(1);
  self_init[0].sender = 1;
  self_init[0].kind = MsgKind::kInit;
  p.on_round(RoundInfo{2, 2}, self_init, out);
  out.clear();
  p.on_round(RoundInfo{3, 3}, {}, out);  // P1, membership = {1}
  out.clear();
  std::vector<Message> intruder(3);
  for (auto& m : intruder) {
    m.sender = 99;
    m.kind = MsgKind::kInput;
    m.value = Value::real(7.0);
  }
  p.on_round(RoundInfo{4, 4}, intruder, out);  // P2
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].msg.kind, MsgKind::kPrefer);
  EXPECT_EQ(out[0].msg.value, Value::real(2.0)) << "intruder value must not be counted";
}

TEST(Consensus, CrashRoundSweepNeverBreaksAgreement) {
  // Crash adversaries dying at every point of the phase structure.
  for (Round crash = 1; crash <= 14; ++crash) {
    ScenarioConfig config = config_for(7, 2, AdversaryKind::kCrash, 7);
    config.crash_round = crash;
    const auto run = run_consensus(config, {0.0, 1.0});
    EXPECT_TRUE(run.all_decided) << "crash=" << crash;
    EXPECT_TRUE(run.agreement) << "crash=" << crash;
    EXPECT_TRUE(run.validity) << "crash=" << crash;
  }
}

TEST(Consensus, DeterministicAcrossRuns) {
  const auto a = run_consensus(config_for(7, 2, AdversaryKind::kNoise, 42), {0.0, 1.0});
  const auto b = run_consensus(config_for(7, 2, AdversaryKind::kNoise, 42), {0.0, 1.0});
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.messages, b.messages);
  ASSERT_EQ(a.outputs.size(), b.outputs.size());
  for (std::size_t i = 0; i < a.outputs.size(); ++i) EXPECT_EQ(a.outputs[i], b.outputs[i]);
}

}  // namespace
}  // namespace idonly
