// Reliable broadcast (Alg. 1): correctness, unforgeability, relay — swept
// over system sizes, adversary strategies, and seeds (Theorem 1).
#include <gtest/gtest.h>

#include <memory>
#include <tuple>

#include "check/explorer.hpp"
#include "common/thresholds.hpp"
#include "core/reliable_broadcast.hpp"
#include "harness/runner.hpp"
#include "net/sync_simulator.hpp"
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

TEST(ReliableBroadcast, CorrectSourceAcceptedByRoundThree) {
  // Lemma 1's proof shows acceptance already in round 3 when s is correct.
  const auto run = run_reliable_broadcast(config_for(7, 2, AdversaryKind::kSilent, 1), 42.0);
  EXPECT_EQ(run.accepted_count, 7u);
  EXPECT_TRUE(run.agreement);
  ASSERT_TRUE(run.first_accept_round.has_value());
  EXPECT_EQ(*run.first_accept_round, 3);
  EXPECT_EQ(*run.last_accept_round, 3);
}

TEST(ReliableBroadcast, WorksWithoutAnyByzantine) {
  const auto run = run_reliable_broadcast(config_for(4, 0, AdversaryKind::kNone, 3), 1.0);
  EXPECT_EQ(run.accepted_count, 4u);
  EXPECT_TRUE(run.agreement);
}

TEST(ReliableBroadcast, MinimalSystemFourNodesOneFault) {
  const auto run = run_reliable_broadcast(config_for(3, 1, AdversaryKind::kSilent, 7), 5.0);
  EXPECT_EQ(run.accepted_count, 3u);
  EXPECT_TRUE(run.agreement);
}

TEST(ReliableBroadcast, ForgedEchoNeverAccepted) {
  // The adversary floods echo(666, s*) for a payload the correct, designated
  // source never sent. Unforgeability: nothing but the real payload may be
  // accepted. The forged source here IS the broadcast source (the harness
  // picks correct_ids.front() for both), so acceptance of 666 would be a
  // direct unforgeability violation.
  const auto run = run_reliable_broadcast(config_for(7, 2, AdversaryKind::kForgedEcho, 11), 42.0);
  EXPECT_EQ(run.accepted_count, 7u);
  EXPECT_TRUE(run.agreement);
  EXPECT_TRUE(run.relay_ok);
}

TEST(ReliableBroadcast, SilentByzantineSourceAcceptsNothing) {
  // Unforgeability for a quiet source: no correct node ever accepts.
  const auto run =
      run_reliable_broadcast(config_for(7, 2, AdversaryKind::kSilent, 5), 0.0,
                             /*byzantine_source=*/true);
  EXPECT_EQ(run.accepted_count, 0u);
}

TEST(ReliableBroadcast, TwoFacedSourceCannotSplitAcceptance) {
  // A two-faced source sends payload a to one half and payload b to the
  // other. Relay + agreement: acceptors (if any) must agree on ONE payload
  // and accept within one round of each other.
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const auto run = run_reliable_broadcast(config_for(7, 2, AdversaryKind::kTwoFaced, seed), 0.0,
                                            /*byzantine_source=*/true);
    EXPECT_TRUE(run.agreement) << "seed=" << seed;
    EXPECT_TRUE(run.relay_ok) << "seed=" << seed;
    EXPECT_TRUE(run.accepted_count == 0 || run.accepted_count == 7) << "seed=" << seed;
  }
}

// Property sweep: all three RB properties across sizes × adversaries × seeds.
using RbSweepParam = std::tuple<std::size_t /*n_correct*/, std::size_t /*n_byz*/, AdversaryKind,
                                std::uint64_t /*seed*/>;

class RbSweep : public ::testing::TestWithParam<RbSweepParam> {};

TEST_P(RbSweep, CorrectSourcePropertiesHold) {
  const auto [n_correct, n_byz, adversary, seed] = GetParam();
  const auto run =
      run_reliable_broadcast(config_for(n_correct, n_byz, adversary, seed), 3.25);
  // Correctness: every correct node accepts the payload.
  EXPECT_EQ(run.accepted_count, n_correct);
  EXPECT_TRUE(run.agreement);
  // Relay: acceptance rounds differ by at most one.
  EXPECT_TRUE(run.relay_ok);
}

TEST_P(RbSweep, ByzantineSourceCannotCauseDisagreement) {
  const auto [n_correct, n_byz, adversary, seed] = GetParam();
  if (n_byz == 0) GTEST_SKIP() << "needs a Byzantine source";
  const auto run = run_reliable_broadcast(config_for(n_correct, n_byz, adversary, seed), 0.0,
                                          /*byzantine_source=*/true);
  EXPECT_TRUE(run.agreement);
  EXPECT_TRUE(run.relay_ok);
  // All-or-nothing within one extra round is implied by relay_ok; at the
  // horizon, acceptance must not be a strict split that stopped relaying.
  if (run.accepted_count > 0) {
    EXPECT_EQ(run.accepted_count, n_correct);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, RbSweep,
    ::testing::ValuesIn(resilient_cells({4, 7, 10, 16}, {1, 2},
                                        {AdversaryKind::kSilent, AdversaryKind::kNoise,
                                         AdversaryKind::kForgedEcho, AdversaryKind::kTwoFaced},
                                        {1, 2, 3})));

INSTANTIATE_TEST_SUITE_P(
    MaxFaults, RbSweep,
    ::testing::Combine(::testing::Values<std::size_t>(9, 13),
                       ::testing::Values<std::size_t>(4),  // n = 13/17, f = 4 = max
                       ::testing::Values(AdversaryKind::kSilent, AdversaryKind::kNoise,
                                         AdversaryKind::kTwoFaced),
                       ::testing::Values<std::uint64_t>(1, 2)));

TEST(ReliableBroadcast, PartialPayloadTriggersRelayCascade) {
  // A Byzantine source unicasts the payload to exactly ⌈n_v/3⌉ nodes and
  // nothing else. Those nodes echo (round 2); their 3 echoes reach the
  // n_v/3 relay threshold at everyone (round 3), the full cascade of 7
  // echoes lands in round 4, and ALL correct nodes accept simultaneously —
  // the relay property exercised in its non-trivial multi-hop regime.
  SyncSimulator sim;
  const std::vector<NodeId> correct{10, 20, 30, 40, 50, 60, 70};
  const NodeId byz_source = 99;
  for (NodeId id : correct) {
    sim.add_process(std::make_unique<ReliableBroadcastProcess>(id, byz_source, Value::bot()));
  }
  Message payload;
  payload.kind = MsgKind::kPayload;
  payload.subject = byz_source;
  payload.value = Value::real(8.0);
  ByzSchedule schedule(1);
  schedule[0] = ByzAction{payload, {10, 20, 30}};  // 3 echoes ≥ n_v/3 everywhere
  sim.add_process(std::make_unique<ScriptedByzantine>(byz_source, schedule));
  sim.run_rounds(8);
  std::vector<Round> accept_rounds;
  for (NodeId id : correct) {
    const auto* p = sim.get<ReliableBroadcastProcess>(id);
    ASSERT_TRUE(p->accepted()) << id;
    EXPECT_EQ(*p->accepted_payload(), Value::real(8.0));
    accept_rounds.push_back(*p->accept_round());
  }
  for (Round r : accept_rounds) EXPECT_EQ(r, 4) << "relay cascade adds exactly one round";
}

TEST(ReliableBroadcast, PayloadBelowRelayThresholdNeverAccepted) {
  // Same attack with one fewer initial receiver: 2 echoes < n_v/3 of 8 —
  // the cascade never ignites and nobody accepts.
  SyncSimulator sim;
  const std::vector<NodeId> correct{10, 20, 30, 40, 50, 60, 70};
  const NodeId byz_source = 99;
  for (NodeId id : correct) {
    sim.add_process(std::make_unique<ReliableBroadcastProcess>(id, byz_source, Value::bot()));
  }
  Message payload;
  payload.kind = MsgKind::kPayload;
  payload.subject = byz_source;
  payload.value = Value::real(8.0);
  ByzSchedule schedule(1);
  schedule[0] = ByzAction{payload, {10, 20}};
  sim.add_process(std::make_unique<ScriptedByzantine>(byz_source, schedule));
  sim.run_rounds(12);
  for (NodeId id : correct) {
    EXPECT_FALSE(sim.get<ReliableBroadcastProcess>(id)->accepted()) << id;
  }
}

TEST(ReliableBroadcast, NodesStopEchoingAfterAcceptance) {
  // Protocol hygiene via the engine's send counters: once a node accepts,
  // it must not broadcast further echoes ("not accepted already" guard of
  // Alg. 1).
  ScenarioConfig config = config_for(7, 0, AdversaryKind::kNone, 1);
  const Scenario scenario = make_scenario(config);
  SyncSimulator sim;
  const NodeId source = scenario.correct_ids.front();
  auto factory = [&](NodeId id, std::size_t) -> std::unique_ptr<Process> {
    return std::make_unique<ReliableBroadcastProcess>(id, source, Value::real(1.0));
  };
  populate(sim, scenario, factory);
  // Acceptance happens in local round 3; echoes are sent in rounds 2 and 3
  // (the round-3 echo precedes the accept check in pseudocode order).
  const auto echoes_sent = [&sim] {
    return sim.metrics().messages.sent[static_cast<std::size_t>(MsgKind::kEcho)];
  };
  sim.run_rounds(3);
  const std::uint64_t echoes_by_round_3 = echoes_sent();
  EXPECT_GT(echoes_by_round_3, 0u);
  for (Round r = 4; r <= 10; ++r) {
    sim.step();
    EXPECT_EQ(echoes_sent(), echoes_by_round_3) << "echo after acceptance in round " << r;
  }
}

TEST(ReliableBroadcast, NvGrowsOnlyWithDistinctSenders) {
  // Direct unit check on the process: n_v counts distinct ids cumulatively.
  ReliableBroadcastProcess p(/*self=*/1, /*source=*/2, Value::real(1.0));
  std::vector<Outgoing> out;
  Message from3;
  from3.sender = 3;
  from3.kind = MsgKind::kPresent;
  std::vector<Message> inbox{from3, from3};
  p.on_round(RoundInfo{1, 1}, inbox, out);
  EXPECT_EQ(p.n_v(), 1u);
  p.on_round(RoundInfo{2, 2}, inbox, out);
  EXPECT_EQ(p.n_v(), 1u) << "same sender again must not inflate n_v";
}

}  // namespace
}  // namespace idonly
