// Parallel consensus (Alg. 5, Theorem 5): validity, agreement, termination
// over SETS of (id, value) pairs, including the late-awareness machinery.
#include <gtest/gtest.h>

#include <memory>
#include <tuple>

#include "core/parallel_consensus.hpp"
#include "harness/runner.hpp"
#include "net/sync_simulator.hpp"

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

std::vector<std::vector<InputPair>> same_inputs(std::size_t n, std::vector<InputPair> pairs) {
  return std::vector<std::vector<InputPair>>(n, std::move(pairs));
}

TEST(ParallelConsensus, CommonPairIsOutputByAll) {
  // Validity: a pair input everywhere (value ≠ ⊥) must be output by all.
  const auto run = run_parallel_consensus(
      config_for(7, 2, AdversaryKind::kSilent, 1),
      same_inputs(7, {{.id = 100, .value = Value::real(3.0)}}));
  EXPECT_TRUE(run.all_terminated);
  EXPECT_TRUE(run.agreement);
  ASSERT_EQ(run.common_output.size(), 1u);
  EXPECT_EQ(run.common_output[0].id, 100u);
  EXPECT_EQ(run.common_output[0].value, Value::real(3.0));
}

TEST(ParallelConsensus, MultiplePairsAllDecided) {
  std::vector<InputPair> pairs{{.id = 1, .value = Value::real(10)},
                               {.id = 2, .value = Value::real(20)},
                               {.id = 3, .value = Value::real(30)}};
  const auto run =
      run_parallel_consensus(config_for(7, 2, AdversaryKind::kNoise, 2), same_inputs(7, pairs));
  EXPECT_TRUE(run.all_terminated);
  EXPECT_TRUE(run.agreement);
  ASSERT_EQ(run.common_output.size(), 3u);
  EXPECT_EQ(run.common_output[0].value, Value::real(10));
  EXPECT_EQ(run.common_output[2].value, Value::real(30));
}

TEST(ParallelConsensus, NoInputsTerminatesEmpty) {
  const auto run = run_parallel_consensus(config_for(4, 1, AdversaryKind::kSilent, 3),
                                          same_inputs(4, {}));
  EXPECT_TRUE(run.all_terminated);
  EXPECT_TRUE(run.agreement);
  EXPECT_TRUE(run.common_output.empty());
}

TEST(ParallelConsensus, PartiallyKnownPairStillAgrees) {
  // Pair 55 is input at only 3 of 7 correct nodes; the rest learn of it via
  // the round-2 adoption rule. Agreement must hold either way (the pair may
  // or may not make it into the common output — but identically everywhere).
  std::vector<std::vector<InputPair>> inputs(7);
  for (std::size_t i = 0; i < 3; ++i) inputs[i] = {{.id = 55, .value = Value::real(9.0)}};
  const auto run =
      run_parallel_consensus(config_for(7, 2, AdversaryKind::kSilent, 4), inputs);
  EXPECT_TRUE(run.all_terminated);
  EXPECT_TRUE(run.agreement);
}

TEST(ParallelConsensus, DisjointPairSetsMergeConsistently) {
  // Every node contributes its own pair; all 7 instances run concurrently.
  std::vector<std::vector<InputPair>> inputs(7);
  for (std::size_t i = 0; i < 7; ++i) {
    inputs[i] = {{.id = 200 + i, .value = Value::real(static_cast<double>(i))}};
  }
  const auto run = run_parallel_consensus(config_for(7, 2, AdversaryKind::kNoise, 5), inputs);
  EXPECT_TRUE(run.all_terminated);
  EXPECT_TRUE(run.agreement);
}

TEST(ParallelConsensus, BotValuedInputIsNeverOutput) {
  const auto run = run_parallel_consensus(
      config_for(7, 2, AdversaryKind::kSilent, 6),
      same_inputs(7, {{.id = 9, .value = Value::bot()},
                      {.id = 10, .value = Value::real(1.0)}}));
  EXPECT_TRUE(run.all_terminated);
  EXPECT_TRUE(run.agreement);
  ASSERT_EQ(run.common_output.size(), 1u);
  EXPECT_EQ(run.common_output[0].id, 10u);
}

using ParallelSweepParam =
    std::tuple<std::size_t, std::size_t, AdversaryKind, std::uint64_t>;

class ParallelSweep : public ::testing::TestWithParam<ParallelSweepParam> {};

TEST_P(ParallelSweep, Theorem5Properties) {
  const auto [n_correct, n_byz, adversary, seed] = GetParam();
  // Mixed universal + partial pairs.
  std::vector<std::vector<InputPair>> inputs(n_correct);
  for (std::size_t i = 0; i < n_correct; ++i) {
    inputs[i] = {{.id = 1, .value = Value::real(42.0)}};  // universal
    if (i % 2 == 0) inputs[i].push_back({.id = 2, .value = Value::real(7.0)});  // partial
  }
  const auto run = run_parallel_consensus(config_for(n_correct, n_byz, adversary, seed), inputs);
  EXPECT_TRUE(run.all_terminated);
  EXPECT_TRUE(run.agreement);
  // Validity for the universal pair:
  ASSERT_FALSE(run.common_output.empty());
  EXPECT_EQ(run.common_output[0].id, 1u);
  EXPECT_EQ(run.common_output[0].value, Value::real(42.0));
}

INSTANTIATE_TEST_SUITE_P(
    Adversaries, ParallelSweep,
    ::testing::Combine(::testing::Values<std::size_t>(4, 7, 10),
                       ::testing::Values<std::size_t>(1, 2),
                       ::testing::Values(AdversaryKind::kSilent, AdversaryKind::kNoise,
                                         AdversaryKind::kCrash, AdversaryKind::kVoteSplit),
                       ::testing::Values<std::uint64_t>(1, 2)));

TEST(ParallelConsensusMachine, TerminatedReportsOutputsSorted) {
  // Unit-level: machine outputs are sorted by pair id and exclude ⊥.
  ParallelConsensusMachine machine(
      1, 0,
      {{.id = 30, .value = Value::real(3)}, {.id = 10, .value = Value::real(1)}});
  EXPECT_FALSE(machine.terminated());
  EXPECT_EQ(machine.instance_count(), 0u) << "instances activate at phase 1, not construction";
}

// ---------------------------------------------- one bucket per instance tag --

Message tagged(NodeId sender, InstanceTag tag, MsgKind kind, PairId pair = 0,
               Value value = Value::bot()) {
  Message m;
  m.sender = sender;
  m.kind = kind;
  m.instance = tag;
  m.subject = pair;
  m.value = value;
  return m;
}

/// One local round of `machine` on a whole inbox, bucketed as a node that
/// also runs the instances tagged one below and one above it.
std::vector<Message> step(ParallelConsensusMachine& machine, std::span<const Message> inbox) {
  TaggedInbox index;
  const InstanceTag tags[] = {machine.tag() - 1, machine.tag(), machine.tag() + 1};
  index.build(inbox, tags);
  std::vector<Message> out;
  machine.on_round(index.bucket(machine.tag()), index.senders(), out);
  return out;
}

bool sends(const std::vector<Message>& out, MsgKind kind, PairId pair, Value value) {
  for (const Message& m : out) {
    if (m.kind == kind && m.subject == pair && m.value == value) return true;
  }
  return false;
}

TEST(ParallelConsensusMachine, InterleavedTagsKeepEveryRule) {
  // Node 4 runs instance tag 7 restricted to S = {1, 2, 3, 4}; every inbox
  // interleaves tags 6, 7 and 8. Node 5 is outside S.
  constexpr InstanceTag kTag = 7;
  const FlatSet<NodeId> s{1, 2, 3, 4};
  ParallelConsensusMachine machine(
      4, kTag, {{.id = 10, .value = Value::real(1.0)}, {.id = 20, .value = Value::real(2.0)}}, s);
  const Value one = Value::real(1.0);
  const Value two = Value::real(2.0);
  const Value bot = Value::bot();

  ASSERT_EQ(step(machine, {}).size(), 1u);  // r1: init
  std::vector<Message> r2;
  for (NodeId sender : {1, 2, 3, 4, 5}) {
    r2.push_back(tagged(sender, 6, MsgKind::kInit));
    r2.push_back(tagged(sender, kTag, MsgKind::kInit));
    r2.push_back(tagged(sender, 8, MsgKind::kInit));
  }
  const auto echoes = step(machine, r2);
  ASSERT_EQ(echoes.size(), 4u) << "echoes for S members' tag-7 inits only";
  for (const Message& m : echoes) EXPECT_EQ(m.instance, kTag);
  std::vector<Message> r3;
  for (NodeId sender : {1, 2, 3, 4}) {
    for (NodeId candidate : {1, 2, 3, 4}) {
      r3.push_back(tagged(sender, kTag, MsgKind::kEcho, candidate));
    }
  }
  const auto p1 = step(machine, r3);
  EXPECT_EQ(machine.n_v(), 4u) << "node 5 is outside S";
  EXPECT_TRUE(sends(p1, MsgKind::kInput, 10, one));
  EXPECT_TRUE(sends(p1, MsgKind::kInput, 20, two));

  // P2. Pair 10 reaches 2/3 only if node 3's out-of-order input (30, then
  // 10) is counted; pair 20 only if node 2's tag-6/8 copies or outsider 5's
  // leaked in. Node 3's pair 30 is adopted; outsider 5's pair 50 is not.
  const Value three = Value::real(3.0);
  const std::vector<Message> p2_inbox{
      tagged(1, 6, MsgKind::kInput, 20, two),     tagged(1, kTag, MsgKind::kInput, 10, one),
      tagged(1, kTag, MsgKind::kInput, 20, two),  tagged(2, 6, MsgKind::kInput, 10, one),
      tagged(2, 6, MsgKind::kInput, 20, two),     tagged(2, 8, MsgKind::kInput, 10, one),
      tagged(2, 8, MsgKind::kInput, 20, two),     tagged(3, kTag, MsgKind::kInput, 30, three),
      tagged(3, kTag, MsgKind::kInput, 10, one),  tagged(4, kTag, MsgKind::kInput, 10, one),
      tagged(4, kTag, MsgKind::kInput, 20, two),  tagged(5, kTag, MsgKind::kInput, 20, two),
      tagged(5, kTag, MsgKind::kInput, 50, one)};
  const auto p2 = step(machine, p2_inbox);
  EXPECT_EQ(machine.instance_count(), 3u);
  EXPECT_TRUE(sends(p2, MsgKind::kPrefer, 10, one));
  EXPECT_TRUE(sends(p2, MsgKind::kNoPreference, 20, bot));
  EXPECT_TRUE(sends(p2, MsgKind::kPrefer, 30, bot)) << "three ⊥ fills outvote one whisper";
  EXPECT_EQ(p2.size(), 3u);

  std::vector<Message> p3_inbox;
  for (NodeId sender : {1, 2, 3, 4}) {
    p3_inbox.push_back(tagged(sender, kTag, MsgKind::kPrefer, 10, one));
    p3_inbox.push_back(tagged(sender, kTag, MsgKind::kNoPreference, 20));
    p3_inbox.push_back(tagged(sender, kTag, MsgKind::kPrefer, 30, bot));
  }
  const auto p3 = step(machine, p3_inbox);
  EXPECT_TRUE(sends(p3, MsgKind::kStrongPrefer, 10, one));
  EXPECT_TRUE(sends(p3, MsgKind::kNoStrongPref, 20, bot)) << "markers are never filled";
  EXPECT_TRUE(sends(p3, MsgKind::kStrongPrefer, 30, bot));

  // P4: pair 20 hears three markers and one ⊥ fill, below n_v/3, so P5
  // adopts the coordinator's opinion. Candidates {1..4}: coordinator is 1.
  std::vector<Message> p4_inbox;
  for (NodeId sender : {1, 2, 3, 4}) {
    p4_inbox.push_back(tagged(sender, kTag, MsgKind::kStrongPrefer, 10, one));
    if (sender != 4) p4_inbox.push_back(tagged(sender, kTag, MsgKind::kNoStrongPref, 20));
    p4_inbox.push_back(tagged(sender, kTag, MsgKind::kStrongPrefer, 30, bot));
  }
  const auto p4 = step(machine, p4_inbox);
  for (const Message& m : p4) EXPECT_NE(m.kind, MsgKind::kOpinion) << "node 4 is not coordinator";

  // P5: the coordinator's first tag-7 opinion on pair 20 wins over its
  // second one, its tag-6/8 ones and node 2's. Node 2's strongprefer for
  // unknown pair 40 adopts it, ⊥-filled, so it ends with no output; outsider
  // 5's pair 60 is not adopted.
  const std::vector<Message> p5_inbox{
      tagged(1, 6, MsgKind::kOpinion, 20, Value::real(5.0)),
      tagged(1, kTag, MsgKind::kOpinion, 10, one),
      tagged(1, kTag, MsgKind::kOpinion, 20, Value::real(6.0)),
      tagged(1, kTag, MsgKind::kOpinion, 20, Value::real(7.0)),
      tagged(1, 8, MsgKind::kOpinion, 20, Value::real(8.0)),
      tagged(2, kTag, MsgKind::kOpinion, 20, Value::real(9.0)),
      tagged(2, kTag, MsgKind::kStrongPrefer, 40, Value::real(3.0)),
      tagged(5, kTag, MsgKind::kStrongPrefer, 60, Value::real(3.0))};
  EXPECT_TRUE(step(machine, p5_inbox).empty());
  EXPECT_EQ(machine.instance_count(), 4u) << "40 adopted, 60 not";
  EXPECT_FALSE(machine.terminated()) << "pair 20 runs on";
  EXPECT_EQ(machine.outputs(), (std::vector<OutputPair>{{10, one}}));

  // Phase 2 P1: only pair 20 is live, with the coordinator's first opinion.
  const auto phase2 = step(machine, {});
  ASSERT_EQ(phase2.size(), 1u);
  EXPECT_TRUE(sends(phase2, MsgKind::kInput, 20, Value::real(6.0)));
}

/// Sends an init under tag 0 in round 1, so it counts toward every n_v,
/// then (if noisy) Alg. 5 traffic for fresh and live pair ids under tags 1–3.
class TagNoise final : public Process {
 public:
  TagNoise(NodeId self, bool noisy) : Process(self), noisy_(noisy) {}
  void on_round(RoundInfo round, std::span<const Message>, std::vector<Outgoing>& out) override {
    if (round.local == 1) {
      broadcast(out, Message{.kind = MsgKind::kInit});
      return;
    }
    if (!noisy_) return;
    for (InstanceTag tag : {1u, 2u, 3u}) {
      for (MsgKind kind : {MsgKind::kInit, MsgKind::kEcho, MsgKind::kInput, MsgKind::kPrefer,
                           MsgKind::kStrongPrefer, MsgKind::kOpinion}) {
        for (PairId pair : {PairId{5}, PairId{1000 + tag}}) {
          broadcast(out, Message{.kind = kind, .subject = pair, .instance = tag,
                                 .value = Value::real(-1.0)});
        }
      }
    }
  }
  [[nodiscard]] bool byzantine() const override { return true; }

 private:
  bool noisy_;
};

TEST(ParallelConsensusProcess, IgnoresNoiseOnOtherTags) {
  struct Result {
    std::vector<std::vector<OutputPair>> outputs;
    std::vector<std::size_t> instances;
    Round rounds = 0;
  };
  auto run = [](bool noisy) {
    SyncSimulator sim;
    const std::vector<NodeId> ids{11, 22, 33, 44};
    for (NodeId id : ids) {
      sim.add_process(std::make_unique<ParallelConsensusProcess>(
          id, std::vector<InputPair>{{.id = 5, .value = Value::real(2.0)}}));
    }
    sim.add_process(std::make_unique<TagNoise>(99, noisy));
    Result result;
    EXPECT_TRUE(sim.run_until_all_correct_done(60));
    result.rounds = sim.metrics().rounds_executed;
    for (NodeId id : ids) {
      const auto* p = sim.get<ParallelConsensusProcess>(id);
      result.outputs.push_back(p->outputs());
      result.instances.push_back(p->machine().instance_count());
    }
    return result;
  };
  const Result quiet = run(false);
  const Result noisy = run(true);
  EXPECT_EQ(noisy.outputs, quiet.outputs);
  EXPECT_EQ(noisy.instances, quiet.instances);
  EXPECT_EQ(noisy.rounds, quiet.rounds);
  ASSERT_EQ(quiet.outputs.front().size(), 1u);
  EXPECT_EQ(quiet.outputs.front().front().value, Value::real(2.0));
  EXPECT_EQ(quiet.instances.front(), 1u) << "no pair id of tags 1-3 was adopted";
}

}  // namespace
}  // namespace idonly
