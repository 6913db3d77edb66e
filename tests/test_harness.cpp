// Harness tests: scenario construction must be deterministic, ids sparse and
// disjoint, adversary factory total, and quorum bookkeeping exact.
#include <gtest/gtest.h>

#include <set>

#include "core/participant_tracker.hpp"
#include "harness/scenario.hpp"

namespace idonly {
namespace {

TEST(Scenario, DeterministicInSeed) {
  ScenarioConfig config;
  config.n_correct = 10;
  config.n_byzantine = 3;
  config.seed = 99;
  const Scenario a = make_scenario(config);
  const Scenario b = make_scenario(config);
  EXPECT_EQ(a.correct_ids, b.correct_ids);
  EXPECT_EQ(a.byzantine_ids, b.byzantine_ids);
  config.seed = 100;
  const Scenario c = make_scenario(config);
  EXPECT_NE(a.correct_ids, c.correct_ids);
}

TEST(Scenario, IdsSparseDistinctAndDisjoint) {
  ScenarioConfig config;
  config.n_correct = 20;
  config.n_byzantine = 6;
  config.seed = 5;
  const Scenario scenario = make_scenario(config);
  EXPECT_EQ(scenario.correct_ids.size(), 20u);
  EXPECT_EQ(scenario.byzantine_ids.size(), 6u);
  std::set<NodeId> all(scenario.correct_ids.begin(), scenario.correct_ids.end());
  all.insert(scenario.byzantine_ids.begin(), scenario.byzantine_ids.end());
  EXPECT_EQ(all.size(), 26u) << "ids must be distinct across both groups";
  // Sparse: not consecutive (the id-only model's premise).
  bool any_gap = false;
  NodeId prev = 0;
  for (NodeId id : all) {
    if (prev != 0 && id > prev + 1) any_gap = true;
    prev = id;
  }
  EXPECT_TRUE(any_gap);
}

TEST(Scenario, AdversaryMixAssignsRoundRobin) {
  ScenarioConfig config;
  config.n_byzantine = 5;
  config.adversary_mix = {AdversaryKind::kSilent, AdversaryKind::kNoise};
  EXPECT_EQ(adversary_kind_for(config, 0), AdversaryKind::kSilent);
  EXPECT_EQ(adversary_kind_for(config, 1), AdversaryKind::kNoise);
  EXPECT_EQ(adversary_kind_for(config, 2), AdversaryKind::kSilent);
  config.adversary_mix.clear();
  config.adversary = AdversaryKind::kCrash;
  EXPECT_EQ(adversary_kind_for(config, 4), AdversaryKind::kCrash);
}

TEST(Scenario, MixKeepsByzantineIdsEvenWithNoneDefault) {
  ScenarioConfig config;
  config.n_correct = 4;
  config.n_byzantine = 2;
  config.adversary = AdversaryKind::kNone;
  config.adversary_mix = {AdversaryKind::kNoise};
  const Scenario scenario = make_scenario(config);
  EXPECT_EQ(scenario.byzantine_ids.size(), 2u);
}

TEST(Scenario, NoneAdversaryHasNoByzantineIds) {
  ScenarioConfig config;
  config.n_correct = 5;
  config.n_byzantine = 3;
  config.adversary = AdversaryKind::kNone;
  const Scenario scenario = make_scenario(config);
  EXPECT_TRUE(scenario.byzantine_ids.empty());
  EXPECT_EQ(scenario.n(), 5u);
}

TEST(Scenario, ContextListsEveryone) {
  ScenarioConfig config;
  config.n_correct = 4;
  config.n_byzantine = 2;
  const Scenario scenario = make_scenario(config);
  const AdversaryContext context = scenario.context();
  EXPECT_EQ(context.all_ids.size(), 6u);
  EXPECT_EQ(context.correct_ids.size(), 4u);
}

TEST(Scenario, AdversaryFactoryCoversEveryKind) {
  ScenarioConfig config;
  config.n_correct = 4;
  config.n_byzantine = 2;
  for (AdversaryKind kind : all_adversaries()) {
    config.adversary = kind;
    const Scenario scenario = make_scenario(config);
    Rng rng(1);
    auto factory = [](NodeId id, std::size_t) -> std::unique_ptr<Process> {
      return std::make_unique<SilentAdversary>(id);  // placeholder inner
    };
    auto adversary = make_adversary(scenario, kind, scenario.byzantine_ids[0], 0, rng, factory);
    ASSERT_NE(adversary, nullptr) << to_string(kind);
    EXPECT_TRUE(adversary->byzantine()) << to_string(kind);
    EXPECT_FALSE(to_string(kind).empty());
  }
}

// ------------------------------------------------------ quorum bookkeeping --

TEST(ParticipantTracker, CountsDistinctSendersAcrossRounds) {
  ParticipantTracker tracker;
  Message a;
  a.sender = 1;
  Message b;
  b.sender = 2;
  std::vector<Message> round1{a, b, a};
  tracker.note(round1);
  EXPECT_EQ(tracker.n_v(), 2u);
  std::vector<Message> round2{b};
  tracker.note(round2);
  EXPECT_EQ(tracker.n_v(), 2u);
  tracker.note(NodeId{3});
  EXPECT_EQ(tracker.n_v(), 3u);
  EXPECT_TRUE(tracker.knows(1));
  EXPECT_FALSE(tracker.knows(9));
}

TEST(QuorumCounter, DistinctSendersPerKey) {
  QuorumCounter<Value> counter;
  EXPECT_TRUE(counter.add(Value::real(1), 10));
  EXPECT_FALSE(counter.add(Value::real(1), 10)) << "same sender counted once";
  EXPECT_TRUE(counter.add(Value::real(1), 11));
  EXPECT_TRUE(counter.add(Value::real(2), 10));
  EXPECT_EQ(counter.count(Value::real(1)), 2u);
  EXPECT_EQ(counter.count(Value::real(2)), 1u);
  EXPECT_EQ(counter.count(Value::real(3)), 0u);
}

TEST(QuorumCounter, BestPicksLargestThenSmallestKey) {
  QuorumCounter<Value> counter;
  counter.add(Value::real(5), 1);
  counter.add(Value::real(5), 2);
  counter.add(Value::real(3), 3);
  counter.add(Value::real(3), 4);
  const auto best = counter.best();
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(best->first, Value::real(3)) << "tie → smaller key (⊥ < reals, then numeric)";
  EXPECT_EQ(best->second, 2u);
  counter.add(Value::real(5), 5);
  EXPECT_EQ(counter.best()->first, Value::real(5));
}

TEST(QuorumCounter, EmptyHasNoBest) {
  QuorumCounter<NodeId> counter;
  EXPECT_FALSE(counter.best().has_value());
  counter.add(7, 1);
  counter.clear();
  EXPECT_FALSE(counter.best().has_value());
}

TEST(QuorumCounter, KeysAfterClearStartEmptyInReusedStorage) {
  // clear() keeps the sender sets for the next keys; none may carry a
  // sender over, and a sized add counts exactly like a plain one.
  QuorumCounter<Value> counter;
  for (NodeId sender = 1; sender <= 40; ++sender) counter.add(Value::real(1), sender);
  counter.add(Value::real(2), 7);
  counter.clear();
  EXPECT_TRUE(counter.all().empty());
  EXPECT_TRUE(counter.add(Value::real(3), 5, [] { return std::size_t{64}; }));
  EXPECT_FALSE(counter.add(Value::real(3), 5, [] { return std::size_t{64}; }));
  EXPECT_TRUE(counter.add(Value::real(1), 40));
  EXPECT_TRUE(counter.add(Value::real(4), 1));
  EXPECT_EQ(counter.count(Value::real(1)), 1u);
  EXPECT_EQ(counter.count(Value::real(3)), 1u);
  EXPECT_EQ(counter.count(Value::real(4)), 1u);
  EXPECT_EQ(counter.count(Value::real(2)), 0u);
  EXPECT_EQ(counter.all().size(), 3u);
  EXPECT_EQ(counter.best()->first, Value::real(1)) << "tie → smallest key";
}

}  // namespace
}  // namespace idonly
