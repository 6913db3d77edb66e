// §Synchrony is Necessary: the partition constructions must produce
// disagreement exactly when the lemmas say they can — and synchrony-like
// configurations must stay safe.
#include <gtest/gtest.h>

#include "impossibility/partition.hpp"

namespace idonly {
namespace {

TEST(Impossibility, AsyncPartitionForcesDisagreement) {
  // Lemma (asynchronous): a partition that outlasts both sides' decisions →
  // A decides 1, B decides 0.
  PartitionConfig config;
  config.partition_rounds = 1000;
  config.decide_round = 10;
  const auto result = run_partition_execution(config);
  EXPECT_TRUE(result.all_decided);
  EXPECT_TRUE(result.disagreement);
  for (double d : result.decisions_a) EXPECT_DOUBLE_EQ(d, 1.0);
  for (double d : result.decisions_b) EXPECT_DOUBLE_EQ(d, 0.0);
}

TEST(Impossibility, FastCrossTrafficPreservesAgreement) {
  // When the decision round outlasts the partition (a de-facto synchronous
  // configuration) everyone hears everyone and decides identically.
  PartitionConfig config;
  config.partition_rounds = 2;
  config.decide_round = 10;
  config.n_a = 5;
  config.n_b = 4;  // majority exists → common majority decision
  const auto result = run_partition_execution(config);
  EXPECT_TRUE(result.all_decided);
  EXPECT_FALSE(result.disagreement);
}

TEST(Impossibility, DisagreementIsDelayTimeoutRace) {
  // Sweep the partition length through the decision round: disagreement
  // appears exactly when no cross value arrives by round T, i.e. once the
  // partition covers round T − 1 (a round-r send arrives in round r + 1).
  PartitionConfig config;
  config.decide_round = 10;
  config.n_a = 4;
  config.n_b = 3;
  for (Round cut : {1, 5, 8}) {
    config.partition_rounds = cut;
    EXPECT_FALSE(run_partition_execution(config).disagreement) << cut;
  }
  for (Round cut : {9, 11, 50, 1000}) {
    config.partition_rounds = cut;
    EXPECT_TRUE(run_partition_execution(config).disagreement) << cut;
  }
}

TEST(Impossibility, StepSitsAtDecisionRoundMinusOneOnAnyThreadCount) {
  // The step lies at Δ = T − 1 at every size, and the lemma run's per-node
  // decisions do not depend on how many threads step the round.
  constexpr Round kDecideRound = 10;
  for (std::size_t side : {4, 16}) {
    for (Round cut = 0; cut <= 2 * kDecideRound; ++cut) {
      const PartitionConfig config{side, side, cut, kDecideRound};
      const auto one = run_partition_execution(config, 1);
      const auto four = run_partition_execution(config, 4);
      EXPECT_TRUE(one.all_decided) << side << " " << cut;
      EXPECT_EQ(one.disagreement, cut >= kDecideRound - 1) << side << " " << cut;
      EXPECT_EQ(one.decisions_a, four.decisions_a) << side << " " << cut;
      EXPECT_EQ(one.decisions_b, four.decisions_b) << side << " " << cut;
      EXPECT_EQ(one.decisions_a.size() + one.decisions_b.size(), 2 * side);
    }
  }
}

TEST(Impossibility, SemiSyncRateHighWhenDeltaExceedsTimeout) {
  // Semi-synchronous lemma: Δ unknown to the nodes. Against Δ = 10·T the
  // adversary (near-bound partitions) wins essentially always.
  const double rate = semi_sync_disagreement_rate(4, 4, /*delta=*/100, /*decide_round=*/10,
                                                  /*trials=*/50, /*seed=*/1);
  EXPECT_GT(rate, 0.9);
}

TEST(Impossibility, SemiSyncRateZeroWhenTimeoutCoversDelta) {
  const double rate = semi_sync_disagreement_rate(4, 4, /*delta=*/5, /*decide_round=*/10,
                                                  /*trials=*/50, /*seed=*/2);
  EXPECT_DOUBLE_EQ(rate, 0.0);
}

TEST(Impossibility, RateMonotoneInDelta) {
  // The sharp transition the lemma predicts: rate is (weakly) increasing in
  // Δ/T across the boundary.
  double prev = -1.0;
  for (Round delta : {2, 8, 12, 40, 200}) {
    const double rate =
        semi_sync_disagreement_rate(4, 4, delta, /*decide_round=*/10, /*trials=*/40, /*seed=*/3);
    EXPECT_GE(rate + 0.15, prev) << "delta=" << delta;  // slack for sampling noise
    prev = rate;
  }
}

}  // namespace
}  // namespace idonly
