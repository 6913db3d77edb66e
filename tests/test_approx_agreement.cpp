// Approximate agreement (Alg. 4): outputs inside the correct input range and
// range at least halved per iteration (Theorem 4), under the worst
// value-reporting adversaries.
#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>

#include "common/thresholds.hpp"
#include "core/approx_agreement.hpp"
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

// ---------------------------------------------------- pure reduction rule --

TEST(ApproxStep, EmptyInputIsNullopt) {
  EXPECT_FALSE(approx_agree_step({}).has_value());
}

TEST(ApproxStep, SingleValuePassesThrough) {
  EXPECT_DOUBLE_EQ(*approx_agree_step({3.0}), 3.0);
}

TEST(ApproxStep, TrimsFloorThirdEachSide) {
  // n_v = 6 → trim 2 each side → midpoint of remaining {3, 4} = 3.5.
  EXPECT_DOUBLE_EQ(*approx_agree_step({1, 2, 3, 4, 100, 200}), 3.5);
}

TEST(ApproxStep, ExtremeOutliersDiscarded) {
  // One Byzantine extreme among 4 values: trim floor(4/3)=1 per side.
  EXPECT_DOUBLE_EQ(*approx_agree_step({0.0, 0.1, 0.2, 1e9}), 0.15);
}

TEST(ApproxStep, OrderInsensitive) {
  EXPECT_DOUBLE_EQ(*approx_agree_step({5, 1, 3, 2, 4}), *approx_agree_step({1, 2, 3, 4, 5}));
}

// --------------------------------------------------------- full protocol --

TEST(ApproxAgreement, SingleShotHalvesRange) {
  // 7 correct inputs spanning [0, 6]; 2 extreme adversaries. Theorem 4:
  // output range ≤ input range / 2.
  const auto run = run_approx_agreement(config_for(7, 2, AdversaryKind::kExtreme, 1),
                                        {0, 1, 2, 3, 4, 5, 6});
  EXPECT_TRUE(run.within_input_range);
  EXPECT_LE(run.output_range, run.input_range / 2.0 + 1e-12);
}

TEST(ApproxAgreement, IdenticalInputsStayPut) {
  const auto run = run_approx_agreement(config_for(7, 2, AdversaryKind::kExtreme, 2), {4.0});
  EXPECT_TRUE(run.within_input_range);
  EXPECT_DOUBLE_EQ(run.output_range, 0.0);
}

TEST(ApproxAgreement, IteratedConvergesExponentially) {
  const int iterations = 10;
  const auto run = run_approx_agreement(config_for(10, 3, AdversaryKind::kExtreme, 3),
                                        {0, 10, 20, 30, 40, 50, 60, 70, 80, 90}, iterations);
  EXPECT_TRUE(run.within_input_range);
  ASSERT_EQ(run.range_per_iteration.size(), static_cast<std::size_t>(iterations));
  // Each iteration at least halves the range of correct values.
  double bound = run.input_range;
  for (double range : run.range_per_iteration) {
    bound /= 2.0;
    EXPECT_LE(range, bound + 1e-9);
  }
  EXPECT_LT(run.range_per_iteration.back(), run.input_range / 500.0);
}

using ApproxSweepParam = std::tuple<std::size_t, std::size_t, AdversaryKind, std::uint64_t>;

class ApproxSweep : public ::testing::TestWithParam<ApproxSweepParam> {};

TEST_P(ApproxSweep, Theorem4Properties) {
  const auto [n_correct, n_byz, adversary, seed] = GetParam();
  std::vector<double> inputs;
  Rng rng(derive_seed(seed, 77));
  for (std::size_t i = 0; i < n_correct; ++i) inputs.push_back(rng.uniform(-50.0, 50.0));
  const auto run = run_approx_agreement(config_for(n_correct, n_byz, adversary, seed), inputs);
  EXPECT_TRUE(run.within_input_range);
  EXPECT_LE(run.output_range, run.input_range / 2.0 + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Adversaries, ApproxSweep,
    ::testing::ValuesIn(resilient_cells({4, 7, 10, 16}, {1, 2},
                                        {AdversaryKind::kSilent, AdversaryKind::kExtreme,
                                         AdversaryKind::kNoise, AdversaryKind::kTwoFaced},
                                        {1, 2, 3})));

INSTANTIATE_TEST_SUITE_P(
    MaxFaults, ApproxSweep,
    ::testing::Combine(::testing::Values<std::size_t>(9, 13),
                       ::testing::Values<std::size_t>(4),
                       ::testing::Values(AdversaryKind::kExtreme, AdversaryKind::kTwoFaced),
                       ::testing::Values<std::uint64_t>(1, 2)));

TEST(ApproxAgreement, MatchesKnownFBaselineConvergence) {
  // §Discussion: "the convergence rate of the approximate agreement
  // algorithm remains unchanged" vs. the classical known-f algorithm. Both
  // must halve per iteration; neither should be more than ~2x the other
  // after k iterations (same exponential order).
  const std::vector<double> inputs{0, 8, 16, 24, 32, 40, 48, 56, 64};
  const int iterations = 6;
  const auto unknown =
      run_approx_agreement(config_for(9, 2, AdversaryKind::kExtreme, 5), inputs, iterations);
  const auto known = run_known_f_approx(9, 2, inputs, iterations, 5);
  ASSERT_FALSE(unknown.range_per_iteration.empty());
  ASSERT_FALSE(known.range_per_iteration.empty());
  const double ratio_unknown = unknown.range_per_iteration.back() / unknown.input_range;
  const double ratio_known = known.range_per_iteration.back() / known.input_range;
  EXPECT_LE(ratio_unknown, 1.0 / (1 << iterations) + 1e-9);
  EXPECT_LE(ratio_known, 1.0 / (1 << iterations) + 1e-9);
}

TEST(ApproxAgreement, DynamicMembershipStillContracts) {
  // §Application to Dynamic Networks: the per-round guarantees hold under
  // churn. A node joins mid-run with an in-range value; ranges keep shrinking.
  SyncSimulator sim;
  const std::vector<double> inputs{0, 2, 4, 6, 8, 10, 12};
  std::vector<NodeId> ids{11, 22, 33, 44, 55, 66, 77};
  for (std::size_t i = 0; i < ids.size(); ++i) {
    sim.add_process(std::make_unique<ApproxAgreementProcess>(ids[i], inputs[i], 8));
  }
  sim.run_rounds(3);
  sim.add_process(std::make_unique<ApproxAgreementProcess>(88, 6.0, 5));
  sim.run_rounds(8);
  std::vector<double> outputs;
  for (NodeId id : ids) {
    auto* p = sim.get<ApproxAgreementProcess>(id);
    ASSERT_NE(p, nullptr);
    outputs.push_back(p->value());
  }
  const auto [lo, hi] = std::minmax_element(outputs.begin(), outputs.end());
  EXPECT_GE(*lo, 0.0);
  EXPECT_LE(*hi, 12.0);
  EXPECT_LT(*hi - *lo, 12.0 / 16.0);
}

}  // namespace
}  // namespace idonly
