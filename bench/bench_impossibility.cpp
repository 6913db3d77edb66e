// E6 — Synchrony is necessary: disagreement probability of the best-effort
// quiet-window protocol as the (unknown) partition bound Δ, in rounds, sweeps
// through the decision round T. The paper's two lemmas predict: 0 while the
// partition ends before T − 1, → 1 once it covers T − 1 (asynchronous
// limit: the partition outlasts T).
#include <benchmark/benchmark.h>

#include <memory>

#include "common/chaos.hpp"
#include "common/rng.hpp"
#include "core/consensus.hpp"
#include "harness/scenario.hpp"
#include "impossibility/partition.hpp"
#include "net/sync_simulator.hpp"

namespace idonly {
namespace {

void BM_SemiSyncSweep(benchmark::State& state) {
  // Δ = arg rounds against T = 10. The rate is computed once over a fixed
  // seed, so the printed counters do not depend on the iteration count; the
  // timed loop runs one partition execution of length Δ.
  constexpr Round kDecideRound = 10;
  const Round delta = state.range(0);
  const double rate = semi_sync_disagreement_rate(4, 4, delta, kDecideRound, /*trials=*/40,
                                                  /*seed=*/1);
  for (auto _ : state) {
    auto result = run_partition_execution({4, 4, delta, kDecideRound});
    benchmark::DoNotOptimize(result);
  }
  state.counters["delta_over_T"] = static_cast<double>(delta) / kDecideRound;
  state.counters["disagreement_rate"] = rate;
}
BENCHMARK(BM_SemiSyncSweep)
    ->Arg(2)->Arg(5)->Arg(8)->Arg(9)->Arg(10)->Arg(12)->Arg(15)->Arg(20)->Arg(50)->Arg(200)
    ->Unit(benchmark::kMillisecond);

void BM_PartitionOutlastsDecision(benchmark::State& state) {
  // The asynchronous lemma: the partition never ends before T.
  const auto side = static_cast<std::size_t>(state.range(0));
  const PartitionConfig config{side, side, /*partition_rounds=*/1000, /*decide_round=*/10};
  const bool disagreement = run_partition_execution(config).disagreement;
  for (auto _ : state) {
    auto result = run_partition_execution(config);
    benchmark::DoNotOptimize(result);
  }
  state.counters["disagreement"] = disagreement ? 1 : 0;
}
BENCHMARK(BM_PartitionOutlastsDecision)->Arg(2)->Arg(4)->Arg(8)->Arg(16)
    ->Unit(benchmark::kMicrosecond);

// E6b — the constructive companion: run the paper's OWN consensus algorithm
// while a chaos schedule delays a fraction p of all messages by 1–3 rounds
// (violating the synchronous model; loopback stays on time). p = 0 is the
// in-model control.
void BM_DesyncedConsensus(benchmark::State& state) {
  constexpr Round kRoundBudget = 250;
  const double p = static_cast<double>(state.range(0)) / 100.0;
  int trials = 0;
  int undecided = 0;
  int disagreements = 0;
  std::uint64_t seed = 0;
  for (auto _ : state) {
    seed += 1;
    trials += 1;
    ScenarioConfig config;
    config.n_correct = 7;
    config.n_byzantine = 2;
    config.adversary = AdversaryKind::kSilent;
    config.seed = seed;
    const Scenario scenario = make_scenario(config);
    SyncSimulator sim;
    ChaosPhase phase;
    phase.first_round = 1;
    phase.last_round = kRoundBudget;
    phase.delay = DelaySpec{p, 3};
    sim.set_chaos(
        std::make_shared<ChaosSchedule>(ChaosPlan{{phase}}, derive_seed(seed, 0xDE1A)));
    auto factory = [&](NodeId id, std::size_t index) -> std::unique_ptr<Process> {
      return std::make_unique<ConsensusProcess>(id, Value::real(static_cast<double>(index % 2)));
    };
    populate(sim, scenario, factory);
    const bool decided = sim.run_until_all_correct_done(kRoundBudget);
    if (!decided) undecided += 1;
    std::optional<Value> first;
    bool agreement = true;
    for (NodeId id : scenario.correct_ids) {
      auto* proc = sim.get<ConsensusProcess>(id);
      if (proc == nullptr || !proc->output().has_value()) continue;
      if (!first.has_value()) first = *proc->output();
      agreement = agreement && *proc->output() == *first;
    }
    if (!agreement) disagreements += 1;
    benchmark::DoNotOptimize(decided);
  }
  state.counters["delay_prob"] = p;
  state.counters["undecided_rate"] = trials == 0 ? 0 : static_cast<double>(undecided) / trials;
  state.counters["disagreement_rate"] =
      trials == 0 ? 0 : static_cast<double>(disagreements) / trials;
}
BENCHMARK(BM_DesyncedConsensus)->Arg(0)->Arg(2)->Arg(5)->Arg(10)->Arg(25)->Arg(50)
    ->Unit(benchmark::kMillisecond)->Iterations(20);

}  // namespace
}  // namespace idonly

BENCHMARK_MAIN();
