// E6 — Synchrony is necessary: disagreement probability of the best-effort
// timeout protocol as the (unknown) delay bound Δ sweeps through the
// decision timeout T. The paper's two lemmas predict: ~0 when T covers Δ,
// → 1 when Δ outruns T (asynchronous limit).
#include <benchmark/benchmark.h>

#include <memory>

#include "common/chaos.hpp"
#include "common/rng.hpp"
#include "core/consensus.hpp"
#include "harness/scenario.hpp"
#include "impossibility/async_partition.hpp"
#include "net/sync_simulator.hpp"

namespace idonly {
namespace {

void BM_SemiSyncSweep(benchmark::State& state) {
  // Δ = ratio/10 × T, T = 10.
  const double ratio = static_cast<double>(state.range(0)) / 10.0;
  const double timeout = 10.0;
  const double delta = ratio * timeout;
  double rate = 0;
  std::uint64_t seed = 0;
  for (auto _ : state) {
    seed += 1;
    rate = semi_sync_disagreement_rate(4, 4, delta, timeout, /*trials=*/40, seed);
    benchmark::DoNotOptimize(rate);
  }
  state.counters["delta_over_T"] = ratio;
  state.counters["disagreement_rate"] = rate;
}
BENCHMARK(BM_SemiSyncSweep)
    ->Arg(2)->Arg(5)->Arg(8)->Arg(10)->Arg(12)->Arg(15)->Arg(20)->Arg(50)->Arg(200)
    ->Unit(benchmark::kMillisecond)->Iterations(3);

void BM_AsyncPartitionDeterministic(benchmark::State& state) {
  PartitionConfig config;
  config.n_a = static_cast<std::size_t>(state.range(0));
  config.n_b = static_cast<std::size_t>(state.range(0));
  config.cross_delay = 1e6;  // effectively unbounded — the async lemma
  config.decide_timeout = 10.0;
  bool disagreement = false;
  for (auto _ : state) {
    const auto result = run_partition_execution(config);
    disagreement = result.disagreement;
    benchmark::DoNotOptimize(disagreement);
  }
  state.counters["disagreement"] = disagreement ? 1 : 0;
}
BENCHMARK(BM_AsyncPartitionDeterministic)->Arg(2)->Arg(4)->Arg(8)->Arg(16)
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
