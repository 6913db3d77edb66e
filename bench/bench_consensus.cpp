// E3 — Consensus: phases/rounds to decide vs. f (O(f), Theorem 3) and vs. n
// (flat), the unanimous-input fast path, and the known-n,f phase-king
// baseline the algorithm generalizes.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdint>
#include <memory>

#include "baselines/phase_king.hpp"
#include "harness/runner.hpp"
#include "net/sync_simulator.hpp"

namespace idonly {
namespace {

void BM_Consensus_VaryF(benchmark::State& state) {
  const auto f = static_cast<std::size_t>(state.range(0));
  ScenarioConfig config;
  config.n_correct = 2 * f + 1 + 8;  // keep n comfortably above 3f, grow with f
  config.n_byzantine = f;
  config.adversary = f == 0 ? AdversaryKind::kNone : AdversaryKind::kVoteSplit;
  ConsensusRun last;
  for (auto _ : state) {
    config.seed += 1;
    last = run_consensus(config, {0.0, 1.0, 1.0, 0.0});
    benchmark::DoNotOptimize(last.agreement);
  }
  state.counters["phases"] = static_cast<double>(last.max_decision_phase);
  state.counters["rounds"] = static_cast<double>(last.rounds);
  state.counters["agreement"] = last.agreement ? 1 : 0;
  state.counters["messages"] = static_cast<double>(last.messages);
}
BENCHMARK(BM_Consensus_VaryF)->Arg(0)->Arg(1)->Arg(2)->Arg(3)->Arg(4)->Arg(5)
    ->Unit(benchmark::kMillisecond);

void BM_Consensus_VaryN(benchmark::State& state) {
  const auto n_correct = static_cast<std::size_t>(state.range(0));
  ScenarioConfig config;
  config.n_correct = n_correct;
  config.n_byzantine = 2;
  config.adversary = AdversaryKind::kTwoFaced;
  ConsensusRun last;
  std::chrono::nanoseconds elapsed{0};
  std::uint64_t deliveries = 0;
  for (auto _ : state) {
    config.seed += 1;
    const auto start = std::chrono::steady_clock::now();
    last = run_consensus(config, {0.0, 1.0});
    elapsed += std::chrono::steady_clock::now() - start;
    deliveries += last.messages;
    benchmark::DoNotOptimize(last.agreement);
  }
  state.counters["phases"] = static_cast<double>(last.max_decision_phase);
  state.counters["rounds"] = static_cast<double>(last.rounds);
  state.counters["messages"] = static_cast<double>(last.messages);
  // Wall time per delivered message: deliveries grow as n³ (Alg. 1's
  // every-round re-echo), so this is the figure that should stay flat in n.
  state.counters["ns_per_delivery"] =
      deliveries == 0 ? 0.0
                      : static_cast<double>(elapsed.count()) / static_cast<double>(deliveries);
}
BENCHMARK(BM_Consensus_VaryN)->Arg(7)->Arg(13)->Arg(25)->Arg(49)->Arg(128)->Arg(256)
    ->Unit(benchmark::kMillisecond);

void BM_Consensus_UnanimousFastPath(benchmark::State& state) {
  const auto n_correct = static_cast<std::size_t>(state.range(0));
  ScenarioConfig config;
  config.n_correct = n_correct;
  config.n_byzantine = 2;
  config.adversary = AdversaryKind::kNoise;
  ConsensusRun last;
  for (auto _ : state) {
    config.seed += 1;
    last = run_consensus(config, {7.0});
    benchmark::DoNotOptimize(last.agreement);
  }
  state.counters["phases"] = static_cast<double>(last.max_decision_phase);  // expect 1
  state.counters["rounds"] = static_cast<double>(last.rounds);
}
BENCHMARK(BM_Consensus_UnanimousFastPath)->Arg(7)->Arg(13)->Arg(25)
    ->Unit(benchmark::kMillisecond);

void BM_PhaseKing_KnownNf(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto f = static_cast<std::size_t>(state.range(1));
  Round rounds = 0;
  std::uint64_t messages = 0;
  std::int64_t phases = 0;
  for (auto _ : state) {
    SyncSimulator sim;
    std::vector<NodeId> roster;
    for (std::size_t i = 0; i < n; ++i) roster.push_back(100 + 3 * i);
    // f of the roster crash from the start (silent) — the classical model's
    // benign worst case for round counting.
    for (std::size_t i = 0; i < n - f; ++i) {
      sim.add_process(std::make_unique<PhaseKingProcess>(
          roster[i], Value::real(static_cast<double>(i % 2)), roster, f));
    }
    sim.run_until_all_correct_done(400);
    rounds = sim.round();
    messages = sim.metrics().messages.total_delivered();
    for (std::size_t i = 0; i < n - f; ++i) {
      auto* p = sim.get<PhaseKingProcess>(roster[i]);
      if (p->decision_phase().has_value()) phases = std::max(phases, *p->decision_phase());
    }
    benchmark::DoNotOptimize(rounds);
  }
  state.counters["phases"] = static_cast<double>(phases);
  state.counters["rounds"] = static_cast<double>(rounds);
  state.counters["messages"] = static_cast<double>(messages);
}
BENCHMARK(BM_PhaseKing_KnownNf)->Args({7, 2})->Args({13, 4})->Args({25, 8})
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace idonly

BENCHMARK_MAIN();
