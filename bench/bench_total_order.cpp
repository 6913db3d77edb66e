// E7 — Dynamic total ordering: chain growth rate, finality lag (Theorem 6's
// 5|S|/2 + 2 envelope), and behaviour under churn and Byzantine presence.
// E16 — what a Byzantine member can force on correct nodes by injecting
// fresh pair ids (BM_Ledger_PairIdInjection).
#include <benchmark/benchmark.h>

#include <chrono>
#include <memory>

#include "adversary/strategies.hpp"
#include "core/total_order.hpp"
#include "net/sync_simulator.hpp"

namespace idonly {
namespace {

struct LedgerResult {
  std::size_t chain_len = 0;
  Round finality_lag = 0;  // protocol round minus finalized_upto at the end
  std::uint64_t messages = 0;
};

LedgerResult run_ledger(std::size_t founders, std::size_t byzantine, int event_rounds,
                        bool churn) {
  SyncSimulator sim;
  std::vector<NodeId> ids;
  for (std::size_t i = 0; i < founders; ++i) {
    ids.push_back(100 + 13 * i);
    sim.add_process(std::make_unique<TotalOrderProcess>(ids.back(), /*founder=*/true));
  }
  for (std::size_t i = 0; i < byzantine; ++i) {
    sim.add_process(std::make_unique<SilentAdversary>(9000 + i));
  }
  sim.run_rounds(3);
  auto node = [&sim](NodeId id) { return sim.get<TotalOrderProcess>(id); };
  for (int i = 0; i < event_rounds; ++i) {
    node(ids[static_cast<std::size_t>(i) % ids.size()])->submit_event(static_cast<double>(i));
    if (churn && i == event_rounds / 2) {
      sim.add_process(std::make_unique<TotalOrderProcess>(777, /*founder=*/false));
    }
    sim.step();
  }
  sim.run_rounds(5 * static_cast<Round>(founders) / 2 + 12);
  LedgerResult result;
  result.chain_len = node(ids[0])->chain().size();
  result.finality_lag = node(ids[0])->protocol_round() - node(ids[0])->finalized_upto();
  result.messages = sim.metrics().messages.total_delivered();
  return result;
}

void BM_Ledger_Throughput(benchmark::State& state) {
  const auto founders = static_cast<std::size_t>(state.range(0));
  const int event_rounds = 15;
  LedgerResult result;
  for (auto _ : state) {
    result = run_ledger(founders, 0, event_rounds, /*churn=*/false);
    benchmark::DoNotOptimize(result.chain_len);
  }
  state.counters["chain_len"] = static_cast<double>(result.chain_len);
  state.counters["events_submitted"] = event_rounds;
  state.counters["finality_lag"] = static_cast<double>(result.finality_lag);
  state.counters["finality_bound"] = 5.0 * static_cast<double>(founders) / 2.0 + 2.0;
  state.counters["messages"] = static_cast<double>(result.messages);
}
BENCHMARK(BM_Ledger_Throughput)->Arg(4)->Arg(5)->Arg(7)->Arg(10)
    ->Unit(benchmark::kMillisecond)->Iterations(3);

void BM_Ledger_WithByzantine(benchmark::State& state) {
  const auto founders = static_cast<std::size_t>(state.range(0));
  const auto byz = static_cast<std::size_t>(state.range(1));
  LedgerResult result;
  for (auto _ : state) {
    result = run_ledger(founders, byz, 12, /*churn=*/false);
    benchmark::DoNotOptimize(result.chain_len);
  }
  state.counters["chain_len"] = static_cast<double>(result.chain_len);
  state.counters["finality_lag"] = static_cast<double>(result.finality_lag);
}
BENCHMARK(BM_Ledger_WithByzantine)->Args({7, 2})->Args({10, 3})
    ->Unit(benchmark::kMillisecond)->Iterations(3);

void BM_Ledger_WithChurn(benchmark::State& state) {
  const auto founders = static_cast<std::size_t>(state.range(0));
  LedgerResult result;
  for (auto _ : state) {
    result = run_ledger(founders, 0, 16, /*churn=*/true);
    benchmark::DoNotOptimize(result.chain_len);
  }
  state.counters["chain_len"] = static_cast<double>(result.chain_len);
  state.counters["finality_lag"] = static_cast<double>(result.finality_lag);
}
BENCHMARK(BM_Ledger_WithChurn)->Arg(5)->Arg(7)
    ->Unit(benchmark::kMillisecond)->Iterations(3);


/// A founder that runs the protocol faithfully and, every round from its
/// third main-loop round on, broadcasts phase-1 `input` messages for `k`
/// fresh pair ids under the instance tag whose machines are at phase-1
/// round 2, the round that adopts unknown ids. Every correct node adopts
/// each id and runs its instance to a ⊥ decision.
class PairIdInjector final : public ByzantineProcess {
 public:
  PairIdInjector(NodeId self, std::size_t k)
      : ByzantineProcess(self), face_(self, /*founder=*/true), k_(k) {}

  void on_round(RoundInfo round, std::span<const Message> inbox,
                std::vector<Outgoing>& out) override {
    face_.on_round(round, inbox, out);
    // The face's instance tagged r - 2 broadcasts its phase-1 inputs now.
    const Round r = face_.protocol_round();
    if (r < 3) return;
    for (std::size_t i = 0; i < k_; ++i) {
      Message m;
      m.kind = MsgKind::kInput;
      m.instance = static_cast<InstanceTag>(r - 2);
      m.subject = (id() << 32) + next_pair_++;
      m.value = Value::real(1.0);
      broadcast(out, m);
    }
  }

 private:
  TotalOrderProcess face_;
  std::size_t k_;
  PairId next_pair_ = 0;
};

/// Times a correct node's protocol step and counts the deliveries it reads.
class TimedNode final : public Process {
 public:
  explicit TimedNode(std::unique_ptr<Process> inner)
      : Process(inner->id()), inner_(std::move(inner)) {}

  void on_round(RoundInfo round, std::span<const Message> inbox,
                std::vector<Outgoing>& out) override {
    const auto start = std::chrono::steady_clock::now();
    inner_->on_round(round, inbox, out);
    step_ns += std::chrono::duration_cast<std::chrono::nanoseconds>(
                   std::chrono::steady_clock::now() - start)
                   .count();
    deliveries += inbox.size();
  }
  [[nodiscard]] bool done() const override { return inner_->done(); }
  [[nodiscard]] Process& inner() { return *inner_; }

  std::int64_t step_ns = 0;
  std::uint64_t deliveries = 0;

 private:
  std::unique_ptr<Process> inner_;
};

void BM_Ledger_PairIdInjection(benchmark::State& state) {
  // 16 correct founders and 2 injectors (n > 3f), 60 rounds at 1 thread;
  // one event per round keeps the real instances non-empty.
  const auto k = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kCorrect = 16;
  constexpr std::size_t kInjectors = 2;
  constexpr Round kRounds = 60;
  std::int64_t step_ns = 0;
  std::uint64_t deliveries = 0;
  std::size_t chain_len = 0;
  for (auto _ : state) {
    SyncSimulator sim;
    std::vector<NodeId> ids;
    for (std::size_t i = 0; i < kCorrect; ++i) {
      ids.push_back(100 + 13 * i);
      sim.add_process(std::make_unique<TimedNode>(
          std::make_unique<TotalOrderProcess>(ids.back(), /*founder=*/true)));
    }
    for (std::size_t i = 0; i < kInjectors; ++i) {
      sim.add_process(std::make_unique<PairIdInjector>(9000 + i, k));
    }
    auto node = [&sim](NodeId id) { return sim.get<TimedNode>(id); };
    for (Round round = 0; round < kRounds; ++round) {
      auto& ledger = dynamic_cast<TotalOrderProcess&>(
          node(ids[static_cast<std::size_t>(round) % ids.size()])->inner());
      ledger.submit_event(static_cast<double>(round));
      sim.step();
    }
    step_ns = 0;
    deliveries = 0;
    for (NodeId id : ids) {
      step_ns += node(id)->step_ns;
      deliveries += node(id)->deliveries;
    }
    chain_len = dynamic_cast<TotalOrderProcess&>(node(ids[0])->inner()).chain().size();
    benchmark::DoNotOptimize(chain_len);
  }
  state.counters["injected_per_round"] = static_cast<double>(k * kInjectors);
  state.counters["correct_deliveries_per_round"] =
      static_cast<double>(deliveries) / static_cast<double>(kRounds);
  state.counters["ns_per_delivery"] =
      static_cast<double>(step_ns) / static_cast<double>(deliveries);
  state.counters["step_ms_per_round"] =
      static_cast<double>(step_ns) / 1e6 / static_cast<double>(kRounds);
  state.counters["chain_len"] = static_cast<double>(chain_len);
}
BENCHMARK(BM_Ledger_PairIdInjection)->Arg(0)->Arg(4)->Arg(16)->Arg(64)
    ->Unit(benchmark::kMillisecond)->Iterations(1);

}  // namespace
}  // namespace idonly

BENCHMARK_MAIN();
