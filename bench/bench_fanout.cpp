// Fan-out benchmark with a machine-readable artifact: runs broadcast-heavy
// reliable-broadcast configs at large n (both RB backends) plus the runtime
// hub fan-out, and writes BENCH_fanout.json with per-config rounds/sec,
// deliveries/sec, and the wire-cost figures (bytes/round, syscalls/round,
// and the slab-coalescing factor that CI holds to an absolute floor).
// The file records the machine it ran on (bench_json.hpp). Each entry
// carries the seed-commit baseline (measured on the dev machine before the
// mailbox layer existed) so the speedup is tracked in-tree.
//
// Usage: bench_fanout [output.json]   (default: BENCH_fanout.json)
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "harness/runner.hpp"
#include "net/codec.hpp"
#include "runtime/inmemory_transport.hpp"

namespace idonly {
namespace {

using Clock = std::chrono::steady_clock;

struct FanoutConfig {
  std::size_t n_correct = 0;
  std::size_t n_byz = 0;
  /// rounds/sec at the pre-mailbox seed commit, same machine + build type.
  double seed_baseline_rounds_per_sec = 0;
  /// RB state machine (backend ablation rows set kImbs).
  RbBackendKind backend = RbBackendKind::kAlg1;
};

struct FanoutResult {
  FanoutConfig config;
  double rounds_per_sec = 0;
  double deliveries_per_sec = 0;
  double speedup_vs_seed = 0;
  /// Wire-cost figures, per protocol round (deterministic per config, so
  /// they gate at tight tolerance — see scripts/bench_gate.py).
  double bytes_per_round = 0;
  double syscalls_per_round = 0;           ///< coalesced slab datagrams
  double baseline_syscalls_per_round = 0;  ///< per-message sendto baseline
  /// deliveries / slab_sends — the factor the wire-slab coalescing saves;
  /// ~n for broadcast rounds. CI enforces an absolute floor on this.
  double syscall_coalescing_factor = 0;
};

FanoutResult run_config(const FanoutConfig& config) {
  constexpr Round kRoundsPerRun = 8;
  constexpr double kMinSeconds = 2.0;
  ScenarioConfig scenario;
  scenario.n_correct = config.n_correct;
  scenario.n_byzantine = config.n_byz;
  scenario.adversary = config.n_byz == 0 ? AdversaryKind::kNone : AdversaryKind::kForgedEcho;

  std::uint64_t rounds = 0;
  std::uint64_t deliveries = 0;
  FanoutCounters fanout;
  const auto start = Clock::now();
  double elapsed = 0;
  while (elapsed < kMinSeconds) {
    scenario.seed += 1;
    const ReliableBroadcastRun run =
        run_reliable_broadcast(scenario, 42.0, false, kRoundsPerRun, config.backend);
    rounds += kRoundsPerRun;
    deliveries += run.messages;  // per-recipient deliveries
    fanout += run.fanout;
    elapsed = std::chrono::duration<double>(Clock::now() - start).count();
  }

  FanoutResult result;
  result.config = config;
  result.rounds_per_sec = static_cast<double>(rounds) / elapsed;
  result.deliveries_per_sec = static_cast<double>(deliveries) / elapsed;
  result.speedup_vs_seed = config.seed_baseline_rounds_per_sec > 0
                               ? result.rounds_per_sec / config.seed_baseline_rounds_per_sec
                               : 0;
  const auto per_round = [rounds](std::uint64_t total) {
    return rounds > 0 ? static_cast<double>(total) / static_cast<double>(rounds) : 0.0;
  };
  result.bytes_per_round = per_round(fanout.bytes_delivered);
  result.syscalls_per_round = per_round(fanout.slab_sends);
  result.baseline_syscalls_per_round = per_round(fanout.deliveries);
  result.syscall_coalescing_factor =
      fanout.slab_sends > 0
          ? static_cast<double>(fanout.deliveries) / static_cast<double>(fanout.slab_sends)
          : 0;
  return result;
}

struct HubResult {
  std::size_t endpoints = 0;
  double broadcasts_per_sec = 0;
  double deliveries_per_sec = 0;
  std::uint64_t unique_payloads = 0;
  std::uint64_t bytes_delivered = 0;
};

HubResult run_hub(std::size_t endpoint_count) {
  constexpr double kMinSeconds = 1.0;
  InMemoryHub hub;
  std::vector<std::unique_ptr<InMemoryTransport>> endpoints;
  endpoints.reserve(endpoint_count);
  for (std::size_t i = 0; i < endpoint_count; ++i) endpoints.push_back(hub.make_endpoint());

  Message msg;
  msg.sender = 7;
  msg.kind = MsgKind::kEcho;
  msg.value = Value::real(1.5);
  const auto frame = encode(msg);

  std::uint64_t broadcasts = 0;
  const auto start = Clock::now();
  double elapsed = 0;
  while (elapsed < kMinSeconds) {
    for (int burst = 0; burst < 64; ++burst) {
      endpoints[0]->broadcast(frame);
      broadcasts += 1;
      for (auto& endpoint : endpoints) {
        const auto views = endpoint->drain_views();
        if (views.empty()) std::abort();  // fan-out must reach every endpoint
      }
    }
    elapsed = std::chrono::duration<double>(Clock::now() - start).count();
  }

  const FanoutCounters counters = hub.fanout();
  HubResult result;
  result.endpoints = endpoint_count;
  result.broadcasts_per_sec = static_cast<double>(broadcasts) / elapsed;
  result.deliveries_per_sec = static_cast<double>(counters.deliveries) / elapsed;
  result.unique_payloads = counters.unique_payloads;
  result.bytes_delivered = counters.bytes_delivered;
  return result;
}

bool write_json(const std::string& path, const std::vector<FanoutResult>& results,
                const std::vector<HubResult>& hub_results) {
  std::ofstream out(path);
  out << "{\n  \"benchmark\": \"fanout\",\n  \"machine\": "
      << bench::machine_json(BENCH_BUILD_TYPE) << ",\n  \"configs\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const FanoutResult& r = results[i];
    out << "    {\n"
        << "      \"n_correct\": " << r.config.n_correct << ",\n"
        << "      \"n_byzantine\": " << r.config.n_byz << ",\n"
        << "      \"rb_backend\": \"" << to_string(r.config.backend) << "\",\n"
        << "      \"rounds_per_sec\": " << bench::fixed3(r.rounds_per_sec) << ",\n"
        << "      \"deliveries_per_sec\": " << bench::fixed3(r.deliveries_per_sec) << ",\n"
        << "      \"bytes_per_round\": " << bench::fixed3(r.bytes_per_round) << ",\n"
        << "      \"syscalls_per_round\": " << bench::fixed3(r.syscalls_per_round) << ",\n"
        << "      \"baseline_syscalls_per_round\": "
        << bench::fixed3(r.baseline_syscalls_per_round) << ",\n"
        << "      \"syscall_coalescing_factor\": "
        << bench::fixed3(r.syscall_coalescing_factor) << ",\n"
        << "      \"seed_baseline_rounds_per_sec\": "
        << bench::fixed3(r.config.seed_baseline_rounds_per_sec) << ",\n"
        << "      \"speedup_vs_seed\": " << bench::fixed3(r.speedup_vs_seed) << "\n"
        << "    }" << (i + 1 < results.size() ? "," : "") << "\n";
  }
  out << "  ],\n  \"hub\": [\n";
  for (std::size_t i = 0; i < hub_results.size(); ++i) {
    const HubResult& r = hub_results[i];
    out << "    {\n"
        << "      \"endpoints\": " << r.endpoints << ",\n"
        << "      \"broadcasts_per_sec\": " << bench::fixed3(r.broadcasts_per_sec) << ",\n"
        << "      \"deliveries_per_sec\": " << bench::fixed3(r.deliveries_per_sec) << ",\n"
        << "      \"unique_payloads\": " << r.unique_payloads << ",\n"
        << "      \"bytes_delivered\": " << r.bytes_delivered << "\n"
        << "    }" << (i + 1 < hub_results.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  return out.good();
}

}  // namespace
}  // namespace idonly

int main(int argc, char** argv) {
  using namespace idonly;
  const std::string path = argc > 1 ? argv[1] : "BENCH_fanout.json";

  // Seed baselines: pre-mailbox rounds/sec, RelWithDebInfo, same harness
  // (run_reliable_broadcast, 8 rounds, kNone adversary), dev machine. The
  // Imbs row is the backend ablation (no pre-mailbox baseline exists for
  // it): same n, two-phase witness machine instead of per-round re-echo.
  const std::vector<FanoutConfig> configs = {
      {200, 0, 497.73, RbBackendKind::kAlg1},
      {400, 0, 118.17, RbBackendKind::kAlg1},
      {400, 0, 0, RbBackendKind::kImbs},
  };

  std::vector<FanoutResult> results;
  for (const FanoutConfig& config : configs) {
    const FanoutResult r = run_config(config);
    std::printf(
        "rb n=%zu+%zu %s: %.2f rounds/sec, %.3g deliveries/sec (%.2fx vs seed), "
        "%.1f syscalls/round vs %.1f per-message (%.1fx coalescing)\n",
        r.config.n_correct, r.config.n_byz, to_string(r.config.backend), r.rounds_per_sec,
        r.deliveries_per_sec, r.speedup_vs_seed, r.syscalls_per_round,
        r.baseline_syscalls_per_round, r.syscall_coalescing_factor);
    results.push_back(r);
  }

  std::vector<HubResult> hub_results;
  for (const std::size_t endpoints : {64UL, 256UL}) {
    const HubResult r = run_hub(endpoints);
    std::printf("hub endpoints=%zu: %.3g broadcasts/sec, %.3g deliveries/sec\n", r.endpoints,
                r.broadcasts_per_sec, r.deliveries_per_sec);
    hub_results.push_back(r);
  }

  if (!write_json(path, results, hub_results)) {
    std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", path.c_str());
  return 0;
}
