// Parallel round-engine benchmark with a machine-readable artifact: steps
// reliable broadcast (the broadcast-heaviest protocol, O(n²) message visits
// per round) at large n across a sweep of thread counts, and writes
// BENCH_parallel.json with rounds/sec per (n, threads) cell.
//
// Two numbers matter:
//   * rounds/sec at threads=1 — the hot-path container overhaul (flat quorum
//     sets, dispatch arena, cached member ids) against the committed
//     pre-overhaul baseline (`speedup_vs_seed`; the per-n baseline is
//     carried into every cell so threaded rows report it too);
//   * `speedup_vs_1t` — the lane-merged two-phase engine's scaling against
//     the threads=1 cell at the same n, on the machine at hand. Both the
//     outbox fill and the destination-lane merge run in parallel, so this
//     should track core count; the trace stays bit-identical at every
//     thread count — that invariant is enforced by test_parallel_exec, not
//     here.
//
// The artifact's `machine` object records the CPU, core count and build
// type the cells were measured with.
//
// Usage: bench_parallel [output.json]   (default: BENCH_parallel.json)
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "core/reliable_broadcast.hpp"
#include "net/sync_simulator.hpp"

namespace idonly {
namespace {

using Clock = std::chrono::steady_clock;

constexpr Round kRoundsPerRun = 8;
constexpr double kMinSeconds = 1.5;

struct Cell {
  std::size_t n = 0;
  unsigned threads = 0;
  /// rounds/sec at the pre-overhaul commit, threads=1, RelWithDebInfo, dev
  /// machine (0 = no baseline recorded for this cell).
  double seed_baseline_rounds_per_sec = 0;
  double rounds_per_sec = 0;
  double speedup_vs_seed = 0;
  /// Scaling against the threads=1 cell at the same n (1.0 for that cell).
  double speedup_vs_1t = 0;
  /// Wire cost per protocol round (deterministic per n; thread-count
  /// invariant — the lane merge must not change what is delivered).
  double bytes_per_round = 0;
  double syscalls_per_round = 0;  ///< coalesced slab datagrams (mailbox model)
};

void run_cell(Cell& cell) {
  std::uint64_t rounds = 0;
  std::uint64_t bytes = 0;
  std::uint64_t slab_sends = 0;
  const auto start = Clock::now();
  double elapsed = 0;
  std::uint64_t seed = 0;
  while (elapsed < kMinSeconds) {
    seed += 1;  // fresh simulator per run; seed only varies construction order
    SyncSimulator sim;
    sim.set_threads(cell.threads);
    for (std::size_t i = 0; i < cell.n; ++i) {
      sim.add_process(std::make_unique<ReliableBroadcastProcess>(
          static_cast<NodeId>(i + 1), /*source=*/1, Value::real(42.0)));
    }
    sim.run_rounds(kRoundsPerRun);
    rounds += kRoundsPerRun;
    bytes += sim.metrics().fanout.bytes_delivered;
    slab_sends += sim.metrics().fanout.slab_sends;
    elapsed = std::chrono::duration<double>(Clock::now() - start).count();
  }
  cell.rounds_per_sec = static_cast<double>(rounds) / elapsed;
  cell.speedup_vs_seed = cell.seed_baseline_rounds_per_sec > 0
                             ? cell.rounds_per_sec / cell.seed_baseline_rounds_per_sec
                             : 0;
  cell.bytes_per_round = static_cast<double>(bytes) / static_cast<double>(rounds);
  cell.syscalls_per_round = static_cast<double>(slab_sends) / static_cast<double>(rounds);
}

bool write_json(const std::string& path, const std::vector<Cell>& cells) {
  std::ofstream out(path);
  out << "{\n  \"benchmark\": \"parallel\",\n  \"machine\": "
      << bench::machine_json(BENCH_BUILD_TYPE) << ",\n  \"cells\": [\n";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Cell& c = cells[i];
    out << "    {\n"
        << "      \"n\": " << c.n << ",\n"
        << "      \"threads\": " << c.threads << ",\n"
        << "      \"rounds_per_sec\": " << bench::fixed3(c.rounds_per_sec) << ",\n"
        << "      \"seed_baseline_rounds_per_sec\": "
        << bench::fixed3(c.seed_baseline_rounds_per_sec) << ",\n"
        << "      \"speedup_vs_seed\": " << bench::fixed3(c.speedup_vs_seed) << ",\n"
        << "      \"speedup_vs_1t\": " << bench::fixed3(c.speedup_vs_1t) << ",\n"
        << "      \"bytes_per_round\": " << bench::fixed3(c.bytes_per_round) << ",\n"
        << "      \"syscalls_per_round\": " << bench::fixed3(c.syscalls_per_round) << "\n"
        << "    }" << (i + 1 < cells.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  return out.good();
}

}  // namespace
}  // namespace idonly

int main(int argc, char** argv) {
  using namespace idonly;
  const std::string path = argc > 1 ? argv[1] : "BENCH_parallel.json";

  // Per-n seed baselines: pre-overhaul rounds/sec on the dev machine
  // (reliable broadcast, threads=1, 8 rounds/run, RelWithDebInfo), carried
  // into every cell of that n so threaded rows compare against it too
  // (0 = no baseline recorded — n=800 predates the artifact).
  std::vector<Cell> cells;
  for (const std::size_t n : {200UL, 400UL, 800UL}) {
    const double seed_baseline = n == 200 ? 913.390 : n == 400 ? 248.920 : 0;
    for (const unsigned threads : {1U, 2U, 4U, 8U}) {
      Cell cell;
      cell.n = n;
      cell.threads = threads;
      cell.seed_baseline_rounds_per_sec = seed_baseline;
      cells.push_back(cell);
    }
  }

  std::map<std::size_t, double> one_thread_rate;  // n → threads=1 rounds/sec
  for (Cell& cell : cells) {
    run_cell(cell);
    if (cell.threads == 1) one_thread_rate[cell.n] = cell.rounds_per_sec;
    const double base_1t = one_thread_rate[cell.n];
    cell.speedup_vs_1t = base_1t > 0 ? cell.rounds_per_sec / base_1t : 0;
    std::printf("rb n=%zu threads=%u: %.2f rounds/sec (%.2fx vs seed, %.2fx vs 1t)\n", cell.n,
                cell.threads, cell.rounds_per_sec, cell.speedup_vs_seed, cell.speedup_vs_1t);
  }

  if (!write_json(path, cells)) {
    std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", path.c_str());
  return 0;
}
