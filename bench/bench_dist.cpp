// Distributed shard-engine benchmark with a machine-readable artifact:
// drives the consensus protocol (broadcast-heavy, superquadratic message
// visits per round, but bounded-size frames) through run_dist() across an
// (n, shards, topology) sweep and writes BENCH_dist.json with rounds/sec and
// receive-stall per cell. Consensus, not totalorder: totalorder chains grow
// every round, so its per-round byte volume is O(n³·r) and a bench-sized n
// wedges the fleet on memory alone — consensus rounds cost the same no
// matter how many have run.
//
// Each repetition is a FULL fleet lifecycle — fork the workers, run the
// scripted rounds, collect results, reap — so the figure honestly includes
// the per-run fork/handshake overhead, not just the steady-state round rate.
// Columns:
//   * `speedup_vs_1shard` — scaling against the shards=1 cell at the same
//     (n, topology); on a single-core runner it hovers near (or below) 1.0,
//     which is why the perf-smoke gate treats it as informational and
//     self-skips scaling checks there.
//   * `recv_stall_ms_per_round` — fleet-total milliseconds workers spent
//     BLOCKED waiting for cross-shard traffic, per executed round. This is
//     the figure the mesh data plane exists to shrink: in relay mode it is
//     the wait for the coordinator's store-and-forward kDeliver; in mesh
//     mode only the genuine poll-waits for a peer slab count. The perf-smoke
//     gate checks it lower-is-better, self-skipping on single-core runners
//     where the wait is scheduling noise.
// The run itself — and its canonical trace — is bit-identical at every shard
// count and in both topologies; that invariant is enforced by test_dist and
// the CI dist-mesh-smoke job, not here. The artifact's `machine` object
// records the core count, CPU model, compiler and build type it ran with.
//
// Usage: bench_dist [output.json]   (default: BENCH_dist.json)
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "bench_json.hpp"
#include "dist/shard_coordinator.hpp"

namespace idonly {
namespace {

using Clock = std::chrono::steady_clock;

constexpr Round kMaxRounds = 40;  // decision lands well before this
constexpr double kMinSeconds = 1.0;

struct Cell {
  std::size_t n = 0;
  std::uint32_t shards = 0;
  bool mesh = false;
  double rounds_per_sec = 0;
  /// Scaling against the shards=1 cell at the same (n, topology).
  double speedup_vs_1shard = 0;
  /// Fleet-total blocked-receive milliseconds per executed round.
  double recv_stall_ms_per_round = 0;
};

std::string make_script(std::size_t n) {
  return "protocol consensus\nnodes " + std::to_string(n) +
         "\ninputs 0,1\nseed 3\nmax-rounds " + std::to_string(kMaxRounds) +
         "\nexpect termination\n";
}

bool run_cell(Cell& cell) {
  DistConfig config;
  config.script_text = make_script(cell.n);
  config.shards = cell.shards;
  config.mesh = cell.mesh;
  std::uint64_t rounds = 0;
  std::uint64_t stall_ns = 0;
  const auto start = Clock::now();
  double elapsed = 0;
  while (elapsed < kMinSeconds) {
    const DistRun run = run_dist(config);
    if (!run.infra_ok) {
      std::fprintf(stderr, "error: %s\n", run.infra_error.c_str());
      return false;
    }
    rounds += static_cast<std::uint64_t>(run.script.rounds);
    stall_ns += run.metrics.overlap.recv_stall_ns;
    elapsed = std::chrono::duration<double>(Clock::now() - start).count();
  }
  cell.rounds_per_sec = static_cast<double>(rounds) / elapsed;
  cell.recv_stall_ms_per_round =
      rounds > 0 ? static_cast<double>(stall_ns) / 1e6 / static_cast<double>(rounds) : 0;
  return true;
}

bool write_json(const std::string& path, const std::vector<Cell>& cells) {
  std::ofstream out(path);
  out << "{\n  \"benchmark\": \"dist\",\n  \"machine\": " << bench::machine_json(BENCH_BUILD_TYPE)
      << ",\n  \"cells\": [\n";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Cell& c = cells[i];
    out << "    {\n"
        << "      \"n\": " << c.n << ",\n"
        << "      \"shards\": " << c.shards << ",\n"
        << "      \"mesh\": " << (c.mesh ? "true" : "false") << ",\n"
        << "      \"rounds_per_sec\": " << bench::fixed3(c.rounds_per_sec) << ",\n"
        << "      \"speedup_vs_1shard\": " << bench::fixed3(c.speedup_vs_1shard) << ",\n"
        << "      \"recv_stall_ms_per_round\": " << bench::fixed3(c.recv_stall_ms_per_round)
        << "\n"
        << "    }" << (i + 1 < cells.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  return out.good();
}

}  // namespace
}  // namespace idonly

int main(int argc, char** argv) {
  using namespace idonly;
  const std::string path = argc > 1 ? argv[1] : "BENCH_dist.json";

  std::vector<Cell> cells;
  for (const std::size_t n : {64UL, 128UL, 256UL}) {
    for (const std::uint32_t shards : {1U, 2U, 4U}) {
      for (const bool mesh : {true, false}) {
        Cell cell;
        cell.n = n;
        cell.shards = shards;
        cell.mesh = mesh;
        cells.push_back(cell);
      }
    }
  }

  // (n, topology) → shards=1 rounds/sec, the speedup denominator.
  std::map<std::pair<std::size_t, bool>, double> one_shard_rate;
  for (Cell& cell : cells) {
    if (!run_cell(cell)) return 1;
    if (cell.shards == 1) one_shard_rate[{cell.n, cell.mesh}] = cell.rounds_per_sec;
    const double base = one_shard_rate[{cell.n, cell.mesh}];
    cell.speedup_vs_1shard = base > 0 ? cell.rounds_per_sec / base : 0;
    std::printf(
        "consensus n=%zu shards=%u %s: %.2f rounds/sec (%.2fx vs 1 shard, "
        "stall %.3f ms/round)\n",
        cell.n, cell.shards, cell.mesh ? "mesh" : "relay", cell.rounds_per_sec,
        cell.speedup_vs_1shard, cell.recv_stall_ms_per_round);
  }

  if (!write_json(path, cells)) {
    std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", path.c_str());
  return 0;
}
