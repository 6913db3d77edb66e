// Distributed shard-engine benchmark with a machine-readable artifact:
// drives the consensus protocol (broadcast-heavy, superquadratic message
// visits per round, but bounded-size frames) through run_dist() across an
// (n, shards) sweep and writes BENCH_dist.json with rounds/sec and
// receive-stall per cell. Consensus, not totalorder: totalorder chains grow
// every round, so its per-round byte volume is O(n³·r) and a bench-sized n
// wedges the fleet on memory alone — consensus rounds cost the same no
// matter how many have run.
//
// Each measurement is a FULL fleet lifecycle — fork the workers, run the
// scripted rounds, collect results, reap — so the figure honestly includes
// the per-run fork and worker-build overhead, not just the steady-state
// round rate.
// Every cell is measured kRepeats times and the artifact records the
// MEDIAN of each figure (stdout also prints the min–max range): single
// measurements of one binary spread further than the perf-smoke gate's
// tolerance on a busy host, the stall figure especially. Columns:
//   * `speedup_vs_1shard` — median rounds/sec against the shards=1 cell's
//     at the same n; on a single-core runner it hovers near (or below) 1.0,
//     which is why the perf-smoke gate treats it as informational and
//     self-skips scaling checks there.
//   * `recv_stall_ms_per_round` — fleet-total milliseconds workers spent
//     BLOCKED in the mesh poll waiting for a peer's slab, per executed
//     round. This is the figure the mesh's overlapped rounds exist to
//     shrink. The perf-smoke gate checks it lower-is-better, self-skipping on
//     single-core runners where the wait is scheduling noise.
// The run itself — and its canonical trace — is bit-identical at every shard
// count; that invariant is enforced by test_dist and the CI dist-smoke job,
// not here. The artifact's `machine` object records the core count, CPU
// model, compiler and build type it ran with.
//
// Usage: bench_dist [output.json]   (default: BENCH_dist.json)
#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "dist/shard_coordinator.hpp"

namespace idonly {
namespace {

using Clock = std::chrono::steady_clock;

constexpr Round kMaxRounds = 40;  // decision lands well before this
constexpr double kMinSeconds = 1.0;
constexpr std::size_t kRepeats = 3;

/// One timed measurement of a cell.
struct Sample {
  double rounds_per_sec = 0;
  /// Fleet-total blocked-receive milliseconds per executed round.
  double recv_stall_ms_per_round = 0;
};

struct Cell {
  std::size_t n = 0;
  std::uint32_t shards = 0;
  /// Medians over the cell's kRepeats samples.
  double rounds_per_sec = 0;
  double recv_stall_ms_per_round = 0;
  /// Scaling against the shards=1 cell at the same n.
  double speedup_vs_1shard = 0;
};

/// Median, min and max of one figure across a cell's samples.
struct Spread {
  double median = 0;
  double min = 0;
  double max = 0;
};

Spread spread(const std::array<Sample, kRepeats>& samples, double Sample::*figure) {
  std::array<double, kRepeats> values{};
  for (std::size_t i = 0; i < kRepeats; ++i) values[i] = samples[i].*figure;
  std::sort(values.begin(), values.end());
  return {values[kRepeats / 2], values.front(), values.back()};
}

std::string make_script(std::size_t n) {
  return "protocol consensus\nnodes " + std::to_string(n) +
         "\ninputs 0,1\nseed 3\nmax-rounds " + std::to_string(kMaxRounds) +
         "\nexpect termination\n";
}

bool measure(const Cell& cell, Sample& sample) {
  DistConfig config;
  config.script_text = make_script(cell.n);
  config.shards = cell.shards;
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
  sample.rounds_per_sec = static_cast<double>(rounds) / elapsed;
  sample.recv_stall_ms_per_round =
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
      Cell cell;
      cell.n = n;
      cell.shards = shards;
      cells.push_back(cell);
    }
  }

  // n → shards=1 median rounds/sec, the speedup denominator.
  std::map<std::size_t, double> one_shard_rate;
  for (Cell& cell : cells) {
    std::array<Sample, kRepeats> samples{};
    for (Sample& sample : samples) {
      if (!measure(cell, sample)) return 1;
    }
    const Spread rate = spread(samples, &Sample::rounds_per_sec);
    const Spread stall = spread(samples, &Sample::recv_stall_ms_per_round);
    cell.rounds_per_sec = rate.median;
    cell.recv_stall_ms_per_round = stall.median;
    if (cell.shards == 1) one_shard_rate[cell.n] = cell.rounds_per_sec;
    const double base = one_shard_rate[cell.n];
    cell.speedup_vs_1shard = base > 0 ? cell.rounds_per_sec / base : 0;
    std::printf(
        "consensus n=%zu shards=%u: %.2f rounds/sec [%.2f-%.2f] (%.2fx vs 1 shard), "
        "stall %.3f ms/round [%.3f-%.3f]\n",
        cell.n, cell.shards, rate.median, rate.min, rate.max, cell.speedup_vs_1shard,
        stall.median, stall.min, stall.max);
  }

  if (!write_json(path, cells)) {
    std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", path.c_str());
  return 0;
}
