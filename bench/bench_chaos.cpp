// Chaos benchmark with a machine-readable artifact: consensus (A3, nine
// correct nodes, mixed inputs) driven through deterministic burst-loss
// phases at 5 / 15 / 30 % drop probability, against a clean baseline.
//
// Two questions, one number each:
//   * rounds/sec — does the chaos layer slow the engine down? (Broadcasts
//     stay on the shared lane; in rounds a phase covers, the merge walks
//     every link for its pure hash-mix verdict and only a faulted link does
//     per-receiver work — a mask or a late copy. That walk is the expected
//     cost, and this tracks it.)
//   * recovery rounds — how many EXTRA rounds does consensus need to
//     terminate because of the loss burst, averaged over a seed sweep. The
//     burst spans rounds 2-11; with n > 3f every run still terminates, it
//     just spends more 5-round phases re-converging.
//
// Usage: bench_chaos [output.json]   (default: BENCH_chaos.json)
// The artifact's `machine` object records the CPU, core count and build
// type it was measured with (bench_json.hpp).
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "common/chaos.hpp"
#include "core/consensus.hpp"
#include "net/sync_simulator.hpp"

namespace idonly {
namespace {

using Clock = std::chrono::steady_clock;

constexpr std::size_t kNodes = 9;
constexpr Round kMaxRounds = 500;
constexpr std::uint64_t kSeeds = 20;

struct LossResult {
  double loss = 0;
  double rounds_per_sec = 0;
  double mean_rounds_to_decide = 0;
  double mean_recovery_rounds = 0;  ///< extra rounds vs the clean baseline
  std::uint64_t faults_injected = 0;
  bool all_terminated = true;
};

/// One consensus run; returns rounds executed (0 when it failed to finish).
Round run_once(std::uint64_t seed, double loss, std::uint64_t* faults) {
  SyncSimulator sim;
  std::shared_ptr<ChaosSchedule> chaos;
  if (loss > 0.0) {
    ChaosPhase burst;
    burst.first_round = 2;
    burst.last_round = 11;
    burst.drop = loss;
    chaos = std::make_shared<ChaosSchedule>(ChaosPlan{{burst}}, seed);
    sim.set_chaos(chaos);
  }
  for (std::size_t i = 0; i < kNodes; ++i) {
    sim.add_process(std::make_unique<ConsensusProcess>(
        static_cast<NodeId>(i + 1), Value::real(static_cast<double>(i % 2))));
  }
  const bool done = sim.run_until_all_correct_done(kMaxRounds);
  if (faults != nullptr && chaos != nullptr) {
    *faults += chaos->counters().total_faults().total();
  }
  return done ? sim.round() : 0;
}

LossResult run_loss_level(double loss, const std::vector<Round>& clean_rounds) {
  LossResult result;
  result.loss = loss;
  std::uint64_t total_rounds = 0;
  double total_recovery = 0;
  const auto start = Clock::now();
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    const Round rounds = run_once(seed, loss, &result.faults_injected);
    if (rounds == 0) {
      result.all_terminated = false;
      continue;
    }
    total_rounds += static_cast<std::uint64_t>(rounds);
    total_recovery += static_cast<double>(rounds - clean_rounds[seed - 1]);
  }
  const double elapsed = std::chrono::duration<double>(Clock::now() - start).count();
  result.rounds_per_sec = elapsed > 0 ? static_cast<double>(total_rounds) / elapsed : 0;
  result.mean_rounds_to_decide = static_cast<double>(total_rounds) / kSeeds;
  result.mean_recovery_rounds = total_recovery / kSeeds;
  return result;
}

int run(const char* path) {
  // Clean baseline per seed (loss 0): the subtrahend for recovery rounds.
  std::vector<Round> clean_rounds;
  std::uint64_t clean_total = 0;
  const auto clean_start = Clock::now();
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    const Round rounds = run_once(seed, 0.0, nullptr);
    if (rounds == 0) {
      std::fprintf(stderr, "clean baseline failed to terminate (seed %llu)\n",
                   static_cast<unsigned long long>(seed));
      return 1;
    }
    clean_rounds.push_back(rounds);
    clean_total += static_cast<std::uint64_t>(rounds);
  }
  const double clean_elapsed =
      std::chrono::duration<double>(Clock::now() - clean_start).count();

  std::vector<LossResult> results;
  for (double loss : {0.05, 0.15, 0.30}) {
    results.push_back(run_loss_level(loss, clean_rounds));
  }

  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return 1;
  }
  out << "{\n  \"bench\": \"chaos\",\n  \"machine\": " << bench::machine_json(BENCH_BUILD_TYPE)
      << ",\n";
  out << "  \"nodes\": " << kNodes << ",\n  \"seeds\": " << kSeeds << ",\n";
  out << "  \"burst_rounds\": \"2-11\",\n";
  out << "  \"clean\": {\"rounds_per_sec\": "
      << bench::fixed3(clean_elapsed > 0 ? static_cast<double>(clean_total) / clean_elapsed : 0)
      << ", \"mean_rounds_to_decide\": "
      << bench::fixed3(static_cast<double>(clean_total) / kSeeds) << "},\n";
  out << "  \"loss_levels\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const LossResult& r = results[i];
    out << "    {\"loss\": " << bench::fixed3(r.loss)
        << ", \"rounds_per_sec\": " << bench::fixed3(r.rounds_per_sec)
        << ", \"mean_rounds_to_decide\": " << bench::fixed3(r.mean_rounds_to_decide)
        << ", \"mean_recovery_rounds\": " << bench::fixed3(r.mean_recovery_rounds)
        << ", \"faults_injected\": " << r.faults_injected
        << ", \"all_terminated\": " << (r.all_terminated ? "true" : "false") << "}"
        << (i + 1 < results.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";

  std::printf("bench_chaos: clean %.1f rounds to decide;",
              static_cast<double>(clean_total) / kSeeds);
  for (const LossResult& r : results) {
    std::printf(" %d%% loss -> +%.1f recovery rounds%s", static_cast<int>(r.loss * 100),
                r.mean_recovery_rounds, r.all_terminated ? "" : " (NON-TERMINATION!)");
  }
  std::printf("; wrote %s\n", path);
  return 0;
}

}  // namespace
}  // namespace idonly

int main(int argc, char** argv) {
  return idonly::run(argc > 1 ? argv[1] : "BENCH_chaos.json");
}
