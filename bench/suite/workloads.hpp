// The four benchmark workloads: script text, engine, repetition count and
// the deterministic outputs pinned for seed 3.
//
// The library only ever sees the generated script text; `--seed S` rewrites
// the script's `seed` line, `--smoke` its `nodes` and `byzantine` lines.
#pragma once

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

namespace bench_suite {

/// Deterministic outputs of one run: rounds executed and per-recipient
/// deliveries (ScriptRun::rounds / ScriptRun::messages).
struct Outputs {
  std::int64_t rounds = 0;
  std::uint64_t deliveries = 0;

  friend bool operator==(const Outputs&, const Outputs&) = default;
};

struct Workload {
  const char* name;
  /// true: run_dist with kShards forked workers over the mesh data plane;
  /// false: parse_script + run_script with kThreads engine threads.
  bool dist;
  /// Timed repetitions in a full (all-workload) invocation.
  int reps;
  /// The traced run also times run_script with and without a TraceRecorder
  /// (the common.trace metrics).
  bool recorder_twin;
  /// Outputs at the pinned seed; every repetition and twin must match them.
  Outputs pin;
  const char* script;
};

inline constexpr std::uint64_t kPinSeed = 3;
inline constexpr unsigned kThreads = 4;
inline constexpr std::uint32_t kShards = 3;
inline constexpr std::size_t kSmokeNodes = 16;

// Sizes keep every workload near one second per repetition and under
// 0.5 GB of resident memory, so the 4-core box runs them back to back.
inline const std::vector<Workload>& workloads() {
  static const std::vector<Workload> table{
      {"consensus-clean", false, 40, false, {12, 4309248},
       "protocol consensus\n"
       "nodes 128\n"
       "inputs 0,1\n"
       "seed 3\n"
       "max-rounds 40\n"
       "expect termination\n"
       "expect agreement\n"
       "expect validity\n"},
      {"consensus-chaos", false, 20, false, {12, 5249692},
       "protocol consensus\n"
       "nodes 128\n"
       "inputs 0,1\n"
       "byzantine 10 twofaced\n"
       "seed 3\n"
       "max-rounds 200\n"
       "chaos 4-6 drop=0.05\n"
       "expect termination\n"
       "expect agreement\n"
       "expect no-violations\n"},
      {"consensus-chaos-dist", true, 20, false, {12, 5249692},
       "protocol consensus\n"
       "nodes 128\n"
       "inputs 0,1\n"
       "byzantine 10 twofaced\n"
       "seed 3\n"
       "max-rounds 200\n"
       "chaos 4-6 drop=0.05\n"
       "expect termination\n"
       "expect agreement\n"
       "expect no-violations\n"},
      {"totalorder-churn-dist", true, 30, true, {120, 11119789},
       "protocol totalorder\n"
       "nodes 32\n"
       "byzantine 3 twofaced\n"
       "seed 3\n"
       "max-rounds 120\n"
       "chaos 5-14 dup=0.10\n"
       "churn 20 join=2\n"
       "churn 30 leave=1\n"
       "expect termination\n"
       "expect agreement\n"
       "expect no-violations\n"},
  };
  return table;
}

/// The workload's script with the `seed` line set to `seed`; with `smoke`,
/// also shrunk to kSmokeNodes correct nodes and one Byzantine node.
inline std::string script_text(const Workload& workload, std::uint64_t seed, bool smoke) {
  std::istringstream in(workload.script);
  std::ostringstream out;
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream words(line);
    std::string keyword;
    words >> keyword;
    if (keyword == "seed") {
      out << "seed " << seed << "\n";
    } else if (smoke && keyword == "nodes") {
      out << "nodes " << kSmokeNodes << "\n";
    } else if (smoke && keyword == "byzantine") {
      std::string count;
      std::string kinds;
      words >> count >> kinds;
      out << "byzantine 1 " << kinds << "\n";
    } else {
      out << line << "\n";
    }
  }
  return out.str();
}

}  // namespace bench_suite
