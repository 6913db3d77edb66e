// dist_sim — run a scenario-script file of any protocol across N forked
// shard worker processes (src/dist/) and report each expectation, exactly as
// scenario_sim does for the in-process engines. For the same script and seed
// the merged raw and canonical traces are byte-identical to
// `scenario_sim --threads 1` — the CI dist-smoke job byte-compares them.
//
// Exit codes extend scenario_sim's classes (docs/testing.md):
//   0  every expectation held, no invariant violations
//   1  an expectation failed
//   2  usage error, or a file could not be read/written
//   3  the script failed to parse
//   4  an invariant violation was observed — takes precedence over 1
//   5  run infrastructure failed — a shard worker crashed, wedged, or broke
//      protocol (takes precedence over everything; results are meaningless)
//
//   $ ./dist_sim ../scenarios/chaos_partition_heal.scn --shards 4
//
// The workers exchange the round's shard slabs directly worker↔worker over
// the mesh; the coordinator only paces rounds.
// --trace PATH / --trace-canonical PATH write the merged flight-recorder
// exports (full JSONL / canonical link family); --metrics prints the merged
// Prometheus exposition (including idonly_wire_faults_total for the shard
// transport and the idonly_overlap_* counters). --crash-shard S
// --crash-round R make worker S die abruptly before round R — the
// crash-detection smoke (expects exit 5, not a hang, with worker S named).
// An unknown option, or a numeric value that is not a whole number in its
// range (cli_args.hpp: shards 1..64, S below the shard count, R and the
// wedge timeout at least 1), is a usage error (exit 2).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <variant>

#include "cli_args.hpp"
#include "dist/shard_coordinator.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: dist_sim <script-file> [--shards N] "
               "[--trace PATH] [--trace-canonical PATH] [--metrics] "
               "[--crash-shard S --crash-round R] [--wedge-timeout-ms N]\n");
  return 2;
}

bool write_file(const char* path, const std::string& content) {
  std::ofstream file(path);
  if (!file) return false;
  file << content;
  return file.good();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace idonly;
  const char* path = nullptr;
  const char* trace_path = nullptr;
  const char* canonical_path = nullptr;
  bool print_metrics = false;
  DistConfig config;
  bool crash_shard_set = false;
  for (int i = 1; i < argc; ++i) {
    const char* flag = argv[i];
    if (std::strcmp(flag, "--shards") == 0 && i + 1 < argc) {
      const auto value = cli::parse_flag(flag, argv[++i], 1, cli::kMaxShards);
      if (!value.has_value()) return 2;
      config.shards = static_cast<std::uint32_t>(*value);
    } else if (std::strcmp(flag, "--trace") == 0 && i + 1 < argc) {
      trace_path = argv[++i];
    } else if (std::strcmp(flag, "--trace-canonical") == 0 && i + 1 < argc) {
      canonical_path = argv[++i];
    } else if (std::strcmp(flag, "--metrics") == 0) {
      print_metrics = true;
    } else if (std::strcmp(flag, "--crash-shard") == 0 && i + 1 < argc) {
      const auto value = cli::parse_flag(flag, argv[++i], 0, cli::kMaxShards - 1);
      if (!value.has_value()) return 2;
      config.crash_shard = static_cast<std::uint32_t>(*value);
      crash_shard_set = true;
    } else if (std::strcmp(flag, "--crash-round") == 0 && i + 1 < argc) {
      const auto value = cli::parse_flag(flag, argv[++i], 1, cli::kMaxCrashRound);
      if (!value.has_value()) return 2;
      config.crash_at_round = static_cast<Round>(*value);
    } else if (std::strcmp(flag, "--wedge-timeout-ms") == 0 && i + 1 < argc) {
      const auto value = cli::parse_flag(flag, argv[++i], 1, cli::kMaxWedgeTimeoutMs);
      if (!value.has_value()) return 2;
      config.wedge_timeout_ms = static_cast<int>(*value);
    } else if (std::strncmp(flag, "--", 2) == 0 || path != nullptr) {
      return usage();
    } else {
      path = flag;
    }
  }
  if (path == nullptr) return usage();
  if (crash_shard_set && config.crash_shard >= config.shards) {
    std::fprintf(stderr, "--crash-shard: %u names no worker of %u shards\n", config.crash_shard,
                 config.shards);
    return 2;
  }
  std::ifstream file(path);
  if (!file) {
    std::fprintf(stderr, "cannot open %s\n", path);
    return 2;
  }
  std::stringstream buffer;
  buffer << file.rdbuf();
  config.script_text = buffer.str();
  config.want_trace = trace_path != nullptr || canonical_path != nullptr;

  // Pre-parse for the dedicated exit code; run_dist re-parses the same text.
  {
    auto parsed = parse_script(config.script_text);
    if (const auto* error = std::get_if<ParseError>(&parsed)) {
      std::fprintf(stderr, "%s:%d: %s\n", path, error->line, error->message.c_str());
      return 3;
    }
  }

  const DistRun dist = run_dist(config);
  if (!dist.infra_ok) {
    std::fprintf(stderr, "dist infrastructure failure: %s\n", dist.infra_error.c_str());
    return 5;
  }
  const ScriptRun& run = dist.script;

  if (trace_path != nullptr && !write_file(trace_path, dist.trace->jsonl())) {
    std::fprintf(stderr, "cannot write %s\n", trace_path);
    return 2;
  }
  if (canonical_path != nullptr &&
      !write_file(canonical_path, dist.trace->canonical_jsonl())) {
    std::fprintf(stderr, "cannot write %s\n", canonical_path);
    return 2;
  }

  std::printf("%s [shards=%u]\n", run.summary.c_str(), config.shards);
  if (print_metrics && !run.metrics_exposition.empty()) {
    std::printf("%s", run.metrics_exposition.c_str());
  }
  if (!run.chaos_summary.empty()) std::printf("  chaos: %s\n", run.chaos_summary.c_str());
  for (const auto& violation : run.violations) {
    std::printf("  VIOLATION: %s\n", violation.c_str());
  }
  for (const auto& outcome : run.outcomes) {
    std::printf("  expect %-12s : %s (%s)\n", to_string(outcome.expectation).c_str(),
                outcome.satisfied ? "ok" : "FAILED", outcome.detail.c_str());
  }
  if (!run.violations.empty()) return 4;
  return run.all_satisfied ? 0 : 1;
}
