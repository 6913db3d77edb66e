// dist_sim — run a scenario-script file across N forked shard worker
// processes (src/dist/) and report each expectation, exactly as scenario_sim
// does for the in-process engines. For the same script and seed the merged
// canonical trace is byte-identical to `scenario_sim --threads 1` — the CI
// dist-smoke job byte-compares the two `--trace-canonical` exports.
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
// An unknown option is a usage error (exit 2).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <variant>

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
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--shards") == 0 && i + 1 < argc) {
      config.shards = static_cast<std::uint32_t>(std::strtoul(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
      trace_path = argv[++i];
    } else if (std::strcmp(argv[i], "--trace-canonical") == 0 && i + 1 < argc) {
      canonical_path = argv[++i];
    } else if (std::strcmp(argv[i], "--metrics") == 0) {
      print_metrics = true;
    } else if (std::strcmp(argv[i], "--crash-shard") == 0 && i + 1 < argc) {
      config.crash_shard = static_cast<std::uint32_t>(std::strtoul(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--crash-round") == 0 && i + 1 < argc) {
      config.crash_at_round = static_cast<Round>(std::strtol(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--wedge-timeout-ms") == 0 && i + 1 < argc) {
      config.wedge_timeout_ms = static_cast<int>(std::strtol(argv[++i], nullptr, 10));
    } else if (std::strncmp(argv[i], "--", 2) == 0 || path != nullptr) {
      return usage();
    } else {
      path = argv[i];
    }
  }
  if (path == nullptr || config.shards == 0) return usage();
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
