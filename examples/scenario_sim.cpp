// scenario_sim — run a scenario-script file (see src/harness/script.hpp for
// the DSL) and report each expectation. Sample scripts live in scenarios/.
//
// Exit codes are distinct per failure class so scripts and CI can triage
// without parsing output (documented in docs/testing.md):
//   0  every expectation held, no invariant violations
//   1  an expectation failed (but no invariant violation was observed)
//   2  usage error, or a file could not be read/written
//   3  the script failed to parse
//   4  an invariant violation (agreement/validity/liveness/chain) was
//      observed — takes precedence over 1
//
//   $ ./scenario_sim ../scenarios/consensus_twofaced.scn
//   $ ./scenario_sim ../scenarios/chaos_jitter_storm.scn --seed 17
//
// --seed N overrides the script's seed — the CI chaos soak sweeps one
// script across seeds without editing the file.
// --trace PATH writes the run's flight-recorder JSONL export (replay it
// through trace_diff to compare two seeds' executions); --trace-canonical
// PATH writes the canonical link-family export (the byte-comparable form the
// dist-smoke CI job diffs against dist_sim); --trace-chrome PATH writes the
// chrome://tracing JSON view; --metrics prints the Prometheus text
// exposition of the run's counters.
// --threads N runs the round engine on N worker threads (1 to
// cli::kMaxThreads; anything else is a usage error); the run — and its
// trace export — is bit-identical for every N (CI diffs them to prove it).
// The reliable-broadcast backend is the script's own `rb alg1|imbs` keyword.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <variant>

#include "cli_args.hpp"
#include "harness/script.hpp"

namespace {

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
  const char* chrome_path = nullptr;
  bool print_metrics = false;
  unsigned threads = 1;
  std::optional<std::uint64_t> seed_override;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      seed_override = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      const auto value = cli::parse_flag("--threads", argv[++i], 1, cli::kMaxThreads);
      if (!value.has_value()) return 2;
      threads = static_cast<unsigned>(*value);
    } else if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
      trace_path = argv[++i];
    } else if (std::strcmp(argv[i], "--trace-canonical") == 0 && i + 1 < argc) {
      canonical_path = argv[++i];
    } else if (std::strcmp(argv[i], "--trace-chrome") == 0 && i + 1 < argc) {
      chrome_path = argv[++i];
    } else if (std::strcmp(argv[i], "--metrics") == 0) {
      print_metrics = true;
    } else if (path == nullptr) {
      path = argv[i];
    } else {
      path = nullptr;
      break;
    }
  }
  if (path == nullptr) {
    std::fprintf(stderr,
                 "usage: scenario_sim <script-file> [--seed N] [--threads N] "
                 "[--trace PATH] [--trace-canonical PATH] [--trace-chrome PATH] [--metrics]\n");
    return 2;
  }
  std::ifstream file(path);
  if (!file) {
    std::fprintf(stderr, "cannot open %s\n", path);
    return 2;
  }
  std::stringstream buffer;
  buffer << file.rdbuf();

  auto parsed = parse_script(buffer.str());
  if (const auto* error = std::get_if<ParseError>(&parsed)) {
    std::fprintf(stderr, "%s:%d: %s\n", path, error->line, error->message.c_str());
    return 3;
  }
  auto& script = std::get<ScenarioScript>(parsed);
  if (seed_override.has_value()) script.config.seed = *seed_override;
  ScriptOptions options;
  options.threads = threads;
  if (trace_path != nullptr || canonical_path != nullptr || chrome_path != nullptr) {
    options.recorder = std::make_shared<TraceRecorder>(TraceEngine::kSync);
  }
  const ScriptRun run = run_script(script, options);

  if (trace_path != nullptr && !write_file(trace_path, options.recorder->jsonl())) {
    std::fprintf(stderr, "cannot write %s\n", trace_path);
    return 2;
  }
  if (canonical_path != nullptr &&
      !write_file(canonical_path, options.recorder->canonical_jsonl())) {
    std::fprintf(stderr, "cannot write %s\n", canonical_path);
    return 2;
  }
  if (chrome_path != nullptr && !write_file(chrome_path, options.recorder->chrome_trace_json())) {
    std::fprintf(stderr, "cannot write %s\n", chrome_path);
    return 2;
  }

  std::printf("%s\n", run.summary.c_str());
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
