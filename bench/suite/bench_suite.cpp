// bench_suite: four consensus / total-order workloads timed end to end,
// plus an outside-in per-layer trace. See README.md for the workloads, the
// metrics and how to compare two results sets.
//
//   bench_suite [--seed S] [--smoke] [--out PATH]
//       Every workload: timed repetitions, each preceded by a set-up child,
//       interleaved round-robin across workloads; then one traced run per
//       workload.
//   bench_suite --workload NAME [--seed S] [--seconds T] [--trace 0|1] [--out PATH]
//       One workload. --trace 0 measures set-up and timed repetitions (for
//       T seconds, at least kMinReps); --trace 1 makes a few timed
//       repetitions and the traced run. The last line of stdout is one JSON
//       object {correct, attempted, failed, metrics}.
//
// Every metric is printed as `workload metric value unit`. The exit code is
// 0 only when every repetition and twin passed its correctness checks.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>
#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "child.hpp"
#include "runs.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace bench_suite {
namespace {

struct Metric {
  const char* name;
  const char* unit;
};

// Timed-run metrics, reported with their sample summaries. The first
// kGated are BENCHMARK.json's "end_to_end" metrics; cpu_s is not gated.
constexpr Metric kTimedMetrics[] = {
    {"wall_s", "s"}, {"setup_s", "s"}, {"peak_rss_mb", "MB"}, {"cpu_s", "s"}};
constexpr std::size_t kGated = 3;

// BENCHMARK.json "per_layer". A layer the workload does not run reports 0.
constexpr Metric kLayers[] = {
    {"harness.parse_ms", "ms"},
    {"harness.build_ms", "ms"},
    {"net.step_ms_per_round", "ms"},
    {"net.engine_self_ms_per_round", "ms"},
    {"net.deliveries_per_round", "count"},
    {"net.bytes_per_round", "bytes"},
    {"net.dedup_hits_per_round", "count"},
    {"net.parallel_exec.busy_ratio", "ratio"},
    {"net.parallel_exec.cores_busy", "ratio"},
    {"core.on_round_ms_per_round", "ms"},
    {"core.on_round_us_per_call", "us"},
    {"core.sends_per_round", "count"},
    {"adversary.on_round_ms_per_round", "ms"},
    {"common.chaos.faults_per_round", "count"},
    {"common.trace.records_per_round", "count"},
    {"common.trace.overhead_ms_per_round", "ms"},
    {"net.codec.decode_ns_per_frame", "ns"},
    {"net.codec.encode_ns_per_frame", "ns"},
    {"net.codec.bytes_per_frame", "bytes"},
    {"dist.begin_round_ms_per_round", "ms"},
    {"dist.decode_ms_per_round", "ms"},
    {"dist.merge_ms_per_round", "ms"},
    {"dist.shard_compute_ms_per_round", "ms"},
    {"dist.shard_skew", "ratio"},
    {"dist.slab_bytes_per_round", "bytes"},
    {"dist.recv_stall_ms_per_round", "ms"},
    {"dist.overlap_ratio", "ratio"},
    {"bench.tracing_overhead", "ratio"},
    {"bench.step_coverage", "ratio"},
};

constexpr int kMinSetups = 15;
constexpr int kMinReps = 5;
constexpr int kTracedRunReps = 3;
constexpr int kSmokeReps = 2;

struct Options {
  std::string workload;  // empty: every workload
  std::uint64_t seed = kPinSeed;
  std::optional<double> seconds;
  int trace = 0;
  bool smoke = false;
  std::string out = "bench_suite_results.json";
};

struct WorkloadRun {
  const Workload* workload = nullptr;
  std::string text;
  std::optional<Outputs> reference;  // the pin, or the first outputs observed
  int attempted = 0;
  int failed = 0;
  int setups = 0;
  std::vector<std::string> errors;
  std::map<std::string, std::vector<double>> samples;
  Values layers;
};

void fail(WorkloadRun& run, const std::string& what, const std::string& why) {
  run.failed += 1;
  run.errors.push_back(what + ": " + why);
  std::fprintf(stderr, "bench_suite: %s %s: %s\n", run.workload->name, what.c_str(), why.c_str());
}

/// Runs `body` in a child and checks it finished and reproduced the
/// reference outputs. Returns the child's result when it passed.
std::optional<ChildResult> checked_child(WorkloadRun& run, const std::string& what,
                                         const std::function<Values()>& body) {
  run.attempted += 1;
  ChildResult child = run_in_child(body);
  if (!child.ok) {
    fail(run, what, child.error);
    return std::nullopt;
  }
  if (child.values.count("rounds") != 0) {
    const Outputs outputs{static_cast<std::int64_t>(child.values["rounds"]),
                          static_cast<std::uint64_t>(child.values["deliveries"])};
    if (!run.reference.has_value()) run.reference = outputs;
    if (outputs != *run.reference) {
      fail(run, what,
           "outputs " + std::to_string(outputs.rounds) + " rounds / " +
               std::to_string(outputs.deliveries) + " deliveries, expected " +
               std::to_string(run.reference->rounds) + " / " +
               std::to_string(run.reference->deliveries));
      return std::nullopt;
    }
  }
  return child;
}

void run_setup(WorkloadRun& run) {
  run.setups += 1;
  const auto child = checked_child(run, "setup", [&] { return setup_run(run.text, run.workload->dist); });
  if (child.has_value()) run.samples["setup_s"].push_back(child->values.at("setup_s"));
}

void run_timed(WorkloadRun& run) {
  const auto child = checked_child(run, "timed rep", [&] { return timed_run(run.text, run.workload->dist); });
  if (!child.has_value()) return;
  const Values& v = child->values;
  if (v.at("all_satisfied") != 1.0 || v.at("violations") != 0.0) {
    fail(run, "timed rep", "an expectation failed or the run recorded an invariant violation");
    return;
  }
  run.samples["wall_s"].push_back(child->wall_s);
  run.samples["cpu_s"].push_back(child->cpu_s);
  run.samples["peak_rss_mb"].push_back(child->peak_rss_mb);
  if (run.workload->dist) {
    const double shard_rounds = v.at("rounds") * kShards;
    run.samples["dist.recv_stall_ms_per_round"].push_back(v.at("recv_stall_ns") * 1e-6 / shard_rounds);
    run.samples["dist.overlap_ratio"].push_back(v.at("rounds_overlapped") / shard_rounds);
  }
}

void adopt_layers(WorkloadRun& run, const Values& values) {
  for (const auto& [key, value] : values) {
    if (key != "wall_s" && key != "rounds" && key != "deliveries") run.layers[key] = value;
  }
}

/// The traced run. In-process workloads: the sync twin at the workload's
/// thread count. Dist workloads: a threads-1 sync twin for the core /
/// adversary split (inboxes are identical by the determinism contract) and
/// the in-process fleet for the dist and codec layers.
void run_traced(WorkloadRun& run) {
  const Workload& w = *run.workload;
  const auto twin = checked_child(run, "sync twin", [&] { return sync_twin(run.text, w.dist ? 1 : kThreads); });
  if (!twin.has_value()) return;
  adopt_layers(run, twin->values);
  double traced_wall = twin->values.at("wall_s");
  if (w.dist) {
    const auto fleet = checked_child(run, "fleet twin", [&] { return fleet_twin(run.text, kShards); });
    if (!fleet.has_value()) return;
    adopt_layers(run, fleet->values);
    traced_wall = fleet->values.at("wall_s");
  }
  if (w.recorder_twin) {
    const auto plain = checked_child(run, "trace twin", [&] { return trace_twin(run.text, false); });
    const auto recorded = checked_child(run, "recorder twin", [&] { return trace_twin(run.text, true); });
    if (!plain.has_value() || !recorded.has_value()) return;
    const double rounds = std::max(1.0, recorded->values.at("rounds"));
    run.layers["common.trace.records_per_round"] = recorded->values.at("records") / rounds;
    run.layers["common.trace.overhead_ms_per_round"] =
        (recorded->values.at("wall_s") - plain->values.at("wall_s")) * 1e3 / rounds;
  }
  for (const char* key : {"dist.recv_stall_ms_per_round", "dist.overlap_ratio"}) {
    const auto it = run.samples.find(key);
    if (it != run.samples.end()) run.layers[key] = summarize(it->second).median;
  }
  const auto wall = run.samples.find("wall_s");
  if (wall != run.samples.end() && !wall->second.empty()) {
    run.layers["bench.tracing_overhead"] = traced_wall / summarize(wall->second).median;
  }
}

// ------------------------------------------------------------- reporting --

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  if (__get_cpuid_max(0x80000000, nullptr) >= 0x80000004) {
    unsigned regs[12] = {};
    for (unsigned i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002 + i, &regs[4 * i], &regs[4 * i + 1], &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    char brand[sizeof regs + 1] = {};
    std::memcpy(brand, regs, sizeof regs);
    std::string model(brand);
    const auto first = model.find_first_not_of(' ');
    const auto last = model.find_last_not_of(' ');
    if (first != std::string::npos) return model.substr(first, last - first + 1);
  }
#endif
  return "unknown";
}

std::string read_first_line(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  return line;
}

/// HEAD of the git checkout in the working directory, or "unknown".
std::string git_rev() {
  const std::string head = read_first_line(".git/HEAD");
  if (head.rfind("ref: ", 0) != 0) return head.empty() ? "unknown" : head;
  const std::string ref = head.substr(5);
  const std::string loose = read_first_line(".git/" + ref);
  if (!loose.empty()) return loose;
  std::ifstream packed(".git/packed-refs");
  std::string line;
  while (std::getline(packed, line)) {
    if (line.size() > 41 && line.compare(41, std::string::npos, ref) == 0) return line.substr(0, 40);
  }
  return "unknown";
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string number(double value) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

std::string summary_json(const std::vector<double>& samples, const char* unit) {
  const Summary s = summarize(samples);
  std::string out = "{\"unit\": " + json_string(unit) + ", \"median\": " + number(s.median) +
                    ", \"q1\": " + number(s.q1) + ", \"q3\": " + number(s.q3) +
                    ", \"min\": " + number(s.min) + ", \"max\": " + number(s.max) +
                    ", \"n\": " + std::to_string(s.n) + ", \"samples\": [";
  for (std::size_t i = 0; i < samples.size(); ++i) out += (i > 0 ? ", " : "") + number(samples[i]);
  return out + "]}";
}

double fail_ratio(const WorkloadRun& run) {
  return run.attempted > 0 ? static_cast<double>(run.failed) / run.attempted : 0.0;
}

void print_workload(const WorkloadRun& run, bool with_layers) {
  const char* name = run.workload->name;
  for (const Metric& m : kTimedMetrics) {
    const auto it = run.samples.find(m.name);
    if (it == run.samples.end() || it->second.empty()) continue;
    const Summary s = summarize(it->second);
    std::printf("%s %s %.6g %s q1=%.6g q3=%.6g min=%.6g max=%.6g n=%zu\n", name, m.name,
                s.median, m.unit, s.q1, s.q3, s.min, s.max, s.n);
  }
  std::printf("%s fail_ratio %.6g ratio attempted=%d failed=%d\n", name, fail_ratio(run),
              run.attempted, run.failed);
  if (!with_layers) return;
  for (const Metric& m : kLayers) {
    const auto it = run.layers.find(m.name);
    std::printf("%s %s %.6g %s\n", name, m.name, it != run.layers.end() ? it->second : 0.0, m.unit);
  }
}

bool write_results(const Options& options, const std::vector<WorkloadRun>& runs, bool with_layers) {
  std::ostringstream out;
  out << "{\n  \"fingerprint\": {\"nproc\": " << ::sysconf(_SC_NPROCESSORS_ONLN)
      << ", \"cpu_model\": " << json_string(cpu_model())
      << ", \"compiler\": " << json_string(BENCH_SUITE_COMPILER)
      << ", \"build_type\": " << json_string(BENCH_SUITE_BUILD_TYPE)
      << ", \"git_rev\": " << json_string(git_rev()) << "},\n"
      << "  \"seed\": " << options.seed << ",\n  \"smoke\": " << (options.smoke ? "true" : "false")
      << ",\n  \"workloads\": {";
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const WorkloadRun& run = runs[i];
    out << (i > 0 ? "," : "") << "\n    " << json_string(run.workload->name) << ": {\n"
        << "      \"script\": " << json_string(run.text) << ",\n"
        << "      \"correct\": " << (run.failed == 0 ? "true" : "false")
        << ", \"attempted\": " << run.attempted << ", \"failed\": " << run.failed
        << ", \"fail_ratio\": " << number(fail_ratio(run)) << ",\n";
    if (run.reference.has_value()) {
      out << "      \"outputs\": {\"rounds\": " << run.reference->rounds
          << ", \"deliveries\": " << run.reference->deliveries << "},\n";
    }
    out << "      \"end_to_end\": {";
    bool first = true;
    for (const Metric& m : kTimedMetrics) {
      const auto it = run.samples.find(m.name);
      if (it == run.samples.end() || it->second.empty()) continue;
      out << (first ? "" : ",") << "\n        " << json_string(m.name) << ": "
          << summary_json(it->second, m.unit);
      first = false;
    }
    out << "\n      },\n      \"per_layer\": {";
    if (with_layers) {
      for (std::size_t k = 0; k < std::size(kLayers); ++k) {
        const auto it = run.layers.find(kLayers[k].name);
        out << (k > 0 ? "," : "") << "\n        " << json_string(kLayers[k].name)
            << ": {\"unit\": " << json_string(kLayers[k].unit) << ", \"value\": "
            << number(it != run.layers.end() ? it->second : 0.0) << "}";
      }
    }
    out << "\n      },\n      \"errors\": [";
    for (std::size_t k = 0; k < run.errors.size(); ++k) {
      out << (k > 0 ? ", " : "") << json_string(run.errors[k]);
    }
    out << "]\n    }";
  }
  out << "\n  }\n}\n";
  std::ofstream file(options.out);
  file << out.str();
  return static_cast<bool>(file);
}

/// The driver line: {correct, attempted, failed, metrics} for one workload,
/// with the end-to-end metrics (trace 0) or the per-layer ones (trace 1).
void print_driver_line(const WorkloadRun& run, int trace) {
  std::string metrics;
  const auto add = [&](const char* name, double value, const char* unit) {
    metrics += (metrics.empty() ? "" : ", ") + json_string(name) + ": {\"value\": " +
               number(value) + ", \"unit\": " + json_string(unit) + "}";
  };
  if (trace == 0) {
    for (const Metric& m : std::span(kTimedMetrics).first(kGated)) {
      const auto it = run.samples.find(m.name);
      add(m.name, it != run.samples.end() ? summarize(it->second).median : 0.0, m.unit);
    }
  } else {
    for (const Metric& m : kLayers) {
      const auto it = run.layers.find(m.name);
      add(m.name, it != run.layers.end() ? it->second : 0.0, m.unit);
    }
  }
  std::printf("{\"correct\": %s, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n",
              run.failed == 0 ? "true" : "false", run.attempted, run.failed, metrics.c_str());
}

int usage(const char* message) {
  std::fprintf(stderr,
               "bench_suite: %s\n"
               "usage: bench_suite [--workload NAME] [--seed S] [--seconds T] [--trace 0|1]\n"
               "                   [--smoke] [--out PATH]\n",
               message);
  return 2;
}

int run_main(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--smoke") {
      options.smoke = true;
    } else if (arg == "--workload" && has_value) {
      options.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      char* end = nullptr;
      options.seed = std::strtoull(argv[++i], &end, 10);
      if (*argv[i] == '\0' || *end != '\0') return usage("--seed takes a number");
    } else if (arg == "--seconds" && has_value) {
      char* end = nullptr;
      options.seconds = std::strtod(argv[++i], &end);
      if (*end != '\0' || !(*options.seconds > 0)) return usage("--seconds takes a positive number");
    } else if (arg == "--trace" && has_value) {
      const std::string value = argv[++i];
      if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
      options.trace = value == "1" ? 1 : 0;
    } else if (arg == "--out" && has_value) {
      options.out = argv[++i];
    } else {
      return usage(("unknown argument '" + arg + "'").c_str());
    }
  }

  std::vector<WorkloadRun> runs;
  for (const Workload& w : workloads()) {
    if (!options.workload.empty() && options.workload != w.name) continue;
    WorkloadRun run;
    run.workload = &w;
    run.text = script_text(w, options.seed, options.smoke);
    if (options.seed == kPinSeed && !options.smoke) run.reference = w.pin;
    runs.push_back(std::move(run));
  }
  if (runs.empty()) return usage(("unknown workload '" + options.workload + "'").c_str());

  const bool full = options.workload.empty();
  const bool timed_phase = full || options.trace == 0;
  const bool traced_phase = full || options.trace == 1;
  // Each timed repetition is preceded by a set-up child, so the set-up
  // samples span the same stretch of machine time as the repetitions.
  const auto repetition = [&](WorkloadRun& run) {
    if (timed_phase) run_setup(run);
    run_timed(run);
  };
  if (full || !options.seconds.has_value() || options.trace == 1) {
    // Fixed repetition counts, interleaved round-robin so a slow phase of
    // a shared machine hits every workload.
    const auto reps = [&](const WorkloadRun& run) {
      if (options.smoke) return kSmokeReps;
      return timed_phase ? run.workload->reps : kTracedRunReps;
    };
    int most = 0;
    for (const WorkloadRun& run : runs) most = std::max(most, reps(run));
    for (int i = 0; i < most; ++i) {
      for (WorkloadRun& run : runs) {
        if (i < reps(run)) repetition(run);
      }
    }
  } else {
    const auto start = std::chrono::steady_clock::now();
    const auto elapsed = [&] {
      return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    };
    for (int reps = 0; reps < kMinReps || elapsed() < *options.seconds; ++reps) {
      repetition(runs.front());
    }
  }
  if (timed_phase) {
    const int min_setups = options.smoke ? kSmokeReps : kMinSetups;
    for (WorkloadRun& run : runs) {
      while (run.setups < min_setups) run_setup(run);
    }
  }
  if (traced_phase) {
    for (WorkloadRun& run : runs) run_traced(run);
  }

  bool correct = true;
  for (const WorkloadRun& run : runs) {
    print_workload(run, traced_phase);
    correct = correct && run.failed == 0;
  }
  if (!write_results(options, runs, traced_phase)) {
    std::fprintf(stderr, "bench_suite: cannot write %s\n", options.out.c_str());
    correct = false;
  }
  if (!full) print_driver_line(runs.front(), options.trace);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace bench_suite

int main(int argc, char** argv) { return bench_suite::run_main(argc, argv); }
