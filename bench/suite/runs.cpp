#include "runs.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <utility>
#include <variant>
#include <vector>

#include "core/consensus.hpp"
#include "core/total_order.hpp"
#include "dist/shard_coordinator.hpp"
#include "dist/shard_worker.hpp"
#include "harness/scenario.hpp"
#include "harness/script.hpp"
#include "net/codec.hpp"
#include "net/sync_simulator.hpp"
#include "workloads.hpp"

namespace bench_suite {

using namespace idonly;

namespace {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_seconds() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) * 1e-6;
}

ScenarioScript parse_or_throw(const std::string& text) {
  auto parsed = parse_script(text);
  if (const auto* err = std::get_if<ParseError>(&parsed)) {
    throw std::runtime_error("script line " + std::to_string(err->line) + ": " + err->message);
  }
  return std::get<ScenarioScript>(std::move(parsed));
}

bool is_consensus(const ScenarioScript& script) {
  return script.protocol == ScriptProtocol::kConsensus;
}

// The process factories of harness/script.cpp's consensus and totalorder
// runners, which ShardWorker replicates too.
std::unique_ptr<Process> make_correct(const ScenarioScript& script, NodeId id,
                                      std::size_t index) {
  if (is_consensus(script)) {
    return std::make_unique<ConsensusProcess>(
        id, Value::real(script.inputs[index % script.inputs.size()]));
  }
  return std::make_unique<TotalOrderProcess>(id, /*founder=*/true);
}

std::unique_ptr<Process> make_joiner(const ScenarioScript& script, const Scenario& scenario,
                                     NodeId id, std::size_t joiner_index) {
  if (is_consensus(script)) {
    const std::size_t index = scenario.correct_ids.size() + joiner_index;
    return std::make_unique<ConsensusProcess>(
        id, Value::real(script.inputs[index % script.inputs.size()]));
  }
  return std::make_unique<TotalOrderProcess>(id, /*founder=*/false);
}

void submit_events(const Scenario& scenario, const std::map<NodeId, Process*>& processes) {
  for (std::size_t i = 0; i < scenario.correct_ids.size(); ++i) {
    auto* p = dynamic_cast<TotalOrderProcess*>(processes.at(scenario.correct_ids[i]));
    if (p == nullptr) continue;
    for (int k = 0; k < 4; ++k) p->submit_event(static_cast<double>(i * 10 + k));
  }
}

struct Span {
  Round round = 0;
  std::int64_t start = 0;
  std::int64_t end = 0;
};

/// What one process's on_round calls cost. Owned by the twin, not the
/// process, because churn removes processes mid-run.
struct Ledger {
  bool byzantine = false;
  std::vector<Span> spans;
  std::uint64_t sends = 0;
};

/// Times each on_round call of the wrapped process. Only the outermost
/// process is wrapped, so an adversary's inner correct faces are counted
/// once, as adversary time. Each process is stepped by one thread per
/// round, so its ledger needs no lock.
class TimedProcess final : public Process {
 public:
  TimedProcess(std::unique_ptr<Process> inner, Ledger& ledger)
      : Process(inner->id()), inner_(std::move(inner)), ledger_(ledger) {}

  void on_round(RoundInfo round, std::span<const Message> inbox,
                std::vector<Outgoing>& out) override {
    const std::size_t before = out.size();
    const std::int64_t start = now_ns();
    inner_->on_round(round, inbox, out);
    ledger_.spans.push_back({round.global, start, now_ns()});
    ledger_.sends += out.size() - before;
  }
  [[nodiscard]] bool done() const override { return inner_->done(); }
  [[nodiscard]] bool byzantine() const override { return ledger_.byzantine; }

 private:
  std::unique_ptr<Process> inner_;
  Ledger& ledger_;
};

/// Length of the union of [start, end) intervals.
std::int64_t union_ns(std::vector<std::pair<std::int64_t, std::int64_t>>& spans) {
  std::sort(spans.begin(), spans.end());
  std::int64_t covered = 0;
  std::int64_t reach = std::numeric_limits<std::int64_t>::min();
  for (const auto& [start, end] : spans) {
    covered += std::max<std::int64_t>(0, end - std::max(start, reach));
    reach = std::max(reach, end);
  }
  return covered;
}

}  // namespace

Values timed_run(const std::string& text, bool dist) {
  if (dist) {
    DistConfig config;
    config.script_text = text;
    config.shards = kShards;
    config.mesh = true;
    const DistRun run = run_dist(config);
    if (!run.infra_ok) throw std::runtime_error("run_dist: " + run.infra_error);
    return {{"all_satisfied", run.script.all_satisfied ? 1.0 : 0.0},
            {"violations", static_cast<double>(run.script.violations.size())},
            {"rounds", static_cast<double>(run.script.rounds)},
            {"deliveries", static_cast<double>(run.script.messages)},
            {"rounds_overlapped", static_cast<double>(run.metrics.overlap.rounds_overlapped)},
            {"recv_stall_ns", static_cast<double>(run.metrics.overlap.recv_stall_ns)}};
  }
  ScriptOptions options;
  options.threads = kThreads;
  const ScriptRun run = run_script(parse_or_throw(text), options);
  return {{"all_satisfied", run.all_satisfied ? 1.0 : 0.0},
          {"violations", static_cast<double>(run.violations.size())},
          {"rounds", static_cast<double>(run.rounds)},
          {"deliveries", static_cast<double>(run.messages)}};
}

Values setup_run(const std::string& text, bool dist) {
  const std::int64_t start = now_ns();
  const ScenarioScript script = parse_or_throw(text);
  if (!dist) {
    const Scenario scenario = make_scenario(script.config);
    SyncSimulator sim;
    build_processes(
        scenario, [&](NodeId id, std::size_t index) { return make_correct(script, id, index); },
        [&](std::unique_ptr<Process> process) { sim.add_process(std::move(process)); });
    return {{"setup_s", static_cast<double>(now_ns() - start) * 1e-9}};
  }
  const std::int64_t parsed = now_ns();
  std::int64_t slowest = 0;
  for (std::uint32_t shard = 0; shard < kShards; ++shard) {
    ShardInit init;
    init.shard = shard;
    init.shards = kShards;
    init.script_text = text;
    const std::int64_t begin = now_ns();
    const ShardWorker worker(init);
    slowest = std::max(slowest, now_ns() - begin);
  }
  return {{"setup_s", static_cast<double>(parsed - start + slowest) * 1e-9}};
}

Values sync_twin(const std::string& text, unsigned threads) {
  const std::int64_t t_start = now_ns();
  const ScenarioScript script = parse_or_throw(text);
  const std::int64_t t_parsed = now_ns();

  const Scenario scenario = make_scenario(script.config);
  SyncSimulator sim;
  std::vector<std::unique_ptr<Ledger>> ledgers;
  std::map<NodeId, Process*> unwrapped;
  const auto wrap = [&](std::unique_ptr<Process> process) -> std::unique_ptr<Process> {
    ledgers.push_back(std::make_unique<Ledger>());
    ledgers.back()->byzantine = process->byzantine();
    return std::make_unique<TimedProcess>(std::move(process), *ledgers.back());
  };
  build_processes(
      scenario, [&](NodeId id, std::size_t index) { return make_correct(script, id, index); },
      [&](std::unique_ptr<Process> process) {
        unwrapped[process->id()] = process.get();
        sim.add_process(wrap(std::move(process)));
      });
  const std::int64_t t_built = now_ns();
  if (!is_consensus(script)) submit_events(scenario, unwrapped);
  sim.set_threads(threads);
  std::shared_ptr<ChaosSchedule> chaos;
  if (!script.chaos_phases.empty()) {
    chaos = std::make_shared<ChaosSchedule>(
        materialize_chaos_plan(script.chaos_phases, scenario.all_ids()), script.config.seed);
    sim.set_chaos(chaos);
  }

  // The loop of harness/script.cpp: consensus stops once every tracked
  // correct node is done, totalorder runs max_rounds.
  ChurnDriver churn(script, scenario);
  const ChurnDriver::JoinerFactory joiner = [&](NodeId id, std::size_t index) {
    return wrap(make_joiner(script, scenario, id, index));
  };
  const auto tracked_done = [&] {
    bool any = false;
    for (NodeId id : churn.tracked()) {
      const Process* p = sim.find(id);
      if (p == nullptr || !p->done()) return false;
      any = true;
    }
    return any;
  };
  std::vector<Span> steps;
  const double cpu_start = cpu_seconds();
  const std::int64_t t_loop = now_ns();
  for (Round i = 0; i < script.max_rounds; ++i) {
    if (is_consensus(script) && tracked_done()) break;
    churn.apply(sim, sim.round() + 1, joiner);
    const std::int64_t start = now_ns();
    sim.step();
    steps.push_back({sim.round(), start, now_ns()});
  }
  const std::int64_t t_end = now_ns();
  const double cpu = cpu_seconds() - cpu_start;

  // Engine self time per round: the step span minus the union of the
  // on_round spans inside it.
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> by_round(steps.size() + 1);
  double core_ns = 0;
  double adversary_ns = 0;
  double core_calls = 0;
  double core_sends = 0;
  for (const auto& ledger : ledgers) {
    for (const Span& span : ledger->spans) {
      const auto ns = static_cast<double>(span.end - span.start);
      if (ledger->byzantine) {
        adversary_ns += ns;
      } else {
        core_ns += ns;
        core_calls += 1;
      }
      if (span.round >= 1 && static_cast<std::size_t>(span.round) < by_round.size()) {
        by_round[static_cast<std::size_t>(span.round)].emplace_back(span.start, span.end);
      }
    }
    if (!ledger->byzantine) core_sends += static_cast<double>(ledger->sends);
  }
  double step_ns = 0;
  double self_ns = 0;
  for (const Span& step : steps) {
    const auto length = static_cast<double>(step.end - step.start);
    step_ns += length;
    self_ns += length - static_cast<double>(union_ns(by_round[static_cast<std::size_t>(step.round)]));
  }

  const double rounds = std::max<double>(1.0, static_cast<double>(sim.round()));
  const Metrics& metrics = sim.metrics();
  const double faults =
      chaos != nullptr ? static_cast<double>(chaos->counters().total_faults().total()) : 0.0;
  return {
      {"harness.parse_ms", static_cast<double>(t_parsed - t_start) * 1e-6},
      {"harness.build_ms", static_cast<double>(t_built - t_parsed) * 1e-6},
      {"net.step_ms_per_round", step_ns * 1e-6 / rounds},
      {"net.engine_self_ms_per_round", self_ns * 1e-6 / rounds},
      {"net.deliveries_per_round", static_cast<double>(metrics.messages.total_delivered()) / rounds},
      {"net.bytes_per_round", static_cast<double>(metrics.fanout.bytes_delivered) / rounds},
      {"net.dedup_hits_per_round", static_cast<double>(metrics.fanout.dedup_hits) / rounds},
      {"net.parallel_exec.busy_ratio",
       step_ns > 0 ? (core_ns + adversary_ns) / (threads * step_ns) : 0.0},
      {"net.parallel_exec.cores_busy", cpu / (static_cast<double>(t_end - t_loop) * 1e-9)},
      {"core.on_round_ms_per_round", core_ns * 1e-6 / rounds},
      {"core.on_round_us_per_call", core_calls > 0 ? core_ns * 1e-3 / core_calls : 0.0},
      {"core.sends_per_round", core_sends / rounds},
      {"adversary.on_round_ms_per_round", adversary_ns * 1e-6 / rounds},
      {"common.chaos.faults_per_round", faults / rounds},
      {"bench.step_coverage", step_ns / static_cast<double>(t_end - t_start)},
      {"wall_s", static_cast<double>(t_end - t_start) * 1e-9},
      {"rounds", static_cast<double>(sim.round())},
      {"deliveries", static_cast<double>(metrics.messages.total_delivered())},
  };
}

Values fleet_twin(const std::string& text, std::uint32_t shards) {
  const std::int64_t t_start = now_ns();
  const ScenarioScript script = parse_or_throw(text);
  const std::int64_t t_parsed = now_ns();
  std::vector<std::unique_ptr<ShardWorker>> workers;
  std::int64_t slowest_build = 0;
  for (std::uint32_t shard = 0; shard < shards; ++shard) {
    ShardInit init;
    init.shard = shard;
    init.shards = shards;
    init.script_text = text;
    const std::int64_t begin = now_ns();
    workers.push_back(std::make_unique<ShardWorker>(init));
    slowest_build = std::max(slowest_build, now_ns() - begin);
  }

  // The coordinator's loop policy (dist/shard_coordinator.cpp): its own
  // ChurnDriver tracks the expectation set, worker statuses stand in for
  // the processes.
  const Scenario scenario = make_scenario(script.config);
  ChurnDriver churn(script, scenario);
  std::map<NodeId, bool> done;
  const auto tracked_done = [&] {
    bool any = false;
    for (NodeId id : churn.tracked()) {
      const auto it = done.find(id);
      if (it == done.end() || !it->second) return false;
      any = true;
    }
    return any;
  };
  std::vector<std::int64_t> begin_ns(shards);
  std::vector<std::int64_t> decode_ns(shards);
  std::vector<std::int64_t> merge_ns(shards);
  std::vector<std::vector<std::byte>> slabs;  // every slab of the run, for the codec pass
  Round rounds = 0;
  for (Round i = 0; i < script.max_rounds; ++i) {
    if (is_consensus(script) && tracked_done()) break;
    churn.apply(
        rounds + 1, [](NodeId, std::size_t) { return std::unique_ptr<Process>{}; },
        [](std::unique_ptr<Process>) {}, [](NodeId) {});
    std::vector<std::vector<std::size_t>> inbox(shards);
    for (std::uint32_t s = 0; s < shards; ++s) {
      const std::int64_t begin = now_ns();
      const auto out = workers[s]->begin_round();
      begin_ns[s] += now_ns() - begin;
      for (const ShardWorker::OutboundSlab& slab : out) {
        inbox[slab.dest].push_back(slabs.size());
        slabs.emplace_back(slab.bytes.begin(), slab.bytes.end());
      }
    }
    for (std::uint32_t s = 0; s < shards; ++s) {
      std::vector<std::vector<ShardEngine::Send>> streams;
      for (const std::size_t index : inbox[s]) {
        std::vector<ShardEngine::Send> stream;
        const std::int64_t begin = now_ns();
        if (!workers[s]->decode_peer_slab(slabs[index], stream)) {
          throw std::runtime_error(workers[s]->error());
        }
        decode_ns[s] += now_ns() - begin;
        streams.push_back(std::move(stream));
      }
      const std::int64_t begin = now_ns();
      workers[s]->merge_round(streams);
      merge_ns[s] += now_ns() - begin;
    }
    for (const auto& worker : workers) {
      for (const auto& [id, node_done] : worker->status().done) done[id] = node_done;
    }
    rounds += 1;
  }
  const std::int64_t t_end = now_ns();
  std::uint64_t deliveries = 0;
  for (const auto& worker : workers) {
    deliveries += worker->finalize().metrics.messages.total_delivered();
  }

  // Codec pass over the slabs the fleet produced: structural parse + frame
  // decode, then re-encoding the decoded frames with ShardSlabWriter::add.
  std::uint64_t frames = 0;
  std::uint64_t encoded_frames = 0;
  std::uint64_t slab_bytes = 0;
  std::int64_t decode_pass_ns = 0;
  std::int64_t encode_pass_ns = 0;
  std::vector<std::pair<std::optional<NodeId>, Message>> decoded;
  ShardSlabWriter writer;
  for (const std::vector<std::byte>& slab : slabs) {
    slab_bytes += slab.size();
    decoded.clear();
    std::int64_t begin = now_ns();
    const auto view = parse_shard_slab(slab);
    if (!view.has_value()) throw std::runtime_error("fleet produced a malformed shard slab");
    for (const ShardSlabView::Entry& entry : view->entries) {
      auto msg = decode(entry.frame);
      if (!msg.has_value()) throw std::runtime_error("fleet produced an undecodable frame");
      decoded.emplace_back(entry.to, *std::move(msg));
    }
    decode_pass_ns += now_ns() - begin;
    writer.reset(view->shard, view->round);
    begin = now_ns();
    for (const auto& [to, msg] : decoded) writer.add(to, msg);
    encode_pass_ns += now_ns() - begin;
    frames += decoded.size();
    encoded_frames += writer.frame_count();
  }
  if (encoded_frames != frames) throw std::runtime_error("codec pass lost frames");

  const double n_rounds = std::max<double>(1.0, static_cast<double>(rounds));
  const auto ms_per_round = [&](double ns) { return ns * 1e-6 / n_rounds; };
  const auto mean = [](const std::vector<std::int64_t>& v) {
    double sum = 0;
    for (const std::int64_t x : v) sum += static_cast<double>(x);
    return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
  };
  std::vector<std::int64_t> compute(shards);
  for (std::uint32_t s = 0; s < shards; ++s) compute[s] = begin_ns[s] + decode_ns[s] + merge_ns[s];
  const double slowest = static_cast<double>(*std::max_element(compute.begin(), compute.end()));
  const double frame_count = std::max<double>(1.0, static_cast<double>(frames));
  return {
      {"harness.parse_ms", static_cast<double>(t_parsed - t_start) * 1e-6},
      {"harness.build_ms", static_cast<double>(slowest_build) * 1e-6},
      {"dist.begin_round_ms_per_round", ms_per_round(mean(begin_ns))},
      {"dist.decode_ms_per_round", ms_per_round(mean(decode_ns))},
      {"dist.merge_ms_per_round", ms_per_round(mean(merge_ns))},
      {"dist.shard_compute_ms_per_round", ms_per_round(slowest)},
      {"dist.shard_skew", mean(compute) > 0 ? slowest / mean(compute) : 0.0},
      {"dist.slab_bytes_per_round", static_cast<double>(slab_bytes) / n_rounds},
      {"net.codec.decode_ns_per_frame", static_cast<double>(decode_pass_ns) / frame_count},
      {"net.codec.encode_ns_per_frame", static_cast<double>(encode_pass_ns) / frame_count},
      {"net.codec.bytes_per_frame", static_cast<double>(slab_bytes) / frame_count},
      {"wall_s", static_cast<double>(t_end - t_start) * 1e-9},
      {"rounds", static_cast<double>(rounds)},
      {"deliveries", static_cast<double>(deliveries)},
  };
}

Values trace_twin(const std::string& text, bool with_recorder) {
  const std::int64_t start = now_ns();
  ScriptOptions options;
  if (with_recorder) options.recorder = std::make_shared<TraceRecorder>(TraceEngine::kSync);
  const ScriptRun run = run_script(parse_or_throw(text), options);
  Values values{{"wall_s", static_cast<double>(now_ns() - start) * 1e-9},
                {"rounds", static_cast<double>(run.rounds)},
                {"deliveries", static_cast<double>(run.messages)}};
  if (with_recorder) {
    values["records"] =
        static_cast<double>(options.recorder->size() + options.recorder->evicted());
  }
  return values;
}

}  // namespace bench_suite
