// Flight recorder: ring-buffer semantics, exporters, the cross-engine
// golden-trace contract (one seed ⇒ byte-identical canonical JSONL on the
// sync simulator, the async simulator, and the runtime transports), the
// trace_diff divergence report, and the Prometheus metrics exposition.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "check/trace_diff.hpp"
#include "common/chaos.hpp"
#include "common/metrics.hpp"
#include "common/observer.hpp"
#include "common/trace.hpp"
#include "harness/script.hpp"
#include "net/async_simulator.hpp"
#include "net/chaos_hooks.hpp"
#include "net/sync_simulator.hpp"
#include "runtime/chaos_transport.hpp"
#include "runtime/inmemory_transport.hpp"
#include "runtime/round_driver.hpp"
#include "runtime/watchdog.hpp"
#include "wire_frames.hpp"

namespace idonly {
namespace {

using namespace std::chrono_literals;

// ---------------------------------------------------------- ring buffers --

TEST(TraceRecorderUnit, RingEvictsOldestAndStampsPerNodeSequences) {
  TraceRecorder recorder(TraceEngine::kSync, /*per_node_capacity=*/4);
  for (Round r = 1; r <= 6; ++r) recorder.record_send(1, r, std::nullopt);
  recorder.record_send(2, 1, /*to=*/std::optional<NodeId>{7});

  EXPECT_EQ(recorder.per_node_capacity(), 4u);
  EXPECT_EQ(recorder.size(), 5u) << "4 surviving on node 1 + 1 on node 2";
  EXPECT_EQ(recorder.evicted(), 2u);

  const auto records = recorder.snapshot();
  ASSERT_EQ(records.size(), 5u);
  // Node 1's ring kept the NEWEST four; capture sequences keep counting
  // through evictions (seq identifies the record forever, not its slot).
  EXPECT_EQ(records[0].node, 1u);
  EXPECT_EQ(records[0].seq, 2u);
  EXPECT_EQ(records[0].round, 3);
  EXPECT_EQ(records[3].seq, 5u);
  EXPECT_EQ(records[3].round, 6);
  // Node 2's sequence is independent.
  EXPECT_EQ(records[4].node, 2u);
  EXPECT_EQ(records[4].seq, 0u);
  EXPECT_EQ(records[4].to, 7u);
  EXPECT_EQ(records[4].extra, 0) << "unicast send";
  EXPECT_EQ(records[0].extra, 1) << "broadcast send";

  recorder.clear();
  EXPECT_EQ(recorder.size(), 0u);
  EXPECT_EQ(recorder.evicted(), 0u);
}

TEST(TraceRecorderUnit, LinkVerdictKindPriorityIsDropDupDelayCorrupt) {
  TraceRecorder recorder(TraceEngine::kSync);
  FaultDecision verdict;
  verdict.drop = true;
  verdict.duplicate = true;
  verdict.corrupt = true;
  verdict.delay_rounds = 2;
  recorder.record_link_verdict(LinkEvent{1, 1, 2, 0}, verdict);
  verdict.drop = false;
  recorder.record_link_verdict(LinkEvent{2, 1, 2, 0}, verdict);
  verdict.duplicate = false;
  recorder.record_link_verdict(LinkEvent{3, 1, 2, 0}, verdict);
  verdict.delay_rounds = 0;
  recorder.record_link_verdict(LinkEvent{4, 1, 2, 0}, verdict);
  verdict.corrupt = false;
  recorder.record_link_verdict(LinkEvent{5, 1, 2, 0}, verdict);

  const auto canon = recorder.canonical();
  ASSERT_EQ(canon.size(), 5u);
  EXPECT_EQ(canon[0].kind, TraceEventKind::kLinkDrop);
  EXPECT_EQ(canon[1].kind, TraceEventKind::kLinkDuplicate);
  EXPECT_EQ(canon[2].kind, TraceEventKind::kLinkDelay);
  EXPECT_EQ(canon[2].extra, 2) << "delay records carry the extra rounds";
  EXPECT_EQ(canon[3].kind, TraceEventKind::kLinkCorrupt);
  EXPECT_EQ(canon[4].kind, TraceEventKind::kLinkClean);
  EXPECT_EQ(canon[0].node, 2u) << "the receiver owns the link record";
}

// ------------------------------------------------------------- exporters --

TEST(TraceRecorderUnit, JsonlHasHeaderAndCanonicalStripsEngineAndSelfLinks) {
  TraceRecorder recorder(TraceEngine::kRuntime);
  FaultDecision drop;
  drop.drop = true;
  recorder.record_link_verdict(LinkEvent{3, 1, 2, 0}, drop);
  recorder.record_link_verdict(LinkEvent{2, 2, 1, 0}, FaultDecision{});
  recorder.record_link_verdict(LinkEvent{1, 5, 5, 0}, FaultDecision{});  // self-link
  recorder.record_send(1, 1, std::nullopt);
  recorder.record_deliver(2, 3, 1);

  const std::string full = recorder.jsonl();
  EXPECT_NE(full.find("{\"idonly_trace\":1,\"engine\":\"runtime\",\"records\":5,\"evicted\":0}"),
            std::string::npos);
  EXPECT_NE(full.find("\"kind\":\"send\""), std::string::npos);
  EXPECT_NE(full.find("\"kind\":\"deliver\""), std::string::npos);

  const std::string canon = recorder.canonical_jsonl();
  EXPECT_EQ(canon.find("engine"), std::string::npos) << "engine identity must be stripped";
  EXPECT_EQ(canon.find("\"send\""), std::string::npos) << "engine-local records excluded";
  EXPECT_EQ(canon.find(":5"), std::string::npos) << "self-link excluded";
  // Sorted by (round, from, to, link_seq): the round-2 clean link leads.
  EXPECT_EQ(canon.rfind("{\"kind\":\"link_clean\",\"round\":2", 0), 0u);
  EXPECT_NE(canon.find("{\"kind\":\"link_drop\",\"round\":3,\"from\":1,\"to\":2,\"seq\":0,"
                       "\"extra\":0}"),
            std::string::npos);
}

TEST(TraceRecorderUnit, ChromeTraceExportsInstantEventsPerRecord) {
  TraceRecorder recorder(TraceEngine::kSync);
  recorder.record_send(4, 2, std::nullopt);
  ProtocolEvent event;
  event.type = ProtocolEvent::Type::kDecided;
  event.node = 4;
  event.round = 2;
  event.value = Value::real(1.0);
  recorder.record_protocol(event);

  const std::string chrome = recorder.chrome_trace_json();
  EXPECT_EQ(chrome.rfind("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", 0), 0u);
  EXPECT_NE(chrome.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(chrome.find("\"pid\":4"), std::string::npos);
  EXPECT_NE(chrome.find("\"name\":\"protocol\""), std::string::npos);
  EXPECT_EQ(chrome.back(), '}');
}

TEST(TraceObserverUnit, ForwardsToRecorderAndChainsToNextObserver) {
  auto recorder = std::make_shared<TraceRecorder>(TraceEngine::kSync);
  EventLog log;
  TraceObserver observer(recorder, &log);
  ProtocolEvent event;
  event.type = ProtocolEvent::Type::kAccepted;
  event.node = 9;
  event.round = 4;
  event.subject = 3;
  observer.on_event(event);

  ASSERT_EQ(log.events().size(), 1u) << "the chained observer still sees the event";
  const auto records = recorder->snapshot();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].kind, TraceEventKind::kProtocol);
  EXPECT_EQ(records[0].node, 9u);
  EXPECT_EQ(records[0].from, 3u);
  EXPECT_EQ(records[0].detail, event.to_string());
}

// ------------------------------------------- cross-engine golden traces --

// Same chatter workload as test_chaos's cross-engine test: traffic that is
// independent of delivery, so all three engines ask the chaos schedule the
// same link-event questions — and now the per-node flight recorders must
// export byte-identical canonical JSONL.
class ChatterProcess final : public Process {
 public:
  using Process::Process;
  void on_round(RoundInfo /*round*/, std::span<const Message> /*inbox*/,
                std::vector<Outgoing>& out) override {
    broadcast(out, Message{.kind = MsgKind::kPresent});
  }
};

class AsyncChatter final : public AsyncProcess {
 public:
  AsyncChatter(NodeId id, Time period, int sends)
      : AsyncProcess(id), period_(period), remaining_(sends) {}
  void on_start(Time now, std::vector<AsyncOutgoing>& out) override { send(now, out); }
  void on_message(Time /*now*/, const Message& /*msg*/,
                  std::vector<AsyncOutgoing>& /*out*/) override {}
  void on_timer(Time now, std::vector<AsyncOutgoing>& out) override { send(now, out); }
  [[nodiscard]] std::optional<Time> timer_deadline() const override {
    return remaining_ > 0 ? std::optional<Time>(next_) : std::nullopt;
  }
  [[nodiscard]] bool decided() const override { return false; }
  [[nodiscard]] Value decision() const override { return Value::real(0.0); }

 private:
  void send(Time now, std::vector<AsyncOutgoing>& out) {
    out.push_back(AsyncOutgoing{std::nullopt, Message{.kind = MsgKind::kPresent}});
    remaining_ -= 1;
    next_ = now + period_;
  }
  Time period_;
  int remaining_;
  Time next_ = 0;
};

struct GoldenSetup {
  ChaosPlan plan;
  std::uint64_t seed = 99;
  std::vector<NodeId> ids{10, 20, 30};
  Round rounds = 6;
};

GoldenSetup golden_setup() {
  ChaosPhase phase;
  phase.first_round = 2;
  phase.last_round = 4;
  phase.drop = 0.25;
  phase.duplicate = 0.2;
  phase.corrupt = 0.15;
  phase.delay = DelaySpec{0.25, 2};
  return GoldenSetup{ChaosPlan{{phase}}};
}

std::string run_sync_traced(const GoldenSetup& setup) {
  auto chaos = std::make_shared<ChaosSchedule>(setup.plan, setup.seed);
  auto recorder = std::make_shared<TraceRecorder>(TraceEngine::kSync);
  SyncSimulator sim;
  sim.set_chaos(chaos);
  sim.set_trace_recorder(recorder);
  for (NodeId id : setup.ids) sim.add_process(std::make_unique<ChatterProcess>(id));
  sim.run_rounds(setup.rounds);
  return recorder->canonical_jsonl();
}

std::string run_async_traced(const GoldenSetup& setup) {
  auto chaos = std::make_shared<ChaosSchedule>(setup.plan, setup.seed);
  auto recorder = std::make_shared<TraceRecorder>(TraceEngine::kAsync);
  AsyncSimulator sim(make_chaos_delay_model(chaos, 10.0, recorder));
  for (NodeId id : setup.ids) {
    sim.add_process(std::make_unique<AsyncChatter>(id, 10.0, static_cast<int>(setup.rounds)));
  }
  sim.run(1000.0);
  return recorder->canonical_jsonl();
}

std::string run_runtime_traced(const GoldenSetup& setup) {
  auto chaos = std::make_shared<ChaosSchedule>(setup.plan, setup.seed);
  auto recorder = std::make_shared<TraceRecorder>(TraceEngine::kRuntime);
  InMemoryHub hub;
  std::vector<std::unique_ptr<ChaosTransport>> transports;
  for (NodeId id : setup.ids) {
    transports.push_back(std::make_unique<ChaosTransport>(hub.make_endpoint(), chaos, id));
    transports.back()->set_trace_recorder(recorder);
  }
  for (Round r = 1; r <= setup.rounds; ++r) {
    for (std::size_t i = 0; i < setup.ids.size(); ++i) {
      transports[i]->broadcast(framed(r, setup.ids[i]));
    }
    for (auto& transport : transports) (void)transport->drain_views();
  }
  return recorder->canonical_jsonl();
}

TEST(TraceGolden, CanonicalJsonlIsByteIdenticalAcrossAllThreeEngines) {
  const GoldenSetup setup = golden_setup();
  const std::string sync_trace = run_sync_traced(setup);
  EXPECT_FALSE(sync_trace.empty()) << "the plan must actually fire at these probabilities";
  EXPECT_NE(sync_trace.find("\"kind\":\"link_drop\""), std::string::npos);
  EXPECT_EQ(sync_trace, run_sync_traced(setup)) << "one engine, one seed, one trace";
  EXPECT_EQ(sync_trace, run_async_traced(setup)) << "async trace must match sync";
  EXPECT_EQ(sync_trace, run_runtime_traced(setup)) << "runtime trace must match sync";
}

TEST(TraceGolden, TraceDiffReportsZeroDivergenceAcrossEngines) {
  const GoldenSetup setup = golden_setup();
  const TraceDiffResult result =
      diff_canonical_traces(run_sync_traced(setup), run_runtime_traced(setup));
  EXPECT_FALSE(result.diverged) << result.to_string();
  EXPECT_GT(result.left_records, 0u);
  EXPECT_EQ(result.left_records, result.right_records);
  EXPECT_NE(result.to_string().find("traces identical"), std::string::npos);
}

TEST(TraceGolden, DifferentSeedsProduceDifferentCanonicalTraces) {
  const GoldenSetup setup = golden_setup();
  GoldenSetup other = setup;
  other.seed = 100;
  EXPECT_NE(run_sync_traced(setup), run_sync_traced(other));
}

// ------------------------------------------------------------ trace_diff --

TEST(TraceDiffTool, PinpointsTheExactFirstDivergentRecord) {
  TraceRecorder left(TraceEngine::kSync);
  TraceRecorder right(TraceEngine::kRuntime);
  FaultDecision clean;
  FaultDecision drop;
  drop.drop = true;
  for (Round r = 1; r <= 3; ++r) {
    for (std::uint64_t seq = 0; seq < 2; ++seq) {
      left.record_link_verdict(LinkEvent{r, 1, 2, seq}, clean);
      // Injected divergence: the right trace dropped (round 2, 1→2, seq 1).
      const bool injected = r == 2 && seq == 1;
      right.record_link_verdict(LinkEvent{r, 1, 2, seq}, injected ? drop : clean);
    }
  }

  const TraceDiffResult result =
      diff_canonical_traces(left.canonical_jsonl(), right.canonical_jsonl());
  ASSERT_TRUE(result.diverged);
  EXPECT_EQ(result.index, 3u) << "records (1,0) (1,1) (2,0) agree";
  EXPECT_EQ(result.node, 2u);
  EXPECT_EQ(result.round, 2);
  EXPECT_EQ(result.from, 1u);
  EXPECT_EQ(result.seq, 1u);
  EXPECT_NE(result.to_string().find("first divergence at record 3"), std::string::npos);
  EXPECT_NE(result.left.find("link_clean"), std::string::npos);
  EXPECT_NE(result.right.find("link_drop"), std::string::npos);
}

TEST(TraceDiffTool, MissingTailRecordIsADivergence) {
  TraceRecorder left(TraceEngine::kSync);
  TraceRecorder right(TraceEngine::kSync);
  left.record_link_verdict(LinkEvent{1, 1, 2, 0}, FaultDecision{});
  left.record_link_verdict(LinkEvent{2, 1, 2, 0}, FaultDecision{});
  right.record_link_verdict(LinkEvent{1, 1, 2, 0}, FaultDecision{});

  const TraceDiffResult result =
      diff_canonical_traces(left.canonical_jsonl(), right.canonical_jsonl());
  ASSERT_TRUE(result.diverged);
  EXPECT_EQ(result.index, 1u);
  EXPECT_EQ(result.round, 2);
  EXPECT_TRUE(result.right.empty()) << "the shorter trace ran out";
}

TEST(TraceDiffTool, FullExportComparesEqualToCanonicalExport) {
  // The diff must accept the full JSONL (header + engine-local records) and
  // still compare only the canonical family.
  const GoldenSetup setup = golden_setup();
  auto chaos = std::make_shared<ChaosSchedule>(setup.plan, setup.seed);
  auto recorder = std::make_shared<TraceRecorder>(TraceEngine::kSync);
  SyncSimulator sim;
  sim.set_chaos(chaos);
  sim.set_trace_recorder(recorder);
  for (NodeId id : setup.ids) sim.add_process(std::make_unique<ChatterProcess>(id));
  sim.run_rounds(setup.rounds);

  const TraceDiffResult result =
      diff_canonical_traces(recorder->jsonl(), recorder->canonical_jsonl());
  EXPECT_FALSE(result.diverged) << result.to_string();
  EXPECT_GT(result.left_records, 0u);
}

// --------------------------------------------------------- runtime wiring --

/// Never finishes, never sends — pure clock observation (as in test_watchdog).
class NullProcess final : public Process {
 public:
  using Process::Process;
  void on_round(RoundInfo /*round*/, std::span<const Message> /*inbox*/,
                std::vector<Outgoing>& /*out*/) override {}
};

std::size_t count_kind(const std::vector<TraceRecord>& records, TraceEventKind kind) {
  std::size_t n = 0;
  for (const TraceRecord& rec : records) n += rec.kind == kind ? 1 : 0;
  return n;
}

TEST(TraceRuntime, RoundDriverRecordsSendsDeliversAndClockTransitions) {
  // Two chatter drivers over the hub: every round each records its own
  // broadcast and next round delivers the peer's (and its own) frame.
  InMemoryHub hub;
  auto recorder = std::make_shared<TraceRecorder>(TraceEngine::kRuntime);
  RoundDriverConfig config;
  config.epoch = std::chrono::steady_clock::now() + 20ms;
  config.round_duration = 10ms;
  config.max_rounds = 4;
  config.recorder = recorder;

  std::vector<std::unique_ptr<RoundDriver>> drivers;
  for (NodeId id : {1u, 2u}) {
    drivers.push_back(std::make_unique<RoundDriver>(std::make_unique<ChatterProcess>(id),
                                                    hub.make_endpoint(), config));
  }
  std::vector<std::thread> threads;
  for (auto& driver : drivers) threads.emplace_back([&driver] { driver->run(); });
  for (auto& thread : threads) thread.join();

  const auto records = recorder->snapshot();
  EXPECT_EQ(count_kind(records, TraceEventKind::kSend), 8u) << "2 nodes x 4 rounds";
  EXPECT_GT(count_kind(records, TraceEventKind::kDeliver), 0u);
}

TEST(TraceRuntime, WatchdogRestartIsRecordedOnTheWedgedNode) {
  auto recorder = std::make_shared<TraceRecorder>(TraceEngine::kRuntime);
  WatchdogConfig watchdog;
  watchdog.poll_interval = 5ms;
  watchdog.stall_timeout = 60ms;
  watchdog.max_restarts_per_slot = 1;
  watchdog.recorder = recorder;
  DriverPool pool(watchdog);

  InMemoryHub hub;
  auto attempts = std::make_shared<int>(0);
  pool.add([&hub, attempts]() {
    const int attempt = (*attempts)++;
    RoundDriverConfig config;
    config.round_duration = 5ms;
    config.max_rounds = 3;
    config.epoch = std::chrono::steady_clock::now() + (attempt == 0 ? 10min : 10ms);
    return std::make_unique<RoundDriver>(std::make_unique<NullProcess>(1), hub.make_endpoint(),
                                         config);
  });
  pool.run();

  ASSERT_EQ(pool.restarts(), 1u);
  const auto records = recorder->snapshot();
  ASSERT_EQ(count_kind(records, TraceEventKind::kWatchdogRestart), 1u);
  for (const TraceRecord& rec : records) {
    if (rec.kind != TraceEventKind::kWatchdogRestart) continue;
    EXPECT_EQ(rec.node, 1u);
    EXPECT_EQ(rec.extra, 1) << "first restart of the slot";
  }
}

// ---------------------------------------------------- harness + metrics --

TEST(TraceScript, RunScriptWiresRecorderAndFillsMetricsExposition) {
  const char* text =
      "protocol consensus\n"
      "nodes 5\n"
      "inputs 0,1\n"
      "seed 7\n"
      "max-rounds 80\n"
      "chaos 2-3 drop=0.15 dup=0.1\n";
  auto parsed = parse_script(text);
  ASSERT_TRUE(std::holds_alternative<ScenarioScript>(parsed));

  ScriptOptions options;
  options.recorder = std::make_shared<TraceRecorder>(TraceEngine::kSync);
  const ScriptRun run = run_script(std::get<ScenarioScript>(parsed), options);

  EXPECT_GT(options.recorder->size(), 0u);
  EXPECT_FALSE(options.recorder->canonical().empty())
      << "chaos runs must capture link verdicts";
  EXPECT_NE(run.metrics_exposition.find("idonly_rounds_executed"), std::string::npos);
  EXPECT_NE(run.metrics_exposition.find("idonly_chaos_faults_total"), std::string::npos);
  EXPECT_NE(run.metrics_exposition.find("idonly_recovery_actions_total{action=\"backoff\"}"),
            std::string::npos);
}

TEST(PrometheusExposition, EmitsAllCounterFamiliesAndOmitsZeroKinds) {
  Metrics metrics;
  metrics.rounds_executed = 7;
  metrics.messages.sent[1] = 3;
  metrics.messages.delivered[1] = 9;
  metrics.fanout.deliveries = 9;
  metrics.fanout.dedup_hits = 2;
  metrics.done_round[4] = 5;

  const std::string text = prometheus_exposition(metrics);
  EXPECT_NE(text.find("# TYPE idonly_rounds_executed counter"), std::string::npos);
  EXPECT_NE(text.find("idonly_rounds_executed 7"), std::string::npos);
  EXPECT_NE(text.find("idonly_messages_sent_total{kind=\"1\"} 3"), std::string::npos);
  EXPECT_NE(text.find("idonly_messages_delivered_total{kind=\"1\"} 9"), std::string::npos);
  EXPECT_EQ(text.find("kind=\"2\""), std::string::npos) << "zero samples omitted";
  EXPECT_NE(text.find("idonly_fanout_dedup_hits_total 2"), std::string::npos);
  EXPECT_NE(text.find("idonly_done_nodes 1"), std::string::npos);
  EXPECT_EQ(text.find("idonly_chaos_faults_total"), std::string::npos)
      << "no chaos block without chaos counters";

  ChaosCounters chaos;
  chaos.per_phase.emplace_back();
  chaos.per_phase[0].drops = 2;
  chaos.backoffs = 1;
  const std::string with_chaos = prometheus_exposition(metrics, &chaos);
  EXPECT_NE(with_chaos.find("idonly_chaos_faults_total{phase=\"0\",fault=\"drop\"} 2"),
            std::string::npos);
  EXPECT_NE(with_chaos.find("idonly_recovery_actions_total{action=\"backoff\"} 1"),
            std::string::npos);
  EXPECT_NE(with_chaos.find("idonly_recovery_actions_total{action=\"restart\"} 0"),
            std::string::npos)
      << "recovery actions are always emitted, even at zero";
}

}  // namespace
}  // namespace idonly
