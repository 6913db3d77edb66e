// Distributed shard engine (src/dist/): partitioning, control-plane wire
// round-trips, worker/engine parity against the single-process simulator
// (byte-identical canonical traces), the forked end-to-end coordinator, and
// crashed-worker detection.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "dist/shard_coordinator.hpp"
#include "dist/shard_plan.hpp"
#include "dist/shard_trace.hpp"
#include "dist/shard_wire.hpp"
#include "dist/shard_worker.hpp"
#include "fuzz/generator.hpp"
#include "harness/script.hpp"

namespace idonly {
namespace {

// Chaos + churn consensus: partitions, loss, one joiner, one leaver — every
// engine path (removal, join, delayed delivery, per-receiver verdicts) in one
// run. The parity tests compare runs, not expectations, so the script's
// verdict does not need to be green for them to be meaningful.
const char* const kConsensusScript =
    "protocol consensus\n"
    "nodes 9\n"
    "inputs 0,1\n"
    "byzantine 2 noise\n"
    "seed 7\n"
    "max-rounds 300\n"
    "liveness 250\n"
    "chaos 4-6 partition=0-1\n"
    "chaos 7-9 drop=0.10 delay=0.05:2\n"
    "churn 5 join=1\n"
    "churn 8 leave=2\n"
    "expect termination\n"
    "expect agreement\n"
    "expect validity\n"
    "expect no-violations\n";

// Plain consensus — no chaos, churn or liveness line. Its canonical trace is
// empty (no link verdicts), which is why the parity test also compares the
// raw export.
const char* const kPlainConsensusScript =
    "protocol consensus\n"
    "nodes 10\n"
    "inputs 0,1,1,0\n"
    "byzantine 3 twofaced\n"
    "seed 2020\n"
    "max-rounds 300\n"
    "expect termination\n"
    "expect agreement\n"
    "expect validity\n";

const char* const kTotalOrderScript =
    "protocol totalorder\n"
    "nodes 7\n"
    "seed 11\n"
    "max-rounds 60\n"
    "chaos 5-14 delay=0.05:2 dup=0.10\n"
    "expect termination\n"
    "expect agreement\n"
    "expect no-violations\n";

ScenarioScript parse_or_die(const std::string& text) {
  auto parsed = parse_script(text);
  const auto* err = std::get_if<ParseError>(&parsed);
  EXPECT_EQ(err, nullptr) << (err != nullptr ? err->message : "");
  return std::get<ScenarioScript>(std::move(parsed));
}

struct SingleRun {
  ScriptRun run;
  std::shared_ptr<TraceRecorder> recorder;
};

SingleRun run_single_process(const std::string& text, unsigned threads = 1) {
  SingleRun out;
  const ScenarioScript script = parse_or_die(text);
  ScriptOptions options;
  options.threads = threads;
  options.recorder = std::make_shared<TraceRecorder>(TraceEngine::kSync);
  out.recorder = options.recorder;
  out.run = run_script(script, options);
  return out;
}

// ------------------------------------------------------------ shard plan --

TEST(ShardPlan, SlicesAreContiguousCoverEverythingAndMatchOwner) {
  const std::vector<NodeId> ids{503, 17, 90, 41, 2, 888, 123, 55, 7};
  for (const std::uint32_t shards : {1u, 2u, 3u, 4u, 16u}) {
    const ShardPlan plan = ShardPlan::build(ids, shards);
    EXPECT_EQ(plan.shards(), shards);
    std::vector<NodeId> covered;
    for (std::uint32_t k = 0; k < shards; ++k) {
      const auto slice = plan.initial_slice(k);
      for (const NodeId id : slice) {
        covered.push_back(id);
        EXPECT_EQ(plan.owner(id), k) << "id " << id << " shards " << shards;
      }
      EXPECT_TRUE(std::is_sorted(slice.begin(), slice.end()));
    }
    std::vector<NodeId> sorted = ids;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(covered, sorted) << "shards " << shards;  // contiguous & complete
  }
}

TEST(ShardPlan, UnknownIdsSpreadByModuloAndStayInRange) {
  const std::vector<NodeId> ids{10, 20, 30, 40, 50};
  const ShardPlan plan = ShardPlan::build(ids, 3);
  for (NodeId joiner = 1000; joiner < 1100; ++joiner) {
    EXPECT_EQ(plan.owner(joiner), joiner % 3);
  }
}

TEST(ShardPlan, MoreShardsThanIdsLeavesTailSlicesEmpty) {
  const std::vector<NodeId> ids{5, 6};
  const ShardPlan plan = ShardPlan::build(ids, 4);
  std::size_t total = 0;
  for (std::uint32_t k = 0; k < 4; ++k) total += plan.initial_slice(k).size();
  EXPECT_EQ(total, ids.size());
  EXPECT_LT(plan.owner(5), 4u);
  EXPECT_LT(plan.owner(6), 4u);
}

// ------------------------------------------------------------ wire layer --

TEST(ShardWire, ScalarWriterReaderRoundTripsAndConsumesExactly) {
  ByteWriter w;
  w.u8(0xAB);
  w.u32(0xDEADBEEF);
  w.u64(0x0123456789ABCDEFULL);
  w.i64(-42);
  w.f64(-3.25);
  w.str("hello shard");
  const std::vector<std::byte> payload{std::byte{1}, std::byte{2}, std::byte{3}};
  w.blob(payload);

  ByteReader r(w.bytes());
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFULL);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_EQ(r.f64(), -3.25);
  EXPECT_EQ(r.str(), "hello shard");
  EXPECT_EQ(r.blob(), payload);
  EXPECT_FALSE(r.failed());
  EXPECT_TRUE(r.done());
}

TEST(ShardWire, ShortReadLatchesFailureAndNeverOverruns) {
  ByteWriter w;
  w.u64(7);
  w.str("abcdef");
  const auto& bytes = w.bytes();
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    ByteReader r(std::span(bytes.data(), len));
    (void)r.u64();
    (void)r.str();
    EXPECT_FALSE(r.done()) << "prefix " << len;
    // Once failed, every further read is a safe zero/empty.
    if (r.failed()) {
      EXPECT_EQ(r.u64(), 0u);
      EXPECT_EQ(r.str(), "");
    }
  }
}

TEST(ShardWire, InitStatusRoundTripAndRejectTruncation) {
  ShardInit init;
  init.shard = 3;
  init.shards = 8;
  init.want_trace = true;
  init.mesh = false;  // non-default, so the round-trip proves the bit moves
  init.crash_at_round = 17;
  init.script_text = kConsensusScript;
  const auto init_bytes = encode_init(init);
  const auto init2 = decode_init(init_bytes);
  ASSERT_TRUE(init2.has_value());
  EXPECT_EQ(init2->shard, init.shard);
  EXPECT_EQ(init2->shards, init.shards);
  EXPECT_EQ(init2->want_trace, init.want_trace);
  EXPECT_EQ(init2->mesh, init.mesh);
  EXPECT_EQ(init2->crash_at_round, init.crash_at_round);
  EXPECT_EQ(init2->script_text, init.script_text);
  EXPECT_FALSE(decode_init(std::span(init_bytes.data(), init_bytes.size() - 1)).has_value());

  ShardStatus status;
  status.done = {{4, true}, {9, false}, {12, true}};
  const auto status_bytes = encode_status(status);
  const auto status2 = decode_status(status_bytes);
  ASSERT_TRUE(status2.has_value());
  EXPECT_EQ(status2->done, status.done);
  EXPECT_FALSE(
      decode_status(std::span(status_bytes.data(), status_bytes.size() - 1)).has_value());
}

TEST(ShardWire, ResultRoundTripCarriesEveryMergedField) {
  ShardResult result;
  result.rounds = 42;
  result.metrics.messages.sent[2] = 7;
  result.metrics.messages.delivered[2] = 6;
  result.metrics.fanout.deliveries = 100;
  result.metrics.fanout.dedup_hits = 3;
  result.metrics.rounds_executed = 42;
  result.metrics.done_round[9] = 17;
  result.metrics.fanout.coordinator_relay_bytes = 4096;
  result.metrics.overlap.rounds_overlapped = 40;
  result.metrics.overlap.recv_stall_ns = 123456789;
  result.metrics.overlap.slabs_direct = 84;
  result.has_chaos = true;
  result.chaos.per_phase.resize(2);
  result.chaos.per_phase[0].drops = 5;
  result.chaos.per_phase[1].delays = 2;
  result.chaos.restarts = 1;
  result.wire_faults.truncations = 4;
  result.decisions.push_back({9, true, true, Value::real(1.0)});
  result.decisions.push_back({11, false, false, Value::bot()});
  result.chains.push_back({13, {ChainEntry{1, 2, 30.0}, ChainEntry{2, 5, 31.0}}});
  ShardResult::Ring ring;
  ring.node = 9;
  ring.next_seq = 6;
  ring.evicted = 1;
  TraceRecord rec;
  rec.kind = TraceEventKind::kSend;
  rec.node = 9;
  rec.round = 3;
  rec.seq = 5;
  rec.to = 11;
  rec.extra = 1;
  rec.detail = "d";
  ring.records.push_back(rec);
  result.rings.push_back(ring);

  const auto bytes = encode_result(result);
  const auto back = decode_result(bytes);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->rounds, result.rounds);
  EXPECT_EQ(back->metrics.messages.sent, result.metrics.messages.sent);
  EXPECT_EQ(back->metrics.messages.delivered, result.metrics.messages.delivered);
  EXPECT_EQ(back->metrics.fanout.deliveries, result.metrics.fanout.deliveries);
  EXPECT_EQ(back->metrics.fanout.dedup_hits, result.metrics.fanout.dedup_hits);
  EXPECT_EQ(back->metrics.fanout.coordinator_relay_bytes, 4096u);
  EXPECT_EQ(back->metrics.overlap.rounds_overlapped, 40u);
  EXPECT_EQ(back->metrics.overlap.recv_stall_ns, 123456789u);
  EXPECT_EQ(back->metrics.overlap.slabs_direct, 84u);
  EXPECT_EQ(back->metrics.done_round, result.metrics.done_round);
  EXPECT_TRUE(back->has_chaos);
  ASSERT_EQ(back->chaos.per_phase.size(), 2u);
  EXPECT_EQ(back->chaos.per_phase[0].drops, 5u);
  EXPECT_EQ(back->chaos.per_phase[1].delays, 2u);
  EXPECT_EQ(back->chaos.restarts, 1u);
  EXPECT_EQ(back->wire_faults.truncations, 4u);
  ASSERT_EQ(back->decisions.size(), 2u);
  EXPECT_EQ(back->decisions[0].id, 9u);
  EXPECT_TRUE(back->decisions[0].has_output);
  EXPECT_EQ(back->decisions[0].output, Value::real(1.0));
  EXPECT_FALSE(back->decisions[1].has_output);
  ASSERT_EQ(back->chains.size(), 1u);
  EXPECT_EQ(back->chains[0].chain, result.chains[0].chain);
  ASSERT_EQ(back->rings.size(), 1u);
  EXPECT_EQ(back->rings[0].records, ring.records);
  EXPECT_FALSE(decode_result(std::span(bytes.data(), bytes.size() - 1)).has_value());
}

// -------------------------------------------- in-process worker parity --

/// Drives `shards` ShardWorkers through the coordinator's round protocol
/// without forking — every slab crosses the real wire format, but failures
/// surface as gtest assertions instead of child exit codes.
struct InProcessFleet {
  std::vector<std::unique_ptr<ShardWorker>> workers;
  Round round = 0;

  explicit InProcessFleet(const std::string& text, std::uint32_t shards, bool want_trace) {
    for (std::uint32_t s = 0; s < shards; ++s) {
      ShardInit init;
      init.shard = s;
      init.shards = shards;
      init.want_trace = want_trace;
      init.script_text = text;
      workers.push_back(std::make_unique<ShardWorker>(init));
    }
  }

  void run_round() {
    const std::uint32_t shards = static_cast<std::uint32_t>(workers.size());
    // Copy the slabs out: a worker's slab spans die on its next begin_round.
    std::vector<std::vector<std::vector<std::byte>>> inbox(shards);
    for (auto& worker : workers) {
      for (const ShardWorker::OutboundSlab& slab : worker->begin_round()) {
        ASSERT_LT(slab.dest, shards);
        inbox[slab.dest].emplace_back(slab.bytes.begin(), slab.bytes.end());
      }
    }
    for (auto& worker : workers) {
      ASSERT_TRUE(worker->finish_round(inbox[worker->shard()])) << worker->error();
    }
    round += 1;
  }

  [[nodiscard]] std::map<NodeId, bool> statuses() {
    std::map<NodeId, bool> out;
    for (auto& worker : workers) {
      for (const auto& [id, done] : worker->status().done) out[id] = done;
    }
    return out;
  }
};

/// What an in-process fleet run shows: its spliced trace exports, and the
/// deliveries and violations judged from the workers' end states the way
/// run_dist's coordinator judges them.
struct FleetRun {
  Round rounds = 0;
  std::string raw;
  std::string canonical;
  std::uint64_t deliveries = 0;
  std::vector<std::string> violations;
};

/// Runs the harness's round loop (shared stop rule) over an in-process
/// fleet.
FleetRun run_fleet(const std::string& text, std::uint32_t shards) {
  const ScenarioScript script = parse_or_die(text);
  const Scenario scenario = make_scenario(script.config);
  ChurnDriver churn(script, scenario);
  InProcessFleet fleet(text, shards, /*want_trace=*/true);

  std::map<NodeId, bool> statuses;
  const auto done = [&](NodeId id) {
    const auto it = statuses.find(id);
    return it != statuses.end() && it->second;
  };
  for (Round i = 0; i < script.max_rounds && !loop_finished(script, churn.tracked(), done); ++i) {
    churn.apply(
        fleet.round + 1, [](NodeId, std::size_t) { return std::unique_ptr<Process>{}; },
        [](std::unique_ptr<Process>) {}, [](NodeId) {});
    fleet.run_round();
    statuses = fleet.statuses();
  }

  FleetRun out;
  out.rounds = fleet.round;
  TraceRecorder merged(TraceEngine::kSync);
  std::map<NodeId, NodeOutcome> nodes;
  for (auto& worker : fleet.workers) {
    ShardResult result = worker->finalize();
    out.deliveries += result.metrics.messages.total_delivered();
    for (const ShardResult::Decision& d : result.decisions) {
      nodes[d.id] = {d.done, d.has_output ? std::optional(d.output) : std::nullopt, {}};
    }
    for (ShardResult::Chain& c : result.chains) nodes[c.id].chain = std::move(c.chain);
    for (ShardResult::Ring& ring : result.rings) {
      merged.absorb_ring(ring.node, std::move(ring.records), ring.next_seq, ring.evicted);
    }
  }
  out.raw = merged.jsonl();
  out.canonical = merged.canonical_jsonl();

  const std::unique_ptr<InvariantMonitor> monitor = make_loop_monitor(script, scenario);
  if (monitor != nullptr) {
    for (NodeId id : scenario.correct_ids) {
      const auto it = nodes.find(id);
      if (it == nodes.end() || !it->second.output.has_value()) continue;
      ProtocolEvent event;
      event.type = ProtocolEvent::Type::kDecided;
      event.node = id;
      event.round = fleet.round;
      event.value = *it->second.output;
      monitor->on_event(event);
    }
    monitor->finish(fleet.round);
  }
  ScriptRun verdict;
  judge_loop_run(script, scenario, churn.tracked(), nodes, monitor.get(), verdict);
  out.violations = std::move(verdict.violations);
  return out;
}

TEST(ShardWorkerParity, ConsensusCanonicalTraceMatchesSingleProcess) {
  const SingleRun single = run_single_process(kConsensusScript);
  const FleetRun fleet = run_fleet(kConsensusScript, 2);
  EXPECT_EQ(fleet.rounds, single.run.rounds);
  const std::string reference = single.recorder->canonical_jsonl();
  ASSERT_FALSE(reference.empty());
  EXPECT_EQ(fleet.canonical, reference);
}

TEST(ShardWorkerParity, TotalOrderCanonicalTraceMatchesSingleProcessAtThreeShards) {
  const SingleRun single = run_single_process(kTotalOrderScript);
  const FleetRun fleet = run_fleet(kTotalOrderScript, 3);
  const std::string reference = single.recorder->canonical_jsonl();
  ASSERT_FALSE(reference.empty());
  EXPECT_EQ(fleet.canonical, reference);
}

std::vector<std::string> sorted(std::vector<std::string> lines) {
  std::sort(lines.begin(), lines.end());
  return lines;
}

TEST(ShardWorkerParity, GeneratedScenariosMatchThePerReceiverReference) {
  // SyncSimulator delivers every broadcast from its shared lane and turns a
  // link fault into a per-receiver mask; ShardEngine still routes every link
  // per receiver, so it is an independent reference for the masks. Over
  // generated scenarios the two must agree on every delivery record.
  const ScenarioGenerator generator;
  std::set<std::string> covered;
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    const GeneratedScenario generated = generator.generate(seed);
    const ScenarioScript& script = generated.script;
    for (const ChaosPhaseSpec& phase : script.chaos_phases) {
      if (phase.drop > 0) covered.insert("drop");
      if (phase.duplicate > 0) covered.insert("dup");
      if (phase.delay_probability > 0) covered.insert("delay");
      if (phase.partition.has_value()) covered.insert("partition");
      if (!phase.crashes.empty()) covered.insert("crash");
    }
    if (!script.churn_events.empty()) covered.insert("churn");
    for (std::size_t b = 0; b < script.config.n_byzantine; ++b) {
      if (adversary_kind_for(script.config, b) == AdversaryKind::kTwoFaced) {
        covered.insert("twofaced");
      }
    }

    const std::string tag = "generated seed " + std::to_string(seed);
    const SingleRun single = run_single_process(generated.text);
    const std::string raw = single.recorder->jsonl();
    EXPECT_EQ(run_single_process(generated.text, 4).recorder->jsonl(), raw) << tag;
    const FleetRun fleet = run_fleet(generated.text, 2);
    EXPECT_EQ(fleet.raw, raw) << tag;
    EXPECT_EQ(fleet.rounds, single.run.rounds) << tag;
    EXPECT_EQ(fleet.deliveries, single.run.messages) << tag;
    // The coordinator's replayed monitor may list violations in another
    // order than the online one.
    EXPECT_EQ(sorted(fleet.violations), sorted(single.run.violations)) << tag;

    // Without a recorder, rounds no chaos phase covers skip the link walk.
    ScriptOptions unrecorded;
    unrecorded.threads = 4;
    const ScriptRun quiet = run_script(script, unrecorded);
    EXPECT_EQ(quiet.summary, single.run.summary) << tag;
    EXPECT_EQ(quiet.messages, single.run.messages) << tag;
    EXPECT_EQ(quiet.violations, single.run.violations) << tag;
  }
  for (const char* feature : {"drop", "dup", "delay", "partition", "crash", "churn", "twofaced"}) {
    EXPECT_TRUE(covered.contains(feature)) << "no generated scenario has " << feature;
  }
}

// ------------------------------------- sharded trace epilogue parity --

TEST(ShardedTraceParity, ExportsMatchRecorderAbsorbRingByteForByte) {
  // Same rings through both epilogues: PR-8's serial absorb_ring recorder
  // and the sharded k-way-merge exporter must render identical bytes.
  const ScenarioScript script = parse_or_die(kConsensusScript);
  const Scenario scenario = make_scenario(script.config);
  ChurnDriver churn(script, scenario);
  InProcessFleet fleet(kConsensusScript, 3, /*want_trace=*/true);
  for (Round i = 0; i < 12; ++i) {
    churn.apply(
        fleet.round + 1, [](NodeId, std::size_t) { return std::unique_ptr<Process>{}; },
        [](std::unique_ptr<Process>) {}, [](NodeId) {});
    fleet.run_round();
  }
  TraceRecorder recorder(TraceEngine::kSync);
  ShardedTrace sharded(TraceEngine::kSync);
  for (auto& worker : fleet.workers) {
    ShardResult result = worker->finalize();
    for (ShardResult::Ring& ring : result.rings) {
      recorder.absorb_ring(ring.node, ring.records, ring.next_seq, ring.evicted);
    }
    sharded.absorb_shard(std::move(result.rings));
  }
  EXPECT_EQ(sharded.size(), recorder.size());
  EXPECT_EQ(sharded.evicted(), recorder.evicted());
  EXPECT_EQ(sharded.jsonl(), recorder.jsonl());
  EXPECT_EQ(sharded.canonical_jsonl(), recorder.canonical_jsonl());
}

TEST(ShardedTraceParity, DuplicateNodeAcrossShardsThrows) {
  ShardedTrace sharded(TraceEngine::kSync);
  std::vector<ShardResult::Ring> a(1);
  a[0].node = 7;
  sharded.absorb_shard(std::move(a));
  std::vector<ShardResult::Ring> b(1);
  b[0].node = 7;
  EXPECT_THROW(sharded.absorb_shard(std::move(b)), std::invalid_argument);
}

// ------------------------------------------------- forked end-to-end runs --

/// The merged verdict must be run_script's, outcome by outcome.
void expect_same_verdict(const ScriptRun& dist, const ScriptRun& single, const std::string& tag) {
  EXPECT_EQ(dist.summary, single.summary) << tag;
  EXPECT_EQ(dist.all_satisfied, single.all_satisfied) << tag;
  EXPECT_EQ(dist.rounds, single.rounds) << tag;
  EXPECT_EQ(dist.messages, single.messages) << tag;
  EXPECT_EQ(dist.chaos_summary, single.chaos_summary) << tag;
  EXPECT_EQ(dist.violations, single.violations) << tag;
  ASSERT_EQ(dist.outcomes.size(), single.outcomes.size()) << tag;
  for (std::size_t i = 0; i < single.outcomes.size(); ++i) {
    const std::string what = tag + " " + to_string(single.outcomes[i].expectation);
    EXPECT_EQ(dist.outcomes[i].expectation, single.outcomes[i].expectation) << what;
    EXPECT_EQ(dist.outcomes[i].satisfied, single.outcomes[i].satisfied) << what;
    EXPECT_EQ(dist.outcomes[i].detail, single.outcomes[i].detail) << what;
  }
}

TEST(RunDist, ConsensusMatchesSingleProcessAcrossShardCountsAndTopologies) {
  for (const char* const text : {kConsensusScript, kPlainConsensusScript}) {
    const bool plain = text == kPlainConsensusScript;
    const SingleRun single = run_single_process(text);
    const std::string canonical = single.recorder->canonical_jsonl();
    const std::string raw = single.recorder->jsonl();
    // A plain script runs the same loop as a chaos one: it records, honours
    // `threads` and exports metrics.
    ASSERT_GT(single.recorder->size(), 0u);
    EXPECT_FALSE(single.run.metrics_exposition.empty());
    EXPECT_EQ(run_single_process(text, 4).recorder->jsonl(), raw);
    for (const bool mesh : {true, false}) {
      for (const std::uint32_t shards : {1u, 2u, 4u}) {
        DistConfig config;
        config.script_text = text;
        config.shards = shards;
        config.mesh = mesh;
        config.want_trace = true;
        const DistRun dist = run_dist(config);
        const std::string tag = std::string(plain ? "plain " : "chaos ") +
                                (mesh ? "mesh" : "relay") + " shards " + std::to_string(shards);
        ASSERT_TRUE(dist.infra_ok) << tag << ": " << dist.infra_error;
        expect_same_verdict(dist.script, single.run, tag);
        EXPECT_FALSE(dist.script.metrics_exposition.empty()) << tag;
        ASSERT_NE(dist.trace, nullptr) << tag;
        EXPECT_EQ(dist.trace->canonical_jsonl(), canonical) << tag;
        EXPECT_EQ(dist.trace->jsonl(), raw) << tag;
        // Topology shows only in the overlap/relay ledgers, never the
        // result: the mesh moves slabs peer-to-peer, the relay moves them
        // through the coordinator, and exactly one of the two ledgers is
        // active.
        if (shards > 1 && mesh) {
          EXPECT_GT(dist.metrics.overlap.slabs_direct, 0u) << tag;
          EXPECT_EQ(dist.metrics.fanout.coordinator_relay_bytes, 0u) << tag;
        }
        if (shards > 1 && !mesh) {
          EXPECT_EQ(dist.metrics.overlap.slabs_direct, 0u) << tag;
          EXPECT_GT(dist.metrics.fanout.coordinator_relay_bytes, 0u) << tag;
        }
      }
    }
  }
}

TEST(RunDist, TotalOrderMatchesSingleProcessAcrossShardCountsAndTopologies) {
  const SingleRun single = run_single_process(kTotalOrderScript);
  const std::string reference = single.recorder->canonical_jsonl();
  for (const bool mesh : {true, false}) {
    for (const std::uint32_t shards : {1u, 2u, 4u}) {
      DistConfig config;
      config.script_text = kTotalOrderScript;
      config.shards = shards;
      config.mesh = mesh;
      config.want_trace = true;
      const DistRun dist = run_dist(config);
      const std::string tag =
          std::string(mesh ? "mesh" : "relay") + " shards " + std::to_string(shards);
      ASSERT_TRUE(dist.infra_ok) << tag << ": " << dist.infra_error;
      expect_same_verdict(dist.script, single.run, tag);
      ASSERT_NE(dist.trace, nullptr) << tag;
      EXPECT_EQ(dist.trace->canonical_jsonl(), reference) << tag;
    }
  }
}

TEST(RunDist, CrashedWorkerIsDetectedNotHungAndNamed) {
  // Relay topology: the coordinator reads the dead worker's control EOF.
  DistConfig config;
  config.script_text = kConsensusScript;
  config.shards = 2;
  config.mesh = false;
  config.crash_at_round = 3;
  config.crash_shard = 1;
  config.wedge_timeout_ms = 30000;  // EOF detection must not need the budget
  const DistRun dist = run_dist(config);
  EXPECT_FALSE(dist.infra_ok);
  EXPECT_NE(dist.infra_error.find("shard worker 1"), std::string::npos) << dist.infra_error;
  EXPECT_NE(dist.infra_error.find("died"), std::string::npos) << dist.infra_error;
  EXPECT_FALSE(dist.script.all_satisfied);
}

TEST(RunDist, PeerSocketEofMidRoundFailsTheMeshRunNotHangsIt) {
  // Mesh topology: the dying worker's PEERS see the mesh-socket EOF while
  // waiting for its round frame. Whichever signal the coordinator reads
  // first — the victim's control EOF or a survivor's kError naming the dead
  // peer — the run must fail promptly and name a shard.
  DistConfig config;
  config.script_text = kConsensusScript;
  config.shards = 4;
  config.mesh = true;
  config.crash_at_round = 3;
  config.crash_shard = 2;
  config.wedge_timeout_ms = 30000;  // failure must come from EOF, not timeout
  const DistRun dist = run_dist(config);
  EXPECT_FALSE(dist.infra_ok);
  EXPECT_NE(dist.infra_error.find("shard"), std::string::npos) << dist.infra_error;
  EXPECT_EQ(dist.infra_error.find("wedged"), std::string::npos) << dist.infra_error;
  EXPECT_FALSE(dist.script.all_satisfied);
}

TEST(RunDist, ParseFailureIsAnInfraErrorWithTheLineNumber) {
  DistConfig config;
  config.script_text = "protocol consensus\nnodes banana\n";
  const DistRun dist = run_dist(config);
  EXPECT_FALSE(dist.infra_ok);
  EXPECT_NE(dist.infra_error.find("line 2"), std::string::npos) << dist.infra_error;
}

}  // namespace
}  // namespace idonly
