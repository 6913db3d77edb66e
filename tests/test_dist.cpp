// Distributed shard engine (src/dist/): partitioning, control-plane wire
// round-trips, worker/engine parity against the single-process simulator
// (byte-identical canonical traces), the forked end-to-end coordinator, and
// crashed-worker detection.
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "dist/shard_coordinator.hpp"
#include "dist/shard_mesh.hpp"
#include "dist/shard_plan.hpp"
#include "dist/shard_trace.hpp"
#include "dist/shard_wire.hpp"
#include "dist/shard_worker.hpp"
#include "fuzz/generator.hpp"
#include "harness/script.hpp"
#include "net/codec.hpp"

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
  init.crash_at_round = 17;
  init.script_text = kConsensusScript;
  const auto init_bytes = encode_init(init);
  const auto init2 = decode_init(init_bytes);
  ASSERT_TRUE(init2.has_value());
  EXPECT_EQ(init2->shard, init.shard);
  EXPECT_EQ(init2->shards, init.shards);
  EXPECT_EQ(init2->want_trace, init.want_trace);
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
  result.metrics.overlap.rounds_overlapped = 40;
  result.metrics.overlap.recv_stall_ns = 123456789;
  result.metrics.overlap.slabs_direct = 84;
  result.has_chaos = true;
  result.chaos.per_phase.resize(2);
  result.chaos.per_phase[0].drops = 5;
  result.chaos.per_phase[1].delays = 2;
  result.chaos.restarts = 1;
  result.wire_faults.truncations = 4;
  // One node of each kind: consensus decisions (a real and ⊥), a node
  // without one, an rb acceptance, an approx trajectory, a rotor history, a
  // renaming id set and a totalorder chain.
  NodeOutcome decided;
  decided.done = true;
  decided.output = Value::real(1.0);
  NodeOutcome bot;
  bot.output = Value::bot();
  NodeOutcome accepted;
  accepted.done = true;
  accepted.output = Value::real(42.0);
  accepted.accept_round = 3;
  NodeOutcome approx;
  approx.estimate = 12.5;
  approx.trajectory = {40.0, 20.0, 12.5};
  NodeOutcome rotor;
  rotor.done = true;
  rotor.history.push_back({0, 17, std::nullopt, std::nullopt});
  rotor.history.push_back({1, std::nullopt, Value::real(7.0), 17});
  NodeOutcome renaming;
  renaming.id_set = {9, 11, 13};
  NodeOutcome chain;
  chain.chain = {ChainEntry{1, 2, 30.0}, ChainEntry{2, 5, 31.0}};
  result.nodes = {{9, decided},  {10, bot},      {11, NodeOutcome{}}, {12, accepted},
                  {13, approx},  {14, rotor},    {15, renaming},      {16, chain}};
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
  // NodeOutcome has no operator==: equal bytes after a second encode show
  // that every field of every node survived.
  ASSERT_EQ(back->nodes.size(), result.nodes.size());
  EXPECT_EQ(encode_result(*back), bytes);
  ASSERT_EQ(back->rings.size(), 1u);
  EXPECT_EQ(back->rings[0].records, ring.records);
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_FALSE(decode_result(std::span(bytes.data(), len)).has_value()) << "prefix " << len;
  }
}

// ------------------------------------------------ mesh data-plane rejects --

/// One MeshExchange (shard 0 of 2) on a socketpair, with the test playing
/// peer shard 1 by hand: it writes raw `u32 LE length + payload` mesh frames
/// to the other end. The handshake runs in the constructor.
class MeshPeerHarness {
 public:
  MeshPeerHarness() {
    int fds[2] = {-1, -1};
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    peer_fd_ = fds[1];
    mesh_ = std::make_unique<MeshExchange>(0, 2, std::vector<int>{-1, fds[0]});
    write_frame(encode_peer_hello(1, 2));
    std::string error;
    EXPECT_TRUE(mesh_->handshake(error)) << error;
  }
  ~MeshPeerHarness() { hang_up(); }
  MeshPeerHarness(const MeshPeerHarness&) = delete;
  MeshPeerHarness& operator=(const MeshPeerHarness&) = delete;

  void write_frame(std::span<const std::byte> payload) const {
    std::vector<std::byte> frame;
    const auto len = static_cast<std::uint32_t>(payload.size());
    for (int i = 0; i < 4; ++i) frame.push_back(static_cast<std::byte>((len >> (8 * i)) & 0xFF));
    frame.insert(frame.end(), payload.begin(), payload.end());
    EXPECT_EQ(::send(peer_fd_, frame.data(), frame.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(frame.size()));
  }

  /// Close the peer end: a frame the mesh wrongly accepts then ends in a
  /// "closed its socket" error instead of a hang.
  void hang_up() {
    if (peer_fd_ >= 0) ::close(peer_fd_);
    peer_fd_ = -1;
  }

  [[nodiscard]] bool post(Round round, std::string& error) {
    return mesh_->post_round(round, {}, error);
  }
  [[nodiscard]] bool collect(Round round, std::string& error) {
    return mesh_->collect_round(
        round, [](std::uint32_t, std::span<const std::byte>) { return true; }, error);
  }

 private:
  int peer_fd_ = -1;
  std::unique_ptr<MeshExchange> mesh_;
};

std::vector<std::byte> mesh_slab(std::uint32_t shard, Round round) {
  ShardSlabWriter writer;
  writer.reset(shard, round);
  writer.add(std::nullopt, Message{.sender = 7, .kind = MsgKind::kPresent});
  const auto bytes = writer.bytes();
  return {bytes.begin(), bytes.end()};
}

struct MeshRejectCase {
  const char* name;
  std::vector<std::vector<std::byte>> frames;  ///< written by peer shard 1, in order
  const char* reason;                          ///< expected in the error
};

std::vector<MeshRejectCase> mesh_reject_cases() {
  Frame round_zero_beacon{std::byte{kPeerBeaconMagic}, std::byte{1}, std::byte{0}};
  return {
      {"slab naming another shard", {mesh_slab(0, 1)}, "malformed slab header"},
      {"beacon naming another shard", {encode_peer_beacon(0, 1)}, "malformed beacon"},
      {"slab for round 0", {mesh_slab(1, 0)}, "malformed slab header"},
      {"beacon for round 0", {round_zero_beacon}, "malformed beacon"},
      {"round regression",
       {encode_peer_beacon(1, 1), encode_peer_beacon(1, 1)},
       "broke round order"},
      {"slab then an older beacon",
       {mesh_slab(1, 2), encode_peer_beacon(1, 1)},
       "broke round order"},
      {"round two ahead", {encode_peer_beacon(1, 3)}, "broke round order"},
      {"unknown magic", {encode(Message{.sender = 7, .kind = MsgKind::kPresent})},
       "unknown mesh payload"},
      {"empty payload", {Frame{}}, "empty mesh frame"},
  };
}

TEST(MeshReject, BadPeerFrameFailsPostRoundAndNamesThePeer) {
  // The frames are already buffered when this worker posts its round:
  // post_round drains them between its sends and rejects them.
  for (const MeshRejectCase& c : mesh_reject_cases()) {
    MeshPeerHarness harness;
    for (const auto& frame : c.frames) harness.write_frame(frame);
    harness.hang_up();
    std::string error;
    EXPECT_FALSE(harness.post(1, error)) << c.name;
    EXPECT_NE(error.find("mesh peer shard 1"), std::string::npos) << c.name << ": " << error;
    EXPECT_NE(error.find(c.reason), std::string::npos) << c.name << ": " << error;
  }
}

TEST(MeshReject, BadPeerFrameFailsCollectRoundAndNamesThePeer) {
  // The frames land after this worker has posted its round: collect_round,
  // not post_round, is the call that reads and rejects them.
  for (const MeshRejectCase& c : mesh_reject_cases()) {
    MeshPeerHarness harness;
    std::string error;
    ASSERT_TRUE(harness.post(1, error)) << c.name << ": " << error;
    for (const auto& frame : c.frames) harness.write_frame(frame);
    harness.hang_up();
    EXPECT_FALSE(harness.collect(1, error)) << c.name;
    EXPECT_NE(error.find("mesh peer shard 1"), std::string::npos) << c.name << ": " << error;
    EXPECT_NE(error.find(c.reason), std::string::npos) << c.name << ": " << error;
  }
}

TEST(MeshReject, WellFormedPeerRoundsAreAccepted) {
  // The harness's own control: a slab then a beacon, one per round, pass.
  MeshPeerHarness harness;
  harness.write_frame(mesh_slab(1, 1));
  harness.write_frame(encode_peer_beacon(1, 2));
  std::string error;
  ASSERT_TRUE(harness.post(1, error)) << error;
  ASSERT_TRUE(harness.collect(1, error)) << error;
  ASSERT_TRUE(harness.post(2, error)) << error;
  EXPECT_TRUE(harness.collect(2, error)) << error;
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
    // The mesh loop's second half: decode each peer slab, then merge.
    for (auto& worker : workers) {
      std::vector<std::vector<SyncSimulator::Send>> streams;
      for (const std::vector<std::byte>& bytes : inbox[worker->shard()]) {
        streams.emplace_back();
        ASSERT_TRUE(worker->decode_peer_slab(bytes, streams.back())) << worker->error();
      }
      worker->merge_round(streams);
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
  /// The workers' metrics and chaos counters summed the way run_dist's
  /// coordinator sums them, rendered like ScriptRun::metrics_exposition.
  std::string exposition;
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
  const Round budget = loop_limits(script).budget;
  for (Round i = 0; i < budget && !loop_finished(script, churn.tracked(), done); ++i) {
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
  Metrics metrics;
  std::optional<ChaosCounters> chaos;
  for (auto& worker : fleet.workers) {
    ShardResult result = worker->finalize();
    out.deliveries += result.metrics.messages.total_delivered();
    for (std::size_t k = 0; k < MessageCounters::kKinds; ++k) {
      metrics.messages.sent[k] += result.metrics.messages.sent[k];
      metrics.messages.delivered[k] += result.metrics.messages.delivered[k];
    }
    metrics.fanout += result.metrics.fanout;
    metrics.rounds_executed = std::max(metrics.rounds_executed, result.metrics.rounds_executed);
    metrics.done_round.insert(result.metrics.done_round.begin(), result.metrics.done_round.end());
    if (result.has_chaos) {
      if (!chaos.has_value()) chaos.emplace();
      chaos->per_phase.resize(std::max(chaos->per_phase.size(), result.chaos.per_phase.size()));
      for (std::size_t p = 0; p < result.chaos.per_phase.size(); ++p) {
        chaos->per_phase[p] += result.chaos.per_phase[p];
      }
    }
    for (auto& [id, node] : result.nodes) nodes[id] = std::move(node);
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
  ScriptRun verdict = judge_loop_run(script, scenario, churn.tracked(), nodes, monitor.get(),
                                     fleet.round, metrics, chaos.has_value() ? &*chaos : nullptr);
  out.exposition = std::move(verdict.metrics_exposition);
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

/// FNV-1a, 64 bit: the digest the pinned reference table below records.
std::uint64_t fnv1a64(const std::string& bytes) {
  std::uint64_t hash = 14695981039346656037ull;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ull;
  }
  return hash;
}

/// What the per-receiver reference engine produced for one generated
/// scenario: FNV-1a 64 of the raw jsonl() export, rounds, deliveries.
struct ReferenceRun {
  std::uint64_t seed = 0;
  std::uint64_t raw_digest = 0;
  Round rounds = 0;
  std::uint64_t deliveries = 0;
};

TEST(ShardWorkerParity, GeneratedScenariosMatchThePerReceiverReference) {
  // An independent oracle for the lane-and-mask round. The table was
  // produced by the per-receiver shard engine that dist workers ran before
  // they ran SyncSimulator: that engine deposited every link into its
  // receiver's mailbox, with no shared broadcast lane and no masks. Its
  // in-process fleet (the run_fleet helper below) ran ScenarioGenerator
  // seeds 1-50 at 2 shards. For each seed the table holds the FNV-1a 64
  // digest of the fleet's raw jsonl() export, plus rounds and deliveries.
  // The same runs at 3 shards and run_script at threads 1 gave identical
  // rows. Each row below is that engine's output; none of it comes from the
  // engine under test.
  static constexpr ReferenceRun kReference[] = {
    {1, 0xaebc66a2d0a49751ull, 40, 5745},
    {2, 0x12e34057b710cae0ull, 50, 60863},
    {3, 0x910dc816a6cd2c24ull, 12, 1354},
    {4, 0xb430b41b31ff9ab0ull, 12, 435},
    {5, 0x49e834104f9f0164ull, 12, 14626},
    {6, 0x199e94838e1e5a82ull, 12, 11883},
    {7, 0x810f89480c7fffe1ull, 40, 7580},
    {8, 0x6b400e8cad0631d7ull, 12, 11781},
    {9, 0x54d0e772f53e140aull, 12, 4248},
    {10, 0xece750cbdfec9197ull, 12, 260},
    {11, 0xb8c334f20037a5f7ull, 70, 709204},
    {12, 0x563a9d0f84f109a9ull, 7, 13440},
    {13, 0x2deefd9113296906ull, 7, 2651},
    {14, 0xfe10f85ac470df39ull, 40, 5202},
    {15, 0x440274adcea320e7ull, 60, 213526},
    {16, 0x52eb7a4ad24e0e60ull, 53, 51760},
    {17, 0xff0727fa14598e47ull, 12, 1835},
    {18, 0xbd143b10bd1e8271ull, 48, 45900},
    {19, 0xa1d12eccf6a7de1dull, 7, 293},
    {20, 0x8ae9882f3973c91full, 56, 149308},
    {21, 0x63961ffae6d134e9ull, 12, 248},
    {22, 0x0f219f87793996c5ull, 12, 248},
    {23, 0x390b2cf7632e11feull, 12, 6871},
    {24, 0x2ec35da7fc20f5f3ull, 7, 5840},
    {25, 0x35e02c0c65c94254ull, 7, 2521},
    {26, 0x3b6da4ee9a43f8a9ull, 17, 10320},
    {27, 0x4e5fbf127b8966c3ull, 12, 1024},
    {28, 0x8f73e948c41e5d7full, 12, 2720},
    {29, 0x40d64938656026b6ull, 42, 11238},
    {30, 0x6f04baf8901af648ull, 7, 2410},
    {31, 0x25033b24ba816354ull, 7, 4116},
    {32, 0x720fdba9117938d7ull, 66, 531381},
    {33, 0x9dc33fddbe2495c1ull, 12, 9206},
    {34, 0x0c4e0bf7138fde2eull, 7, 1698},
    {35, 0x4e1c76820f1dda80ull, 12, 16372},
    {36, 0x2ee05355a7e54aeaull, 7, 7665},
    {37, 0x4d54377f51360a16ull, 50, 79008},
    {38, 0xd649cc8581fbdfafull, 12, 1584},
    {39, 0x7a9070b5dedf52b9ull, 12, 1919},
    {40, 0xb1ff9f416cde21baull, 7, 14789},
    {41, 0xb98b2faed87e2db9ull, 12, 3494},
    {42, 0x244cd6a5bd4a087eull, 12, 1765},
    {43, 0xc6b2155963330580ull, 7, 7696},
    {44, 0xd94e93e61fb8b37full, 40, 5709},
    {45, 0x4ce8aae187928a1cull, 7, 5083},
    {46, 0x6356347661cf467aull, 7, 13053},
    {47, 0xce2ed3a0f1f9b6f2ull, 7, 7665},
    {48, 0xb3267da137cdfa3dull, 12, 6505},
    {49, 0xd921a68249f1e165ull, 12, 2994},
    {50, 0x587d29d5f09ed479ull, 12, 7997},
  };
  const ScenarioGenerator generator;
  std::set<std::string> covered;
  for (const ReferenceRun& reference : kReference) {
    const GeneratedScenario generated = generator.generate(reference.seed);
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

    const std::string tag = "generated seed " + std::to_string(reference.seed);
    const SingleRun single = run_single_process(generated.text);
    for (const unsigned threads : {1u, 4u}) {
      const std::string where = tag + " threads " + std::to_string(threads);
      const SingleRun run = threads == 1 ? single : run_single_process(generated.text, threads);
      EXPECT_EQ(fnv1a64(run.recorder->jsonl()), reference.raw_digest) << where;
      EXPECT_EQ(run.run.rounds, reference.rounds) << where;
      EXPECT_EQ(run.run.messages, reference.deliveries) << where;
    }
    for (const std::uint32_t shards : {2u, 3u}) {
      const std::string where = tag + " shards " + std::to_string(shards);
      const FleetRun fleet = run_fleet(generated.text, shards);
      EXPECT_EQ(fnv1a64(fleet.raw), reference.raw_digest) << where;
      EXPECT_EQ(fleet.rounds, reference.rounds) << where;
      EXPECT_EQ(fleet.deliveries, reference.deliveries) << where;
      // Every counter the workers keep sums to the single-process run's:
      // per-kind sent/delivered, fanout deliveries, bytes, unique payloads,
      // dedup hits and slab sends, and the chaos fault counters.
      EXPECT_EQ(fleet.exposition, single.run.metrics_exposition) << where;
      // The coordinator's replayed monitor may list violations in another
      // order than the online one.
      EXPECT_EQ(sorted(fleet.violations), sorted(single.run.violations)) << where;
    }

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

TEST(RunDist, ConsensusMatchesSingleProcessAcrossShardCounts) {
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
    for (const std::uint32_t shards : {1u, 2u, 4u}) {
      DistConfig config;
      config.script_text = text;
      config.shards = shards;
      config.want_trace = true;
      const DistRun dist = run_dist(config);
      const std::string tag =
          std::string(plain ? "plain " : "chaos ") + "shards " + std::to_string(shards);
      ASSERT_TRUE(dist.infra_ok) << tag << ": " << dist.infra_error;
      expect_same_verdict(dist.script, single.run, tag);
      EXPECT_FALSE(dist.script.metrics_exposition.empty()) << tag;
      ASSERT_NE(dist.trace, nullptr) << tag;
      EXPECT_EQ(dist.trace->canonical_jsonl(), canonical) << tag;
      EXPECT_EQ(dist.trace->jsonl(), raw) << tag;
      // The slab ledger shows the data plane, never the result: slabs move
      // peer-to-peer over the mesh, and one shard has no peer to send to.
      if (shards > 1) {
        EXPECT_GT(dist.metrics.overlap.slabs_direct, 0u) << tag;
      } else {
        EXPECT_EQ(dist.metrics.overlap.slabs_direct, 0u) << tag;
      }
    }
  }
}

TEST(RunDist, TotalOrderMatchesSingleProcessAcrossShardCounts) {
  const SingleRun single = run_single_process(kTotalOrderScript);
  const std::string reference = single.recorder->canonical_jsonl();
  for (const std::uint32_t shards : {1u, 2u, 4u}) {
    DistConfig config;
    config.script_text = kTotalOrderScript;
    config.shards = shards;
    config.want_trace = true;
    const DistRun dist = run_dist(config);
    const std::string tag = "shards " + std::to_string(shards);
    ASSERT_TRUE(dist.infra_ok) << tag << ": " << dist.infra_error;
    expect_same_verdict(dist.script, single.run, tag);
    ASSERT_NE(dist.trace, nullptr) << tag;
    EXPECT_EQ(dist.trace->canonical_jsonl(), reference) << tag;
  }
}

TEST(RunDist, EveryScriptProtocolMatchesSingleProcessAcrossShardCounts) {
  // rb (both backends, one with a Byzantine source), approx, rotor and
  // renaming run the same loop as consensus: a non-empty recording, equal
  // at --threads 4, and from every shard count the same verdict and traces
  // plus a metrics exposition.
  const char* const scripts[] = {
      "protocol rb\nnodes 7\ninputs 42\nbyzantine 2 forgedecho\nseed 7\n"
      "expect acceptance\nexpect agreement\n",
      "protocol rb\nnodes 7\ninputs 5\nbyzantine 2 twofaced\nbyz-source\nseed 6\n"
      "max-rounds 20\nexpect agreement\n",
      "protocol rb\nnodes 11\ninputs 42\nbyzantine 2 forgedecho\nseed 7\nrb imbs\n"
      "expect acceptance\nexpect agreement\n",
      "protocol approx\nnodes 10\ninputs 0,10,20,30\nbyzantine 3 extreme\niterations 6\n"
      "seed 2\nexpect within-range\nexpect contraction\n",
      "protocol rotor\nnodes 10\nbyzantine 3 rotorstuffer,silent,noise\nseed 11\n"
      "expect termination\nexpect good-round\n",
      "protocol renaming\nnodes 10\nbyzantine 3 crash,silent\ncrash-round 4\nseed 21\n"
      "expect termination\nexpect agreement\n",
  };
  for (const char* const text : scripts) {
    const std::string name = std::string(text).substr(0, std::string(text).find("\nseed"));
    const SingleRun single = run_single_process(text);
    const std::string raw = single.recorder->jsonl();
    ASSERT_GT(single.recorder->size(), 0u) << name;
    EXPECT_TRUE(single.run.all_satisfied) << single.run.summary;
    EXPECT_FALSE(single.run.metrics_exposition.empty()) << name;
    EXPECT_EQ(run_single_process(text, 4).recorder->jsonl(), raw) << name;
    for (const std::uint32_t shards : {1u, 2u, 4u}) {
      DistConfig config;
      config.script_text = text;
      config.shards = shards;
      config.want_trace = true;
      const DistRun dist = run_dist(config);
      const std::string tag = name + " shards " + std::to_string(shards);
      ASSERT_TRUE(dist.infra_ok) << tag << ": " << dist.infra_error;
      expect_same_verdict(dist.script, single.run, tag);
      EXPECT_FALSE(dist.script.metrics_exposition.empty()) << tag;
      ASSERT_NE(dist.trace, nullptr) << tag;
      EXPECT_EQ(dist.trace->jsonl(), raw) << tag;
      EXPECT_EQ(dist.trace->canonical_jsonl(), single.recorder->canonical_jsonl()) << tag;
    }
  }
}

TEST(RunDist, CrashedWorkerIsDetectedNotHungAndNamed) {
  // One shard: the coordinator can only read the victim's control EOF.
  // Two shards: it harvests shard 0 first, so it usually reads the
  // survivor's kError about its dead mesh peer before the victim's control
  // EOF — the message must still blame the victim.
  for (const std::uint32_t shards : {1u, 2u}) {
    DistConfig config;
    config.script_text = kConsensusScript;
    config.shards = shards;
    config.crash_at_round = 3;
    config.crash_shard = shards - 1;
    config.wedge_timeout_ms = 30000;  // EOF detection must not need the budget
    const DistRun dist = run_dist(config);
    const std::string victim = "shard worker " + std::to_string(shards - 1);
    EXPECT_FALSE(dist.infra_ok) << shards;
    EXPECT_NE(dist.infra_error.find(victim), std::string::npos) << dist.infra_error;
    EXPECT_NE(dist.infra_error.find("died"), std::string::npos) << dist.infra_error;
    EXPECT_FALSE(dist.script.all_satisfied) << shards;
  }
}

TEST(RunDist, PeerSocketEofMidRoundFailsTheMeshRunNotHangsIt) {
  // The dying worker's PEERS see the mesh-socket EOF while waiting for its
  // round frame. Whichever signal the coordinator reads first — the victim's
  // control EOF or a survivor's kError naming the dead peer — the run must
  // fail promptly and blame the victim.
  DistConfig config;
  config.script_text = kConsensusScript;
  config.shards = 4;
  config.crash_at_round = 3;
  config.crash_shard = 2;
  config.wedge_timeout_ms = 30000;  // failure must come from EOF, not timeout
  const DistRun dist = run_dist(config);
  EXPECT_FALSE(dist.infra_ok);
  EXPECT_NE(dist.infra_error.find("shard worker 2"), std::string::npos) << dist.infra_error;
  EXPECT_NE(dist.infra_error.find("died"), std::string::npos) << dist.infra_error;
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

TEST(RunDist, OutOfRangeNodeIndexIsAParseErrorNotACrash) {
  // Each index is only out of range against the script's sizes, which the
  // parser checks once it has read them all.
  const char* const scripts[] = {
      "protocol consensus\nnodes 4\nchaos 1-2 crash=99:1-2\n",
      "protocol consensus\nnodes 4\nbyzantine 1 silent\nchaos 1-2 partition=2-5\n",
      "protocol consensus\nnodes 4\nchurn 2 leave=9\n",
      "protocol consensus\nnodes 4\nbyzantine -3 silent\n",
  };
  for (const char* const text : scripts) {
    for (const std::uint32_t shards : {1u, 2u}) {
      DistConfig config;
      config.script_text = text;
      config.shards = shards;
      const DistRun dist = run_dist(config);
      EXPECT_FALSE(dist.infra_ok) << text;
      EXPECT_NE(dist.infra_error.find("script parse error at line "), std::string::npos)
          << dist.infra_error;
      EXPECT_FALSE(dist.script.all_satisfied) << text;
    }
  }
}

}  // namespace
}  // namespace idonly
