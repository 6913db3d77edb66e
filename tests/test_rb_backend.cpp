// Pluggable reliable-broadcast backends (core/rb_backend.hpp): the
// Imbs-Raynal 2-phase state machine under the unknown-n adaptation (n > 5f),
// the `rb` scenario-DSL keyword, and the determinism contract every backend
// must honour — bit-identical traces across worker-thread counts and
// byte-identical canonical traces across the sync, async, and runtime
// engines for one seed.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <variant>
#include <vector>

#include "check/explorer.hpp"
#include "common/chaos.hpp"
#include "common/rng.hpp"
#include "common/thresholds.hpp"
#include "common/trace.hpp"
#include "core/participant_tracker.hpp"
#include "core/rb_backend.hpp"
#include "core/reliable_broadcast.hpp"
#include "fuzz/scn_writer.hpp"
#include "harness/runner.hpp"
#include "harness/script.hpp"
#include "net/async_simulator.hpp"
#include "net/chaos_hooks.hpp"
#include "net/codec.hpp"
#include "net/sync_simulator.hpp"
#include "runtime/chaos_transport.hpp"
#include "runtime/inmemory_transport.hpp"
#include "wire_frames.hpp"

namespace idonly {
namespace {

ScenarioConfig config_for(std::size_t n_correct, std::size_t n_byz, AdversaryKind adversary,
                          std::uint64_t seed) {
  ScenarioConfig config;
  config.n_correct = n_correct;
  config.n_byzantine = n_byz;
  config.adversary = adversary;
  config.seed = seed;
  return config;
}

// ------------------------------------------------------------- kind names --

TEST(RbBackendKindNames, RoundTripAndRejectUnknown) {
  EXPECT_STREQ(to_string(RbBackendKind::kAlg1), "alg1");
  EXPECT_STREQ(to_string(RbBackendKind::kImbs), "imbs");
  EXPECT_EQ(parse_rb_backend("alg1"), RbBackendKind::kAlg1);
  EXPECT_EQ(parse_rb_backend("imbs"), RbBackendKind::kImbs);
  EXPECT_FALSE(parse_rb_backend("").has_value());
  EXPECT_FALSE(parse_rb_backend("IMBS").has_value());
  EXPECT_FALSE(parse_rb_backend("bracha").has_value());
}

// ------------------------------------------- Alg. 1 tally-stop reference --

// Alg1Backend before it stopped tallying after acceptance, its logic kept as
// the reference for the differential test below.
class ReferenceAlg1 {
 public:
  ReferenceAlg1(NodeId self, NodeId source, Value payload)
      : self_(self), source_(source), payload_(payload) {}

  std::optional<Value> on_round(RoundInfo round, std::span<const Message> inbox,
                                std::size_t n_v, std::vector<Outgoing>& out) {
    for (const Message& m : inbox) {
      if (m.kind == MsgKind::kEcho && m.subject == source_) echoes_.add(m.value, m.sender);
    }

    if (round.local == 1) {
      if (self_ == source_) {
        broadcast(out, Message{.kind = MsgKind::kPayload, .subject = source_, .value = payload_});
      } else {
        broadcast(out, Message{.kind = MsgKind::kPresent});
      }
      return std::nullopt;
    }

    if (round.local == 2) {
      for (const Message& m : inbox) {
        if (m.kind == MsgKind::kPayload && m.sender == source_ && m.subject == source_) {
          broadcast(out, Message{.kind = MsgKind::kEcho, .subject = source_, .value = m.value});
          break;
        }
      }
      return std::nullopt;
    }

    std::optional<Value> newly_accepted;
    for (const auto& [payload, senders] : echoes_.all()) {
      if (accepted_) break;
      if (at_least_one_third(senders.size(), n_v)) {
        broadcast(out, Message{.kind = MsgKind::kEcho, .subject = source_, .value = payload});
      }
      if (at_least_two_thirds(senders.size(), n_v)) {
        accepted_ = true;
        newly_accepted = payload;
      }
    }
    return newly_accepted;
  }

 private:
  NodeId self_;
  NodeId source_;
  Value payload_;
  QuorumCounter<Value> echoes_;
  bool accepted_ = false;
};

TEST(Alg1Backend, TallyStopAfterAcceptanceMatchesReferenceOnRandomInboxes) {
  // Random echo/payload inboxes with several payloads in flight (a
  // Byzantine source), echoes for another source and interleaved senders:
  // every round's outbox and acceptance must equal the reference's.
  constexpr NodeId kSource = 3;
  for (std::uint64_t seed = 1; seed <= 500; ++seed) {
    Rng rng(seed);
    const NodeId self = rng.chance(0.3) ? kSource : 1;
    const std::size_t n_senders = 3 + rng.below(8);
    auto backend = make_rb_backend(RbBackendKind::kAlg1, self, kSource, Value::real(7.0));
    ReferenceAlg1 reference(self, kSource, Value::real(7.0));
    for (Round r = 1; r <= 8; ++r) {
      std::vector<Message> inbox;
      for (NodeId sender = 1; sender <= n_senders; ++sender) {
        if (rng.chance(0.25)) continue;
        const std::size_t count = 1 + rng.below(3);
        for (std::size_t i = 0; i < count; ++i) {
          Message m;
          m.sender = sender;
          m.kind = rng.chance(0.85) ? MsgKind::kEcho : MsgKind::kPayload;
          m.subject = rng.chance(0.9) ? kSource : kSource + 1;
          m.value = rng.chance(0.1) ? Value::bot() : Value::real(static_cast<double>(rng.below(3)));
          inbox.push_back(m);
        }
      }
      if (rng.chance(0.3)) rng.shuffle(inbox);
      const std::size_t n_v = n_senders + rng.below(3);
      const RoundInfo round{r, r};
      std::vector<Outgoing> got_out;
      std::vector<Outgoing> want_out;
      const auto got = backend->on_round(round, inbox, n_v, got_out);
      const auto want = reference.on_round(round, inbox, n_v, want_out);
      ASSERT_EQ(got, want) << "seed " << seed << " round " << r;
      ASSERT_EQ(got_out.size(), want_out.size()) << "seed " << seed << " round " << r;
      for (std::size_t i = 0; i < got_out.size(); ++i) {
        EXPECT_EQ(got_out[i].to, want_out[i].to);
        EXPECT_EQ(got_out[i].msg, want_out[i].msg) << "seed " << seed << " round " << r;
      }
    }
  }
}

// -------------------------------------------------------- Imbs correctness --

TEST(ImbsBackend, CorrectSourceAcceptedByRoundThree) {
  // Same shape as Alg. 1's Lemma 1 pin: direct payload in round 2, witness
  // quorum visible in round 3. n = 8 > 5·1.
  const auto run = run_reliable_broadcast(config_for(7, 1, AdversaryKind::kSilent, 1), 42.0,
                                          /*byzantine_source=*/false, /*run_rounds=*/30,
                                          RbBackendKind::kImbs);
  EXPECT_EQ(run.accepted_count, 7u);
  EXPECT_TRUE(run.agreement);
  ASSERT_TRUE(run.first_accept_round.has_value());
  EXPECT_EQ(*run.first_accept_round, 3);
  EXPECT_EQ(*run.last_accept_round, 3);
}

TEST(ImbsBackend, SweepAcrossSizesAdversariesAndSeeds) {
  for (const auto [n_correct, n_byz] : {std::pair<std::size_t, std::size_t>{6, 1},
                                        {11, 2},
                                        {16, 3},
                                        {9, 0}}) {
    ASSERT_TRUE(resilient_imbs(n_correct + n_byz, n_byz));
    for (AdversaryKind adversary : {AdversaryKind::kSilent, AdversaryKind::kNoise,
                                    AdversaryKind::kForgedEcho, AdversaryKind::kTwoFaced}) {
      for (std::uint64_t seed : {1ull, 17ull}) {
        SCOPED_TRACE(std::to_string(n_correct) + "+" + std::to_string(n_byz) + " adversary=" +
                     std::to_string(static_cast<int>(adversary)) + " seed=" +
                     std::to_string(seed));
        const auto run =
            run_reliable_broadcast(config_for(n_correct, n_byz, adversary, seed), 3.5,
                                   /*byzantine_source=*/false, /*run_rounds=*/30,
                                   RbBackendKind::kImbs);
        EXPECT_EQ(run.accepted_count, n_correct);
        EXPECT_TRUE(run.agreement);
      }
    }
  }
}

TEST(ImbsBackend, ForgedEchoBelowResilienceAcceptsNothing) {
  // n = 9 with f = 2 violates n > 5f: the 4n_v/5 accept quorum (8 of 9) is
  // out of reach of the 7 correct nodes, so even the REAL payload stalls —
  // the price of the tighter quorums. Unforgeability still holds trivially:
  // the two forged-echo witnesses never reach the 3n_v/5 join quorum.
  const auto run = run_reliable_broadcast(config_for(7, 2, AdversaryKind::kForgedEcho, 11), 42.0,
                                          /*byzantine_source=*/false, /*run_rounds=*/30,
                                          RbBackendKind::kImbs);
  EXPECT_EQ(run.accepted_count, 0u);
}

TEST(ImbsBackend, PartialSendWitnessCascadeConvergesInTwoSteps) {
  // Byzantine source sends the payload to 5 of 7 correct nodes only. With
  // n_v = 8 at the recipients: the 5 direct witnesses are enough for the
  // 3n_v/5 join (the two starved nodes see 5 ≥ ⌈3·7/5⌉ under their
  // n_v = 7), but not for the 4n_v/5 accept (needs 7 of 8). The joiners'
  // witnesses land one round later and everyone accepts together in round 4
  // — the two-step cascade that replaces Alg. 1's one-round relay bound.
  SyncSimulator sim;
  const std::vector<NodeId> correct{10, 20, 30, 40, 50, 60, 70};
  const NodeId byz_source = 99;
  for (NodeId id : correct) {
    sim.add_process(std::make_unique<ReliableBroadcastProcess>(id, byz_source, Value::bot(),
                                                               RbBackendKind::kImbs));
  }
  Message payload;
  payload.kind = MsgKind::kPayload;
  payload.subject = byz_source;
  payload.value = Value::real(8.0);
  ByzSchedule schedule(1);
  schedule[0] = ByzAction{payload, {10, 20, 30, 40, 50}};
  sim.add_process(std::make_unique<ScriptedByzantine>(byz_source, schedule));
  sim.run_rounds(8);

  for (NodeId id : correct) {
    auto* p = sim.get<ReliableBroadcastProcess>(id);
    ASSERT_NE(p, nullptr);
    ASSERT_TRUE(p->accepted()) << id;
    EXPECT_EQ(*p->accepted_payload(), Value::real(8.0)) << id;
    EXPECT_EQ(*p->accept_round(), 4) << id;
  }
}

TEST(ImbsBackend, PartialSendBelowJoinQuorumStallsForever) {
  // Only 3 of 7 direct witnesses: under every correct node's n_v the 3n_v/5
  // join quorum needs at least 5, so the cascade never starts and nobody
  // accepts — agreement is preserved by stalling, exactly as in Alg. 1's
  // below-threshold case.
  SyncSimulator sim;
  const std::vector<NodeId> correct{10, 20, 30, 40, 50, 60, 70};
  const NodeId byz_source = 99;
  for (NodeId id : correct) {
    sim.add_process(std::make_unique<ReliableBroadcastProcess>(id, byz_source, Value::bot(),
                                                               RbBackendKind::kImbs));
  }
  Message payload;
  payload.kind = MsgKind::kPayload;
  payload.subject = byz_source;
  payload.value = Value::real(8.0);
  ByzSchedule schedule(1);
  schedule[0] = ByzAction{payload, {10, 20, 30}};
  sim.add_process(std::make_unique<ScriptedByzantine>(byz_source, schedule));
  sim.run_rounds(12);

  for (NodeId id : correct) {
    auto* p = sim.get<ReliableBroadcastProcess>(id);
    ASSERT_NE(p, nullptr);
    EXPECT_FALSE(p->accepted()) << id;
  }
}

// ------------------------------------------------------------ scenario DSL --

constexpr const char* kImbsScript =
    "protocol rb\n"
    "nodes 11\n"
    "inputs 42\n"
    "byzantine 2 forgedecho\n"
    "seed 7\n"
    "rb imbs\n"
    "expect acceptance\n"
    "expect agreement\n";

TEST(RbKeyword, ParsesAndSelectsTheBackend) {
  const auto parsed = parse_script(kImbsScript);
  const auto* script = std::get_if<ScenarioScript>(&parsed);
  ASSERT_NE(script, nullptr);
  EXPECT_EQ(script->rb_backend, RbBackendKind::kImbs);
  EXPECT_EQ(script->protocol, ScriptProtocol::kRb);
}

TEST(RbKeyword, DefaultsToAlg1AndStaysOffTheWire) {
  const auto parsed = parse_script("protocol rb\nnodes 7\ninputs 42\nseed 1\n");
  const auto* script = std::get_if<ScenarioScript>(&parsed);
  ASSERT_NE(script, nullptr);
  EXPECT_EQ(script->rb_backend, RbBackendKind::kAlg1);
  // The writer omits the default so the shipped corpus stays byte-stable.
  EXPECT_EQ(write_script(*script).find("rb "), std::string::npos);
}

TEST(RbKeyword, WriterRoundTripsTheNonDefaultBackend) {
  const auto parsed = parse_script(kImbsScript);
  const auto* script = std::get_if<ScenarioScript>(&parsed);
  ASSERT_NE(script, nullptr);
  EXPECT_NE(write_script(*script).find("rb imbs\n"), std::string::npos);
  EXPECT_TRUE(round_trips(*script));
}

TEST(RbKeyword, UnknownBackendIsAParseError) {
  const auto parsed = parse_script("protocol rb\nnodes 7\ninputs 42\nseed 1\nrb bracha\n");
  const auto* error = std::get_if<ParseError>(&parsed);
  ASSERT_NE(error, nullptr);
  EXPECT_NE(error->message.find("unknown backend"), std::string::npos);
}

TEST(RbKeyword, NonRbProtocolRejectsABackendOverride) {
  const auto parsed =
      parse_script("protocol consensus\nnodes 4\ninputs 0,1\nseed 1\nrb imbs\n");
  const auto* error = std::get_if<ParseError>(&parsed);
  ASSERT_NE(error, nullptr);
  EXPECT_NE(error->message.find("rb protocol only"), std::string::npos);
}

TEST(RbKeyword, ImbsScriptRunsEndToEnd) {
  const auto parsed = parse_script(kImbsScript);
  const auto* script = std::get_if<ScenarioScript>(&parsed);
  ASSERT_NE(script, nullptr);
  const ScriptRun run = run_script(*script, ScriptOptions{});
  EXPECT_TRUE(run.all_satisfied) << run.summary;
  EXPECT_TRUE(run.violations.empty());
}

// ------------------------------------------- backend determinism contract --

/// Chaos plan for the determinism tests: drops and delays only. Corrupt and
/// duplicate verdicts are TRACE-consistent across the engines but not
/// DELIVERY-consistent — corruption flips a real byte in the runtime yet is
/// trace-only in the simulators, and a duplicate's extra copy is delivered
/// immediately in sync (where mailbox dedup kills it) but materialised in
/// the runtime and absent in async, which under a combined delay verdict
/// changes the round a copy lands in. Chatter traffic ignores deliveries,
/// so the test_trace golden covers those verdict kinds; RB traffic FEEDS
/// BACK on what was delivered, so here the plan sticks to the two fault
/// kinds whose delivery semantics are engine-identical.
struct RbGolden {
  ChaosPlan plan;
  std::uint64_t seed = 99;
  std::vector<NodeId> ids{10, 20, 30, 40};
  NodeId source = 10;
  double payload = 42.0;
  Round rounds = 8;
};

RbGolden rb_golden() {
  ChaosPhase phase;
  phase.first_round = 2;
  phase.last_round = 4;
  phase.drop = 0.2;
  phase.delay = DelaySpec{0.25, 2};
  return RbGolden{ChaosPlan{{phase}}};
}

std::shared_ptr<TraceRecorder> run_rb_sync(const RbGolden& g, RbBackendKind backend,
                                           unsigned threads) {
  auto chaos = std::make_shared<ChaosSchedule>(g.plan, g.seed);
  auto recorder = std::make_shared<TraceRecorder>(TraceEngine::kSync);
  SyncSimulator sim;
  sim.set_threads(threads);
  sim.set_chaos(chaos);
  sim.set_trace_recorder(recorder);
  for (NodeId id : g.ids) {
    sim.add_process(std::make_unique<ReliableBroadcastProcess>(
        id, g.source, id == g.source ? Value::real(g.payload) : Value::bot(), backend));
  }
  sim.run_rounds(g.rounds);
  return recorder;
}

/// Round-adapter: runs a synchronous Process on the async engine in
/// lock-step. Deliveries are buffered by on_message; the periodic timer
/// closes the round and steps the process. The delay model shaves half a
/// time unit off every latency (see run_rb_async) so deliveries land
/// STRICTLY before the next round timer — at exactly t = k·D the event
/// queue breaks ties by enqueue order, which would let a node's timer
/// overtake other nodes' later-enqueued deliveries and smear the round
/// boundary.
class AsyncRoundAdapter final : public AsyncProcess {
 public:
  AsyncRoundAdapter(std::unique_ptr<Process> inner, Time period, Round rounds)
      : AsyncProcess(inner->id()), inner_(std::move(inner)), period_(period),
        remaining_(rounds) {}

  void on_start(Time now, std::vector<AsyncOutgoing>& out) override { step(now, out); }
  void on_message(Time /*now*/, const Message& msg,
                  std::vector<AsyncOutgoing>& /*out*/) override {
    inbox_.push_back(msg);
  }
  void on_timer(Time now, std::vector<AsyncOutgoing>& out) override { step(now, out); }
  [[nodiscard]] std::optional<Time> timer_deadline() const override {
    return remaining_ > 0 ? std::optional<Time>(next_) : std::nullopt;
  }
  [[nodiscard]] bool decided() const override { return false; }
  [[nodiscard]] Value decision() const override { return Value::real(0.0); }

 private:
  void step(Time now, std::vector<AsyncOutgoing>& out) {
    round_ += 1;
    std::vector<Message> inbox = std::move(inbox_);
    inbox_.clear();
    std::vector<Outgoing> sync_out;
    inner_->on_round(RoundInfo{round_, round_}, inbox, sync_out);
    for (Outgoing& o : sync_out) out.push_back(AsyncOutgoing{o.to, std::move(o.msg)});
    remaining_ -= 1;
    next_ = now + period_;
  }

  std::unique_ptr<Process> inner_;
  Time period_;
  Round remaining_;
  Round round_ = 0;
  std::vector<Message> inbox_;
  Time next_ = 0;
};

std::string run_rb_async(const RbGolden& g, RbBackendKind backend) {
  auto chaos = std::make_shared<ChaosSchedule>(g.plan, g.seed);
  auto recorder = std::make_shared<TraceRecorder>(TraceEngine::kAsync);
  // Sends happen on whole multiples of D (so the model's round attribution
  // is untouched); the -0.5 shift only moves arrivals off the timer ticks.
  const DelayModel chaos_model = make_chaos_delay_model(chaos, 10.0, recorder);
  AsyncSimulator sim([chaos_model](NodeId from, NodeId to, const Message& msg, Time send_time) {
    const Time latency = chaos_model(from, to, msg, send_time);
    return latency < 0 ? latency : latency - 0.5;
  });
  for (NodeId id : g.ids) {
    sim.add_process(std::make_unique<AsyncRoundAdapter>(
        std::make_unique<ReliableBroadcastProcess>(
            id, g.source, id == g.source ? Value::real(g.payload) : Value::bot(), backend),
        10.0, g.rounds));
  }
  sim.run(1000.0);
  return recorder->canonical_jsonl();
}

/// Manual lock-step over the runtime transports, driving the real slab wire
/// path: each node's round traffic is coalesced into ONE slab datagram
/// (net/codec.hpp), the ChaosTransport judges each entry of it in place and
/// emits the survivors as one-entry slabs, and the drained slabs become the
/// next round's inbox. Delayed slabs carry a stale round header by design —
/// they are delivered on release, just like the sync engine's delayed
/// deposits.
std::string run_rb_runtime(const RbGolden& g, RbBackendKind backend) {
  auto chaos = std::make_shared<ChaosSchedule>(g.plan, g.seed);
  auto recorder = std::make_shared<TraceRecorder>(TraceEngine::kRuntime);
  InMemoryHub hub;
  std::vector<std::unique_ptr<ChaosTransport>> transports;
  std::vector<std::unique_ptr<ReliableBroadcastProcess>> procs;
  for (NodeId id : g.ids) {
    transports.push_back(std::make_unique<ChaosTransport>(hub.make_endpoint(), chaos, id));
    transports.back()->set_trace_recorder(recorder);
    procs.push_back(std::make_unique<ReliableBroadcastProcess>(
        id, g.source, id == g.source ? Value::real(g.payload) : Value::bot(), backend));
  }
  std::vector<std::vector<Message>> inboxes(g.ids.size());
  ShardSlabWriter slab;
  for (Round r = 1; r <= g.rounds; ++r) {
    for (std::size_t i = 0; i < procs.size(); ++i) {
      std::vector<Message> inbox = std::move(inboxes[i]);
      inboxes[i].clear();
      std::vector<Outgoing> out;
      procs[i]->on_round(RoundInfo{r, r}, inbox, out);
      slab.reset(0, r);
      for (Outgoing& o : out) {
        o.msg.sender = g.ids[i];
        slab.add(std::nullopt, o.msg);
      }
      if (!slab.empty()) transports[i]->broadcast(slab.bytes());
    }
    for (std::size_t i = 0; i < transports.size(); ++i) {
      for (const FrameView& view : transports[i]->drain_views()) {
        for (const Message& msg : decode_slab(view.bytes)) inboxes[i].push_back(msg);
      }
    }
  }
  return recorder->canonical_jsonl();
}

TEST(RbBackendDeterminism, SyncTraceIsBitIdenticalAcrossThreadCounts) {
  const RbGolden g = rb_golden();
  for (RbBackendKind backend : {RbBackendKind::kAlg1, RbBackendKind::kImbs}) {
    SCOPED_TRACE(to_string(backend));
    const std::string one = run_rb_sync(g, backend, 1)->jsonl();
    EXPECT_FALSE(one.empty());
    EXPECT_EQ(one, run_rb_sync(g, backend, 2)->jsonl());
    EXPECT_EQ(one, run_rb_sync(g, backend, 8)->jsonl());
  }
}

TEST(RbBackendDeterminism, CanonicalTraceIsByteIdenticalAcrossAllThreeEngines) {
  const RbGolden g = rb_golden();
  for (RbBackendKind backend : {RbBackendKind::kAlg1, RbBackendKind::kImbs}) {
    SCOPED_TRACE(to_string(backend));
    const std::string sync_trace = run_rb_sync(g, backend, 1)->canonical_jsonl();
    EXPECT_FALSE(sync_trace.empty()) << "the chaos phase must actually fire";
    EXPECT_NE(sync_trace.find("\"kind\":\"link_drop\""), std::string::npos);
    EXPECT_EQ(sync_trace, run_rb_async(g, backend)) << "async trace must match sync";
    EXPECT_EQ(sync_trace, run_rb_runtime(g, backend)) << "runtime trace must match sync";
  }
}

TEST(RbBackendDeterminism, BackendsProduceDistinctTraffic) {
  // Same seed, same chaos: the two state machines send different message
  // schedules (Alg. 1 re-echoes through acceptance, Imbs witnesses at most
  // once), so their canonical traces must differ — the backend is really
  // being exercised, not just renamed.
  const RbGolden g = rb_golden();
  EXPECT_NE(run_rb_sync(g, RbBackendKind::kAlg1, 1)->canonical_jsonl(),
            run_rb_sync(g, RbBackendKind::kImbs, 1)->canonical_jsonl());
}

}  // namespace
}  // namespace idonly
