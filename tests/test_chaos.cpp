// Deterministic chaos engine: plan validation, pure-function verdicts, and
// the cross-engine reproducibility contract — ONE schedule replays the SAME
// fault trace on the sync simulator, the async simulator, and the runtime
// transport stack, because every verdict is a pure function of
// (seed, LinkEvent) and the engines only differ in how they derive the key.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <variant>
#include <vector>

#include "common/chaos.hpp"
#include "common/invariants.hpp"
#include "core/consensus.hpp"
#include "harness/script.hpp"
#include "net/async_simulator.hpp"
#include "net/chaos_hooks.hpp"
#include "net/sync_simulator.hpp"
#include "runtime/chaos_transport.hpp"
#include "runtime/inmemory_transport.hpp"
#include "wire_frames.hpp"

namespace idonly {
namespace {

ChaosPhase phase_window(Round first, Round last) {
  ChaosPhase phase;
  phase.first_round = first;
  phase.last_round = last;
  return phase;
}

// ------------------------------------------------------------- validation --

TEST(ChaosPlan_, RejectsOutOfRangeProbabilities) {
  for (double bad : {-0.1, 1.5}) {
    ChaosPhase phase = phase_window(1, 5);
    phase.drop = bad;
    EXPECT_THROW(ChaosSchedule(ChaosPlan{{phase}}, 1), std::invalid_argument);
    phase = phase_window(1, 5);
    phase.duplicate = bad;
    EXPECT_THROW(ChaosSchedule(ChaosPlan{{phase}}, 1), std::invalid_argument);
    phase = phase_window(1, 5);
    phase.corrupt = bad;
    EXPECT_THROW(ChaosSchedule(ChaosPlan{{phase}}, 1), std::invalid_argument);
    phase = phase_window(1, 5);
    phase.delay.probability = bad;
    EXPECT_THROW(ChaosSchedule(ChaosPlan{{phase}}, 1), std::invalid_argument);
    phase = phase_window(1, 5);
    phase.link_faults.push_back(LinkFaultSpec{1, 2, bad, 0.0, 0.0});
    EXPECT_THROW(ChaosSchedule(ChaosPlan{{phase}}, 1), std::invalid_argument);
  }
}

TEST(ChaosPlan_, RejectsEmptyWindowsAndBadDelaySpan) {
  EXPECT_THROW(ChaosSchedule(ChaosPlan{{phase_window(4, 2)}}, 1), std::invalid_argument);
  EXPECT_THROW(ChaosSchedule(ChaosPlan{{phase_window(0, 2)}}, 1), std::invalid_argument);

  ChaosPhase phase = phase_window(1, 5);
  phase.delay = DelaySpec{0.5, 0};
  EXPECT_THROW(ChaosSchedule(ChaosPlan{{phase}}, 1), std::invalid_argument);

  phase = phase_window(1, 5);
  phase.crashes.push_back(CrashWindow{7, 4, 2});
  EXPECT_THROW(ChaosSchedule(ChaosPlan{{phase}}, 1), std::invalid_argument);

  // A fully loaded valid plan constructs fine.
  phase = phase_window(2, 9);
  phase.drop = 1.0;
  phase.delay = DelaySpec{0.3, 4};
  phase.partitions.push_back(ChaosPartition{{1}, {2}});
  phase.crashes.push_back(CrashWindow{7, 2, 4});
  EXPECT_NO_THROW(ChaosSchedule(ChaosPlan{{phase}}, 1));
}

// ------------------------------------------------------------ pure coins --

TEST(ChaosCoin, DeterministicInRangeAndSaltSeparated) {
  const LinkEvent event{5, 11, 22, 1};
  const double first = ChaosSchedule::coin(42, event, 0);
  EXPECT_EQ(first, ChaosSchedule::coin(42, event, 0)) << "same key, same coin";
  EXPECT_GE(first, 0.0);
  EXPECT_LT(first, 1.0);
  // Independent streams: changing any key component lands elsewhere.
  EXPECT_NE(ChaosSchedule::word(42, event, 0), ChaosSchedule::word(42, event, 1));
  EXPECT_NE(ChaosSchedule::word(42, event, 0), ChaosSchedule::word(43, event, 0));
  EXPECT_NE(ChaosSchedule::word(42, event, 0),
            ChaosSchedule::word(42, LinkEvent{5, 11, 22, 2}, 0));
}

TEST(ChaosSchedule_, VerdictsArePureAcrossInstances) {
  ChaosPhase phase = phase_window(1, 30);
  phase.drop = 0.2;
  phase.duplicate = 0.2;
  phase.corrupt = 0.1;
  phase.delay = DelaySpec{0.2, 3};
  ChaosSchedule a(ChaosPlan{{phase}}, 7);
  ChaosSchedule b(ChaosPlan{{phase}}, 7);
  for (Round r = 1; r <= 30; ++r) {
    for (NodeId from : {1u, 2u, 3u}) {
      for (NodeId to : {1u, 2u, 3u}) {
        for (std::uint64_t seq = 0; seq < 2; ++seq) {
          const auto va = a.decide(LinkEvent{r, from, to, seq});
          const auto vb = b.decide(LinkEvent{r, from, to, seq});
          EXPECT_EQ(va.drop, vb.drop);
          EXPECT_EQ(va.duplicate, vb.duplicate);
          EXPECT_EQ(va.corrupt, vb.corrupt);
          EXPECT_EQ(va.delay_rounds, vb.delay_rounds);
        }
      }
    }
  }
  EXPECT_EQ(a.canonical_trace(), b.canonical_trace());
  EXPECT_FALSE(a.canonical_trace_string().empty());

  ChaosSchedule other_seed(ChaosPlan{{phase}}, 8);
  for (Round r = 1; r <= 30; ++r) {
    for (NodeId from : {1u, 2u, 3u}) {
      for (NodeId to : {1u, 2u, 3u}) (void)other_seed.decide(LinkEvent{r, from, to, 0});
    }
  }
  EXPECT_NE(a.canonical_trace_string(), other_seed.canonical_trace_string())
      << "a different seed must produce a different fault pattern";
}

TEST(ChaosSchedule_, SelfLinksAreNeverFaulted) {
  ChaosPhase phase = phase_window(1, 10);
  phase.drop = 1.0;
  ChaosSchedule chaos(ChaosPlan{{phase}}, 3);
  for (Round r = 1; r <= 10; ++r) {
    const auto verdict = chaos.decide(LinkEvent{r, 7, 7, 0});
    EXPECT_FALSE(verdict.drop) << "loopback is local memory, not wire";
  }
  EXPECT_TRUE(chaos.trace().empty());
}

TEST(ChaosSchedule_, PhaseWindowsApplyAndLaterPhasesWinOverlaps) {
  ChaosPhase dropper = phase_window(2, 3);
  dropper.drop = 1.0;
  ChaosPhase duper = phase_window(3, 4);
  duper.duplicate = 1.0;
  ChaosSchedule chaos(ChaosPlan{{dropper, duper}}, 5);
  EXPECT_EQ(chaos.last_faulty_round(), 4);
  EXPECT_FALSE(chaos.phase_for(1).has_value());
  EXPECT_EQ(chaos.phase_for(2), std::optional<std::size_t>(0));
  EXPECT_EQ(chaos.phase_for(3), std::optional<std::size_t>(1)) << "later phase wins";
  EXPECT_EQ(chaos.phase_for(4), std::optional<std::size_t>(1));

  EXPECT_FALSE(chaos.decide(LinkEvent{1, 1, 2, 0}).drop);
  EXPECT_TRUE(chaos.decide(LinkEvent{2, 1, 2, 0}).drop);
  const auto overlap = chaos.decide(LinkEvent{3, 1, 2, 0});
  EXPECT_FALSE(overlap.drop) << "round 3 runs phase 1, which never drops";
  EXPECT_TRUE(overlap.duplicate);
  EXPECT_TRUE(chaos.decide(LinkEvent{4, 1, 2, 0}).duplicate) << "phase 1 alone past round 3";
  EXPECT_FALSE(chaos.decide(LinkEvent{5, 1, 2, 0}).duplicate) << "quiet after last phase";

  const auto counters = chaos.counters();
  ASSERT_EQ(counters.per_phase.size(), 2u);
  EXPECT_EQ(counters.per_phase[0].drops, 1u);
  EXPECT_EQ(counters.per_phase[1].duplicates, 2u);
  EXPECT_EQ(counters.total_faults().total(), 3u);
}

TEST(ChaosSchedule_, PartitionCutsBothDirectionsAndSparesTheRest) {
  ChaosPhase phase = phase_window(1, 5);
  phase.partitions.push_back(ChaosPartition{{1, 2}, {3}});
  ChaosSchedule chaos(ChaosPlan{{phase}}, 9);
  EXPECT_TRUE(chaos.decide(LinkEvent{1, 1, 3, 0}).drop);
  EXPECT_TRUE(chaos.decide(LinkEvent{1, 3, 1, 0}).drop) << "bidirectional";
  EXPECT_TRUE(chaos.decide(LinkEvent{1, 2, 3, 0}).drop);
  EXPECT_FALSE(chaos.decide(LinkEvent{1, 1, 2, 0}).drop) << "intra-side traffic flows";
  EXPECT_FALSE(chaos.decide(LinkEvent{1, 4, 3, 0}).drop) << "bystander unaffected";
  EXPECT_FALSE(chaos.decide(LinkEvent{6, 1, 3, 0}).drop) << "healed after the phase";
  EXPECT_EQ(chaos.counters().per_phase[0].partition_drops, 3u);
}

TEST(ChaosSchedule_, CrashWindowSilencesEndpointThenRejoins) {
  ChaosPhase phase = phase_window(1, 10);
  phase.crashes.push_back(CrashWindow{5, 2, 3});
  ChaosSchedule chaos(ChaosPlan{{phase}}, 2);
  EXPECT_FALSE(chaos.decide(LinkEvent{1, 5, 1, 0}).drop) << "before the crash";
  EXPECT_TRUE(chaos.decide(LinkEvent{2, 5, 1, 0}).drop) << "crashed node sends nothing";
  EXPECT_TRUE(chaos.decide(LinkEvent{3, 1, 5, 0}).drop) << "crashed node receives nothing";
  EXPECT_FALSE(chaos.decide(LinkEvent{4, 5, 1, 0}).drop) << "rejoined";
  EXPECT_FALSE(chaos.decide(LinkEvent{2, 1, 2, 0}).drop) << "others keep talking";
  EXPECT_EQ(chaos.counters().per_phase[0].crash_drops, 2u);
}

TEST(ChaosSchedule_, LinkFaultsAreAsymmetric) {
  ChaosPhase phase = phase_window(1, 20);
  phase.link_faults.push_back(LinkFaultSpec{1, 2, /*drop=*/1.0, 0.0, 0.0});
  ChaosSchedule chaos(ChaosPlan{{phase}}, 4);
  for (Round r = 1; r <= 20; ++r) {
    EXPECT_TRUE(chaos.decide(LinkEvent{r, 1, 2, 0}).drop) << "faulted direction";
    EXPECT_FALSE(chaos.decide(LinkEvent{r, 2, 1, 0}).drop) << "reverse direction clean";
  }
}

// ------------------------------------------- cross-engine reproducibility --

// A process that broadcasts one message per round and ignores its inbox:
// with traffic independent of delivery, all three engines generate the same
// logical link events and the traces must match byte for byte.
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

TEST(ChaosCrossEngine, OneSeedOneTraceOnAllThreeEngines) {
  ChaosPhase phase = phase_window(2, 4);
  phase.drop = 0.25;
  phase.duplicate = 0.2;
  phase.corrupt = 0.15;
  phase.delay = DelaySpec{0.25, 2};
  const ChaosPlan plan{{phase}};
  const std::uint64_t seed = 99;
  const std::vector<NodeId> ids{10, 20, 30};
  constexpr Round kRounds = 6;

  // Sync engine: per-link verdicts through SyncSimulator::set_chaos.
  auto run_sync = [&] {
    auto chaos = std::make_shared<ChaosSchedule>(plan, seed);
    SyncSimulator sim;
    sim.set_chaos(chaos);
    for (NodeId id : ids) sim.add_process(std::make_unique<ChatterProcess>(id));
    sim.run_rounds(kRounds);
    return chaos->canonical_trace_string();
  };
  const std::string sync_trace = run_sync();
  EXPECT_FALSE(sync_trace.empty()) << "the plan must actually fire at these probabilities";
  EXPECT_EQ(sync_trace, run_sync()) << "repeated runs of one engine are byte-identical";

  // Async engine: time maps to rounds through the chaos delay model. One
  // send per node per round_duration=10 window ⇒ identical link events.
  auto async_chaos = std::make_shared<ChaosSchedule>(plan, seed);
  AsyncSimulator async_sim(make_chaos_delay_model(async_chaos, 10.0));
  for (NodeId id : ids) {
    async_sim.add_process(std::make_unique<AsyncChatter>(id, 10.0, kRounds));
  }
  async_sim.run(1000.0);
  EXPECT_EQ(sync_trace, async_chaos->canonical_trace_string());

  // Runtime engine: receive-side ChaosTransport recovers the link key from
  // the slab's round header + codec sender — one broadcast per node per
  // round.
  auto runtime_chaos = std::make_shared<ChaosSchedule>(plan, seed);
  InMemoryHub hub;
  std::vector<std::unique_ptr<ChaosTransport>> transports;
  for (NodeId id : ids) {
    transports.push_back(
        std::make_unique<ChaosTransport>(hub.make_endpoint(), runtime_chaos, id));
  }
  for (Round r = 1; r <= kRounds; ++r) {
    for (std::size_t i = 0; i < ids.size(); ++i) transports[i]->broadcast(framed(r, ids[i]));
    for (auto& transport : transports) (void)transport->drain_views();
  }
  EXPECT_EQ(sync_trace, runtime_chaos->canonical_trace_string());
}

// --------------------------------------------------- runtime verdict unit --

TEST(ChaosTransportUnit, AppliesDropDuplicateAndSparesSelf) {
  ChaosPhase phase = phase_window(1, 10);
  phase.drop = 1.0;
  auto chaos = std::make_shared<ChaosSchedule>(ChaosPlan{{phase}}, 1);
  InMemoryHub hub;
  ChaosTransport sender(hub.make_endpoint(), chaos, 1);
  ChaosTransport receiver(hub.make_endpoint(), chaos, 2);
  sender.broadcast(framed(1, 1));
  EXPECT_TRUE(receiver.drain_views().empty()) << "cross-link frame dropped";
  EXPECT_EQ(sender.drain_views().size(), 1u) << "self loopback exempt from chaos";

  ChaosPhase dup = phase_window(1, 10);
  dup.duplicate = 1.0;
  auto dup_chaos = std::make_shared<ChaosSchedule>(ChaosPlan{{dup}}, 1);
  InMemoryHub hub2;
  ChaosTransport dup_sender(hub2.make_endpoint(), dup_chaos, 1);
  ChaosTransport dup_receiver(hub2.make_endpoint(), dup_chaos, 2);
  dup_sender.broadcast(framed(1, 1));
  const auto views = dup_receiver.drain_views();
  ASSERT_EQ(views.size(), 2u);
  EXPECT_TRUE(std::equal(views[0].bytes.begin(), views[0].bytes.end(), views[1].bytes.begin(),
                         views[1].bytes.end()));
}

TEST(ChaosTransportUnit, CorruptionFlipsExactlyOnePayloadByte) {
  ChaosPhase phase = phase_window(1, 10);
  phase.corrupt = 1.0;
  auto chaos = std::make_shared<ChaosSchedule>(ChaosPlan{{phase}}, 6);
  InMemoryHub hub;
  ChaosTransport sender(hub.make_endpoint(), chaos, 1);
  ChaosTransport receiver(hub.make_endpoint(), chaos, 2);
  const Frame original = framed(3, 1);
  const auto sent = parse_shard_slab(original);
  ASSERT_TRUE(sent.has_value());
  ASSERT_EQ(sent->entries.size(), 1u);
  const auto frame_begin = static_cast<std::size_t>(sent->entries[0].frame.data() - original.data());
  const std::size_t frame_end = frame_begin + sent->entries[0].frame.size();
  ASSERT_EQ(frame_end, original.size());
  sender.broadcast(original);
  const auto views = receiver.drain_views();
  ASSERT_EQ(views.size(), 1u);
  ASSERT_EQ(views[0].bytes.size(), original.size());
  std::size_t diffs = 0;
  std::size_t diff_pos = 0;
  for (std::size_t i = 0; i < original.size(); ++i) {
    if (views[0].bytes[i] != original[i]) {
      diffs += 1;
      diff_pos = i;
    }
  }
  EXPECT_EQ(diffs, 1u);
  // The slab header keys the schedule and the length prefix frames the
  // entry: the flip must land inside the entry's frame bytes.
  EXPECT_GE(diff_pos, frame_begin) << "header, tag and length must stay intact";
  EXPECT_LT(diff_pos, frame_end);
  const auto received = parse_shard_slab(views[0].bytes);
  ASSERT_TRUE(received.has_value());
  EXPECT_EQ(received->round, 3);
  ASSERT_EQ(received->entries.size(), 1u);
  EXPECT_EQ(received->entries[0].to, sent->entries[0].to);
}

TEST(ChaosTransportUnit, DelayHoldsFrameForItsVerdictThenReleasesIntact) {
  ChaosPhase phase = phase_window(1, 10);
  phase.delay = DelaySpec{1.0, 1};  // always exactly one extra drain
  auto chaos = std::make_shared<ChaosSchedule>(ChaosPlan{{phase}}, 3);
  InMemoryHub hub;
  ChaosTransport sender(hub.make_endpoint(), chaos, 1);
  ChaosTransport receiver(hub.make_endpoint(), chaos, 2);
  const Frame original = framed(1, 1);
  sender.broadcast(original);
  EXPECT_TRUE(receiver.drain_views().empty());
  EXPECT_EQ(receiver.held_count(), 1u);
  const auto views = receiver.drain_views();
  ASSERT_EQ(views.size(), 1u);
  EXPECT_TRUE(std::equal(views[0].bytes.begin(), views[0].bytes.end(), original.begin(),
                         original.end()));
  EXPECT_EQ(receiver.held_count(), 0u);
}

// ------------------------------------------ sync engine: per-link faults --

/// Sends what the test scripts for each global round; records every inbox.
class RecordingProcess final : public Process {
 public:
  using Process::Process;
  void send_in_round(Round round, Outgoing out) { script_[round].push_back(std::move(out)); }
  void on_round(RoundInfo round, std::span<const Message> inbox,
                std::vector<Outgoing>& out) override {
    received[round.global].assign(inbox.begin(), inbox.end());
    if (const auto it = script_.find(round.global); it != script_.end()) {
      out.insert(out.end(), it->second.begin(), it->second.end());
    }
  }

  std::map<Round, std::vector<Message>> received;

 private:
  std::map<Round, std::vector<Outgoing>> script_;
};

Message valued(double v) { return Message{.kind = MsgKind::kPresent, .value = Value::real(v)}; }

TEST(ChaosSyncLinks, DuplicateWithDelayDeliversOneOnTimeAndOneLateCopy) {
  ChaosPhase phase = phase_window(1, 1);
  phase.duplicate = 1.0;
  phase.delay = DelaySpec{1.0, 1};
  for (const unsigned threads : {1U, 2U}) {
    SyncSimulator sim;
    sim.set_threads(threads);
    sim.set_chaos(std::make_shared<ChaosSchedule>(ChaosPlan{{phase}}, 3));
    auto sender = std::make_unique<RecordingProcess>(1);
    auto receiver = std::make_unique<RecordingProcess>(2);
    sender->send_in_round(1, Outgoing{std::nullopt, valued(7)});
    RecordingProcess* s = sender.get();
    RecordingProcess* r = receiver.get();
    sim.add_process(std::move(sender));
    sim.add_process(std::move(receiver));
    sim.run_rounds(3);
    ASSERT_EQ(r->received[2].size(), 1u) << "the duplicate keeps the on-time copy";
    ASSERT_EQ(r->received[3].size(), 1u) << "the delayed copy lands one round late";
    EXPECT_EQ(r->received[3][0], r->received[2][0]);
    EXPECT_EQ(s->received[2].size(), 1u) << "self-delivery is never faulted";
    EXPECT_TRUE(s->received[3].empty());
  }
}

TEST(ChaosSyncLinks, RepeatedBroadcastReachesTheReceiverItsFirstCopyMissed) {
  // Sender 1 broadcasts X, Y, X in one round. Pick a seed whose verdicts on
  // link 1→2 drop the first X only: receiver 2 must get Y, then X at the
  // repeat's place in send order, while the sender's loopback sees X, Y.
  ChaosPhase phase = phase_window(1, 1);
  phase.drop = 0.5;
  const ChaosPlan plan{{phase}};
  std::uint64_t seed = 0;
  for (std::uint64_t s = 1; seed == 0 && s < 1000; ++s) {
    const ChaosSchedule probe(plan, s);
    if (probe.peek(LinkEvent{1, 1, 2, 0}).drop && !probe.peek(LinkEvent{1, 1, 2, 1}).drop &&
        !probe.peek(LinkEvent{1, 1, 2, 2}).drop) {
      seed = s;
    }
  }
  ASSERT_NE(seed, 0u);
  for (const unsigned threads : {1U, 2U}) {
    SyncSimulator sim;
    sim.set_threads(threads);
    sim.set_chaos(std::make_shared<ChaosSchedule>(plan, seed));
    auto sender = std::make_unique<RecordingProcess>(1);
    auto receiver = std::make_unique<RecordingProcess>(2);
    for (const double v : {1.0, 2.0, 1.0}) sender->send_in_round(1, Outgoing{std::nullopt, valued(v)});
    RecordingProcess* s = sender.get();
    RecordingProcess* r = receiver.get();
    sim.add_process(std::move(sender));
    sim.add_process(std::move(receiver));
    sim.run_rounds(2);
    ASSERT_EQ(r->received[2].size(), 2u);
    EXPECT_EQ(r->received[2][0].value, Value::real(2.0));
    EXPECT_EQ(r->received[2][1].value, Value::real(1.0));
    ASSERT_EQ(s->received[2].size(), 2u) << "the repeat is a duplicate where X arrived";
    EXPECT_EQ(s->received[2][0].value, Value::real(1.0));
    EXPECT_EQ(s->received[2][1].value, Value::real(2.0));
  }
}

// ----------------------------------------------- sync consensus + monitor --

TEST(ChaosConsensus, SurvivesBurstLossWithInvariantMonitorClean) {
  const std::vector<NodeId> ids{1, 2, 3, 4, 5, 6, 7, 8, 9};
  ChaosPhase phase = phase_window(2, 6);
  phase.drop = 0.1;
  auto chaos = std::make_shared<ChaosSchedule>(ChaosPlan{{phase}}, 5);
  SyncSimulator sim;
  sim.set_chaos(chaos);
  std::vector<Value> inputs;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    inputs.push_back(Value::real(static_cast<double>(i % 2)));
    sim.add_process(std::make_unique<ConsensusProcess>(ids[i], inputs.back()));
  }
  InvariantMonitor monitor(inputs);
  for (NodeId id : ids) sim.get<ConsensusProcess>(id)->set_observer(&monitor);

  ASSERT_TRUE(sim.run_until_all_correct_done(300));
  EXPECT_TRUE(monitor.ok()) << (monitor.violations().empty() ? ""
                                                             : monitor.violations().front());
  EXPECT_EQ(monitor.decided_count(), ids.size());
  EXPECT_GT(chaos->counters().total_faults().total(), 0u) << "the burst must have actually fired";

  std::optional<Value> first;
  for (NodeId id : ids) {
    const auto output = sim.get<ConsensusProcess>(id)->output();
    ASSERT_TRUE(output.has_value());
    if (!first.has_value()) first = *output;
    EXPECT_EQ(*output, *first);
  }
}

// ----------------------------------------------------------- script DSL ----

TEST(ChaosScript, ParsesFullChaosLine) {
  const auto parsed = parse_script(
      "protocol consensus\n"
      "nodes 6\n"
      "chaos 2-4 drop=0.5 dup=0.1 corrupt=0.05 delay=0.2:3 partition=0-1 crash=2:3-4\n"
      "expect agreement\n");
  ASSERT_TRUE(std::holds_alternative<ScenarioScript>(parsed));
  const auto& script = std::get<ScenarioScript>(parsed);
  ASSERT_EQ(script.chaos_phases.size(), 1u);
  const ChaosPhaseSpec& spec = script.chaos_phases[0];
  EXPECT_EQ(spec.first_round, 2);
  EXPECT_EQ(spec.last_round, 4);
  EXPECT_DOUBLE_EQ(spec.drop, 0.5);
  EXPECT_DOUBLE_EQ(spec.duplicate, 0.1);
  EXPECT_DOUBLE_EQ(spec.corrupt, 0.05);
  EXPECT_DOUBLE_EQ(spec.delay_probability, 0.2);
  EXPECT_EQ(spec.delay_max_extra, 3);
  ASSERT_TRUE(spec.partition.has_value());
  EXPECT_EQ(spec.partition->first, 0u);
  EXPECT_EQ(spec.partition->second, 1u);
  ASSERT_EQ(spec.crashes.size(), 1u);
  EXPECT_EQ(spec.crashes[0].index, 2u);
  EXPECT_EQ(spec.crashes[0].first, 3);
  EXPECT_EQ(spec.crashes[0].last, 4);
}

TEST(ChaosScript, RejectsMalformedChaosLines) {
  const char* bad[] = {
      "protocol consensus\nchaos 4-2 drop=0.1\n",      // inverted window
      "protocol consensus\nchaos 1-2 drop=1.5\n",      // probability out of range
      "protocol consensus\nchaos 1-2 bogus=0.1\n",     // unknown fault key
      "protocol consensus\nchaos 1-2\n",               // no fault spec at all
      "protocol rb\nchaos 1-2 drop=0.1\n",             // chaos-unsupported protocol
  };
  for (const char* text : bad) {
    EXPECT_TRUE(std::holds_alternative<ParseError>(parse_script(text))) << text;
  }
}

TEST(ChaosScript, MaterializesIndicesAgainstSortedIds) {
  ChaosPhaseSpec spec;
  spec.first_round = 2;
  spec.last_round = 4;
  spec.drop = 0.25;
  spec.partition = {1, 2};
  spec.crashes.push_back(ChaosPhaseSpec::CrashSpec{3, 2, 3});
  const std::vector<NodeId> ids{5, 6, 7, 8};
  const ChaosPlan plan = materialize_chaos_plan({spec}, ids);
  ASSERT_EQ(plan.phases.size(), 1u);
  EXPECT_DOUBLE_EQ(plan.phases[0].drop, 0.25);
  ASSERT_EQ(plan.phases[0].partitions.size(), 1u);
  EXPECT_EQ(plan.phases[0].partitions[0].side_a, (std::vector<NodeId>{6, 7}));
  EXPECT_EQ(plan.phases[0].partitions[0].side_b, (std::vector<NodeId>{5, 8}));
  ASSERT_EQ(plan.phases[0].crashes.size(), 1u);
  EXPECT_EQ(plan.phases[0].crashes[0].node, 8u);

  ChaosPhaseSpec out_of_range;
  out_of_range.partition = {0, 9};
  EXPECT_THROW(materialize_chaos_plan({out_of_range}, ids), std::invalid_argument);
}

}  // namespace
}  // namespace idonly
