// Engine tests: the synchronous round simulator must implement the paper's
// model exactly — lock-step delivery, self-inclusive broadcast, unforgeable
// sender stamping, per-round duplicate suppression, dynamic membership.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "common/chaos.hpp"
#include "common/metrics.hpp"
#include "common/rng.hpp"
#include "common/trace.hpp"
#include "net/process.hpp"
#include "net/sync_simulator.hpp"

namespace idonly {
namespace {

/// Scriptable process: records everything it receives; sends what the test
/// enqueues for each round.
class ScriptedProcess final : public Process {
 public:
  using Process::Process;

  void send_in_round(Round local, Outgoing out) { script_[local].push_back(std::move(out)); }

  void on_round(RoundInfo round, std::span<const Message> inbox,
                std::vector<Outgoing>& out) override {
    received_[round.local].assign(inbox.begin(), inbox.end());
    locals_.push_back(round.local);
    globals_.push_back(round.global);
    if (auto it = script_.find(round.local); it != script_.end()) {
      for (const Outgoing& o : it->second) out.push_back(o);
    }
  }

  std::map<Round, std::vector<Message>> received_;
  std::vector<Round> locals_;
  std::vector<Round> globals_;

 private:
  std::map<Round, std::vector<Outgoing>> script_;
};

Message text_msg(MsgKind kind, double v = 0) {
  Message m;
  m.kind = kind;
  m.value = Value::real(v);
  return m;
}

TEST(SyncSimulator, BroadcastDeliversNextRoundToAllIncludingSender) {
  SyncSimulator sim;
  auto a = std::make_unique<ScriptedProcess>(1);
  auto b = std::make_unique<ScriptedProcess>(2);
  a->send_in_round(1, Outgoing{std::nullopt, text_msg(MsgKind::kPresent, 1)});
  auto* pa = a.get();
  auto* pb = b.get();
  sim.add_process(std::move(a));
  sim.add_process(std::move(b));

  sim.step();  // round 1: a broadcasts
  EXPECT_TRUE(pa->received_[1].empty());
  EXPECT_TRUE(pb->received_[1].empty());
  sim.step();  // round 2: delivery
  ASSERT_EQ(pa->received_[2].size(), 1u) << "broadcast must be self-inclusive";
  ASSERT_EQ(pb->received_[2].size(), 1u);
  EXPECT_EQ(pb->received_[2][0].sender, 1u);
}

TEST(SyncSimulator, SenderIdIsStampedNotForgeable) {
  SyncSimulator sim;
  auto a = std::make_unique<ScriptedProcess>(1);
  Message forged = text_msg(MsgKind::kPresent, 9);
  forged.sender = 777;  // attempt to forge
  a->send_in_round(1, Outgoing{std::nullopt, forged});
  auto b = std::make_unique<ScriptedProcess>(2);
  auto* pb = b.get();
  sim.add_process(std::move(a));
  sim.add_process(std::move(b));
  sim.run_rounds(2);
  ASSERT_EQ(pb->received_[2].size(), 1u);
  EXPECT_EQ(pb->received_[2][0].sender, 1u) << "engine must overwrite the sender field";
}

TEST(SyncSimulator, UnicastReachesOnlyTarget) {
  SyncSimulator sim;
  auto a = std::make_unique<ScriptedProcess>(1);
  a->send_in_round(1, Outgoing{NodeId{3}, text_msg(MsgKind::kAck, 5)});
  auto b = std::make_unique<ScriptedProcess>(2);
  auto c = std::make_unique<ScriptedProcess>(3);
  auto* pb = b.get();
  auto* pc = c.get();
  sim.add_process(std::move(a));
  sim.add_process(std::move(b));
  sim.add_process(std::move(c));
  sim.run_rounds(2);
  EXPECT_TRUE(pb->received_[2].empty());
  ASSERT_EQ(pc->received_[2].size(), 1u);
  EXPECT_EQ(pc->received_[2][0].kind, MsgKind::kAck);
}

TEST(SyncSimulator, DuplicateMessagesFromSameSenderSameRoundAreDropped) {
  SyncSimulator sim;
  auto a = std::make_unique<ScriptedProcess>(1);
  // Identical duplicates must collapse; a distinct payload must survive.
  a->send_in_round(1, Outgoing{NodeId{2}, text_msg(MsgKind::kPresent, 1)});
  a->send_in_round(1, Outgoing{NodeId{2}, text_msg(MsgKind::kPresent, 1)});
  a->send_in_round(1, Outgoing{NodeId{2}, text_msg(MsgKind::kPresent, 2)});
  auto b = std::make_unique<ScriptedProcess>(2);
  auto* pb = b.get();
  sim.add_process(std::move(a));
  sim.add_process(std::move(b));
  sim.run_rounds(2);
  EXPECT_EQ(pb->received_[2].size(), 2u);
}

TEST(SyncSimulator, DuplicatesAcrossRoundsAreAllowed) {
  SyncSimulator sim;
  auto a = std::make_unique<ScriptedProcess>(1);
  a->send_in_round(1, Outgoing{NodeId{2}, text_msg(MsgKind::kPresent, 1)});
  a->send_in_round(2, Outgoing{NodeId{2}, text_msg(MsgKind::kPresent, 1)});
  auto b = std::make_unique<ScriptedProcess>(2);
  auto* pb = b.get();
  sim.add_process(std::move(a));
  sim.add_process(std::move(b));
  sim.run_rounds(3);
  EXPECT_EQ(pb->received_[2].size(), 1u);
  EXPECT_EQ(pb->received_[3].size(), 1u);
}

TEST(SyncSimulator, LateJoinerGetsLocalRoundOne) {
  SyncSimulator sim;
  sim.add_process(std::make_unique<ScriptedProcess>(1));
  sim.run_rounds(3);
  auto late = std::make_unique<ScriptedProcess>(9);
  auto* platee = late.get();
  sim.add_process(std::move(late));
  sim.run_rounds(2);
  ASSERT_EQ(platee->locals_.size(), 2u);
  EXPECT_EQ(platee->locals_[0], 1);
  EXPECT_EQ(platee->globals_[0], 4);
}

TEST(SyncSimulator, RemovedProcessStopsReceivingAndSending) {
  SyncSimulator sim;
  auto a = std::make_unique<ScriptedProcess>(1);
  for (Round r = 1; r <= 10; ++r) {
    a->send_in_round(r, Outgoing{std::nullopt, text_msg(MsgKind::kPresent, double(r))});
  }
  auto b = std::make_unique<ScriptedProcess>(2);
  auto* pb = b.get();
  sim.add_process(std::move(a));
  sim.add_process(std::move(b));
  sim.run_rounds(2);
  sim.remove_process(1);
  sim.run_rounds(2);
  // a's round-2 send was routed before removal, so round 3 still delivers;
  // nothing afterwards.
  EXPECT_EQ(pb->received_[3].size(), 1u);
  EXPECT_TRUE(pb->received_[4].empty());
  EXPECT_EQ(sim.member_count(), 1u);
  EXPECT_EQ(sim.find(1), nullptr);
}

TEST(SyncSimulator, MessageToRemovedNodeIsLost) {
  SyncSimulator sim;
  auto a = std::make_unique<ScriptedProcess>(1);
  a->send_in_round(2, Outgoing{NodeId{2}, text_msg(MsgKind::kPresent, 0)});
  sim.add_process(std::move(a));
  sim.add_process(std::make_unique<ScriptedProcess>(2));
  sim.step();
  sim.remove_process(2);
  EXPECT_NO_FATAL_FAILURE(sim.run_rounds(2));
}

TEST(SyncSimulator, MetricsCountSentAndDelivered) {
  SyncSimulator sim;
  auto a = std::make_unique<ScriptedProcess>(1);
  a->send_in_round(1, Outgoing{std::nullopt, text_msg(MsgKind::kPresent, 0)});
  sim.add_process(std::move(a));
  sim.add_process(std::make_unique<ScriptedProcess>(2));
  sim.run_rounds(2);
  // A broadcast is ONE outgoing message; delivery is counted per recipient.
  EXPECT_EQ(sim.metrics().messages.total_sent(), 1u);
  EXPECT_EQ(sim.metrics().messages.total_delivered(), 2u);
  EXPECT_LE(sim.metrics().messages.total_delivered(),
            sim.metrics().messages.total_sent() * sim.member_count());
  EXPECT_EQ(sim.metrics().rounds_executed, 2);
  // The fan-out layer saw one unique payload fanned to both members.
  EXPECT_EQ(sim.metrics().fanout.unique_payloads, 1u);
  EXPECT_EQ(sim.metrics().fanout.deliveries, 2u);
  EXPECT_GT(sim.metrics().fanout.bytes_delivered, 0u);
}

TEST(SyncSimulator, DoneRoundRecorded) {
  class DoneAfter3 final : public Process {
   public:
    using Process::Process;
    void on_round(RoundInfo round, std::span<const Message>, std::vector<Outgoing>&) override {
      done_ = done_ || round.local >= 3;
    }
    [[nodiscard]] bool done() const override { return done_; }

   private:
    bool done_ = false;
  };
  SyncSimulator sim;
  sim.add_process(std::make_unique<DoneAfter3>(4));
  EXPECT_TRUE(sim.run_until_all_correct_done(10));
  ASSERT_TRUE(sim.metrics().done_round.contains(4));
  EXPECT_EQ(sim.metrics().done_round.at(4), 3);
  EXPECT_EQ(sim.round(), 3);
}

TEST(SyncSimulator, RunUntilStopsEarly) {
  SyncSimulator sim;
  sim.add_process(std::make_unique<ScriptedProcess>(1));
  const bool hit = sim.run_until([&] { return sim.round() >= 5; }, 100);
  EXPECT_TRUE(hit);
  EXPECT_EQ(sim.round(), 5);
}

TEST(SyncSimulator, TraceRecordsRoutedMessages) {
  SyncSimulator sim;
  sim.enable_trace();
  auto a = std::make_unique<ScriptedProcess>(1);
  a->send_in_round(1, Outgoing{std::nullopt, text_msg(MsgKind::kPresent, 0)});
  a->send_in_round(2, Outgoing{NodeId{2}, text_msg(MsgKind::kAck, 0)});
  sim.add_process(std::move(a));
  sim.add_process(std::make_unique<ScriptedProcess>(2));
  sim.run_rounds(3);
  ASSERT_EQ(sim.trace().size(), 2u);
  EXPECT_EQ(sim.trace()[0].round, 1);
  EXPECT_FALSE(sim.trace()[0].to.has_value());
  EXPECT_EQ(sim.trace()[1].round, 2);
  EXPECT_EQ(sim.trace()[1].to, NodeId{2});
  EXPECT_EQ(sim.trace()[1].msg.sender, 1u);
  const std::string dump = sim.dump_trace();
  EXPECT_NE(dump.find("present"), std::string::npos);
  EXPECT_NE(dump.find("ack"), std::string::npos);
  EXPECT_TRUE(sim.dump_trace(Round{2}).find("present") == std::string::npos);
}

TEST(SyncSimulator, TraceRingBufferCapsMemory) {
  SyncSimulator sim;
  sim.enable_trace(/*capacity=*/4);
  auto a = std::make_unique<ScriptedProcess>(1);
  for (Round r = 1; r <= 10; ++r) {
    a->send_in_round(r, Outgoing{std::nullopt, text_msg(MsgKind::kPresent, double(r))});
  }
  sim.add_process(std::move(a));
  sim.run_rounds(10);
  EXPECT_EQ(sim.trace().size(), 4u);
  EXPECT_EQ(sim.trace().front().round, 7);
}

TEST(SyncSimulator, DelayHookPostponesDelivery) {
  SyncSimulator sim;
  sim.set_delay_hook([](NodeId, NodeId, const Message& m, Round) -> Round {
    return m.kind == MsgKind::kAck ? 2 : 0;
  });
  auto a = std::make_unique<ScriptedProcess>(1);
  a->send_in_round(1, Outgoing{NodeId{2}, text_msg(MsgKind::kAck, 0)});      // delayed by 2
  a->send_in_round(1, Outgoing{NodeId{2}, text_msg(MsgKind::kPresent, 0)});  // on time
  auto b = std::make_unique<ScriptedProcess>(2);
  auto* pb = b.get();
  sim.add_process(std::move(a));
  sim.add_process(std::move(b));
  sim.run_rounds(5);
  ASSERT_EQ(pb->received_[2].size(), 1u);
  EXPECT_EQ(pb->received_[2][0].kind, MsgKind::kPresent);
  ASSERT_EQ(pb->received_[4].size(), 1u) << "delayed by 2 extra rounds: 1 + 1 + 2 = round 4";
  EXPECT_EQ(pb->received_[4][0].kind, MsgKind::kAck);
}

TEST(SyncSimulator, DelayedMessageToRemovedNodeIsDropped) {
  SyncSimulator sim;
  sim.set_delay_hook([](NodeId, NodeId, const Message&, Round) -> Round { return 3; });
  auto a = std::make_unique<ScriptedProcess>(1);
  a->send_in_round(1, Outgoing{NodeId{2}, text_msg(MsgKind::kPresent, 0)});
  sim.add_process(std::move(a));
  sim.add_process(std::make_unique<ScriptedProcess>(2));
  sim.step();
  sim.remove_process(2);
  EXPECT_NO_FATAL_FAILURE(sim.run_rounds(5));
}

TEST(SyncSimulator, EngineFuzzRandomChurnAndTrafficNeverBreaks) {
  // Engine robustness: random joins, leaves, broadcasts, and unicasts to
  // possibly-absent targets across 300 rounds must never crash, deliver to
  // dead nodes, or corrupt bookkeeping. Deterministic per seed.
  class Chatterbox final : public Process {
   public:
    Chatterbox(NodeId id, Rng rng) : Process(id), rng_(rng) {}
    void on_round(RoundInfo, std::span<const Message> inbox,
                  std::vector<Outgoing>& out) override {
      received_total += inbox.size();
      if (rng_.chance(0.7)) {
        Message m;
        m.kind = static_cast<MsgKind>(rng_.below(16));
        m.value = Value::real(rng_.uniform(-1, 1));
        broadcast(out, m);
      }
      if (rng_.chance(0.3)) {
        Message m;
        m.kind = MsgKind::kAck;
        unicast(out, 1 + rng_.below(2000), m);  // target may not exist
      }
    }
    std::size_t received_total = 0;

   private:
    Rng rng_;
  };

  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    SyncSimulator sim;
    Rng rng(seed);
    NodeId next_id = 1;
    std::vector<NodeId> live;
    std::size_t max_members = 0;
    for (int i = 0; i < 5; ++i) {
      live.push_back(next_id);
      sim.add_process(std::make_unique<Chatterbox>(next_id++, rng.fork()));
    }
    for (int round = 0; round < 300; ++round) {
      if (rng.chance(0.1)) {
        live.push_back(next_id);
        sim.add_process(std::make_unique<Chatterbox>(next_id++, rng.fork()));
      }
      if (live.size() > 3 && rng.chance(0.08)) {
        const std::size_t victim = rng.below(live.size());
        sim.remove_process(live[victim]);
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(victim));
      }
      max_members = std::max(max_members, live.size());
      ASSERT_NO_FATAL_FAILURE(sim.step()) << "seed=" << seed << " round=" << round;
    }
    sim.step();  // settle removals/joins issued in the final loop iteration
    EXPECT_EQ(sim.member_count(), live.size()) << seed;
    EXPECT_EQ(sim.round(), 301) << seed;
    EXPECT_GT(sim.metrics().messages.total_delivered(), 0u);
    // sent = outgoing messages; a broadcast reaches at most every member, so
    // deliveries can exceed sends but never sent × peak membership.
    EXPECT_LE(sim.metrics().messages.total_delivered(),
              sim.metrics().messages.total_sent() * max_members);
  }
}

TEST(SyncSimulator, AddDuplicateIdThrows) {
  SyncSimulator sim;
  sim.add_process(std::make_unique<ScriptedProcess>(1));
  // Live duplicate: rejected immediately, not at the next step().
  EXPECT_THROW(sim.add_process(std::make_unique<ScriptedProcess>(1)), std::invalid_argument);
  sim.step();
  // Still a duplicate after the join took effect.
  EXPECT_THROW(sim.add_process(std::make_unique<ScriptedProcess>(1)), std::invalid_argument);
  // Queued duplicate: two adds of the same id before any step.
  sim.add_process(std::make_unique<ScriptedProcess>(2));
  EXPECT_THROW(sim.add_process(std::make_unique<ScriptedProcess>(2)), std::invalid_argument);
  EXPECT_THROW(sim.add_process(nullptr), std::invalid_argument);
}

TEST(SyncSimulator, ReAddAfterRemoveSameRoundAllowed) {
  SyncSimulator sim;
  sim.add_process(std::make_unique<ScriptedProcess>(1));
  sim.add_process(std::make_unique<ScriptedProcess>(2));
  sim.step();
  // Removal queued this round frees the id for an incoming replacement.
  sim.remove_process(2);
  auto fresh = std::make_unique<ScriptedProcess>(2);
  auto* pfresh = fresh.get();
  EXPECT_NO_THROW(sim.add_process(std::move(fresh)));
  sim.run_rounds(2);
  EXPECT_EQ(sim.member_count(), 2u);
  EXPECT_EQ(sim.find(2), pfresh);
}

TEST(SyncSimulator, DelayedMessageNotResurrectedForReusedId) {
  // A message delayed in flight to node 2 must die with node 2's removal —
  // it must NOT be delivered to a NEW process that later re-uses id 2.
  SyncSimulator sim;
  sim.set_delay_hook([](NodeId, NodeId, const Message&, Round) -> Round { return 3; });
  auto a = std::make_unique<ScriptedProcess>(1);
  a->send_in_round(1, Outgoing{NodeId{2}, text_msg(MsgKind::kPresent, 7)});
  sim.add_process(std::move(a));
  sim.add_process(std::make_unique<ScriptedProcess>(2));
  sim.step();  // round 1: send routed, due in round 1 + 1 + 3 = 5
  sim.remove_process(2);
  sim.step();  // round 2: removal takes effect, in-flight message purged
  auto reborn = std::make_unique<ScriptedProcess>(2);
  auto* preborn = reborn.get();
  sim.add_process(std::move(reborn));
  sim.run_rounds(5);  // runs through the old due round
  for (const auto& [round, inbox] : preborn->received_) {
    EXPECT_TRUE(inbox.empty()) << "stale delayed message resurrected in local round " << round;
  }
}

TEST(SyncSimulator, MemberIdsSorted) {
  SyncSimulator sim;
  sim.add_process(std::make_unique<ScriptedProcess>(30));
  sim.add_process(std::make_unique<ScriptedProcess>(10));
  sim.add_process(std::make_unique<ScriptedProcess>(20));
  sim.step();
  EXPECT_EQ(sim.member_ids(), (std::vector<NodeId>{10, 20, 30}));
}


// ------------------------------------------------------------ split round --
// step() is begin_round() + finish_round({}); a distributed worker is a
// SyncSimulator holding one slice of the ids that runs the two halves with
// its peers' sends in between.

using DeliveryLog = std::map<NodeId, std::vector<std::pair<Round, Message>>>;

/// Random traffic, deterministic per (seed, id): broadcasts from a small
/// content pool (so identical broadcasts recur), explicit repeats of the
/// round's first broadcast, and unicasts to ids that may be absent. Logs
/// every delivery into a log that outlives the process.
class Chatter final : public Process {
 public:
  Chatter(NodeId id, std::uint64_t seed, NodeId max_target, DeliveryLog& log)
      : Process(id), rng_(seed * 7919 + id), max_target_(max_target), log_(log[id]) {}

  void on_round(RoundInfo round, std::span<const Message> inbox,
                std::vector<Outgoing>& out) override {
    for (const Message& msg : inbox) log_.emplace_back(round.global, msg);
    const auto pick = [&] {
      Message m;
      m.kind = static_cast<MsgKind>(rng_.below(3));
      m.value = Value::real(static_cast<double>(rng_.below(3)));
      return m;
    };
    if (rng_.chance(0.8)) {
      const Message first = pick();
      broadcast(out, first);
      if (rng_.chance(0.3)) broadcast(out, pick());
      if (rng_.chance(0.3)) broadcast(out, first);
    }
    if (rng_.chance(0.4)) unicast(out, 1 + rng_.below(max_target_), pick());
  }


 private:
  Rng rng_;
  NodeId max_target_;
  std::vector<std::pair<Round, Message>>& log_;
};

/// Chaos drop/dup/delay in rounds 3-7.
std::shared_ptr<ChaosSchedule> lossy_schedule() {
  ChaosPhase phase;
  phase.first_round = 3;
  phase.last_round = 7;
  phase.drop = 0.15;
  phase.duplicate = 0.15;
  phase.delay = DelaySpec{0.15, 2};
  return std::make_shared<ChaosSchedule>(ChaosPlan{{phase}}, 99);
}

/// Sum of per-engine counters, the way the distributed coordinator sums its
/// workers', rendered for one-line comparison.
std::string summed_exposition(std::initializer_list<const SyncSimulator*> sims) {
  Metrics sum;
  for (const SyncSimulator* sim : sims) {
    for (std::size_t k = 0; k < MessageCounters::kKinds; ++k) {
      sum.messages.sent[k] += sim->metrics().messages.sent[k];
      sum.messages.delivered[k] += sim->metrics().messages.delivered[k];
    }
    sum.fanout += sim->metrics().fanout;
    sum.rounds_executed = std::max(sum.rounds_executed, sim->metrics().rounds_executed);
    sum.done_round.insert(sim->metrics().done_round.begin(), sim->metrics().done_round.end());
  }
  return prometheus_exposition(sum);
}

std::vector<SyncSimulator::Send> local_sends(const SyncSimulator& sim) {
  std::vector<SyncSimulator::Send> out;
  sim.for_each_local_send([&](const SyncSimulator::Send& send) { out.push_back(send); });
  return out;
}

/// One round of two slices: both step, then each merges the other's sends.
void exchange_round(SyncSimulator& a, SyncSimulator& b) {
  a.begin_round();
  b.begin_round();
  const std::vector<std::vector<SyncSimulator::Send>> to_a{local_sends(b)};
  const std::vector<std::vector<SyncSimulator::Send>> to_b{local_sends(a)};
  a.finish_round(to_a);
  b.finish_round(to_b);
}

TEST(SplitRound, StepEqualsBeginThenFinish) {
  // Same run twice — chaos, recorder, a join and a leave — once through
  // step() and once through the two halves: identical raw traces and
  // deliveries.
  DeliveryLog logs[2];
  std::string raw[2];
  for (int split = 0; split < 2; ++split) {
    SyncSimulator sim;
    sim.set_threads(2);
    sim.set_chaos(lossy_schedule());
    auto recorder = std::make_shared<TraceRecorder>(TraceEngine::kSync);
    sim.set_trace_recorder(recorder);
    for (NodeId id = 1; id <= 6; ++id) {
      sim.add_process(std::make_unique<Chatter>(id, 5, 8, logs[split]));
    }
    for (Round r = 1; r <= 12; ++r) {
      if (r == 5) sim.add_process(std::make_unique<Chatter>(7, 5, 8, logs[split]));
      if (r == 8) sim.remove_process(3);
      if (split == 0) {
        sim.step();
      } else {
        sim.begin_round();
        sim.finish_round({});
      }
    }
    raw[split] = recorder->jsonl();
  }
  EXPECT_EQ(raw[0], raw[1]);
  EXPECT_EQ(logs[0], logs[1]);
}

TEST(SplitRound, TwoSlicesExchangingLocalSendsMatchOneSimulator) {
  // Odd ids in one slice (merged on three lanes, so lane run ranges
  // interleave remote senders), even ids in the other; a join and a leave;
  // chaos drop/dup/delay. Deliveries, the raw trace and the summed counters
  // equal the single simulator's.
  constexpr NodeId kMaxTarget = 12;
  SyncSimulator whole;
  SyncSimulator odd;
  SyncSimulator even;
  odd.set_threads(3);
  whole.set_chaos(lossy_schedule());
  odd.set_chaos(lossy_schedule());
  even.set_chaos(lossy_schedule());
  auto whole_trace = std::make_shared<TraceRecorder>(TraceEngine::kSync);
  auto slice_trace = std::make_shared<TraceRecorder>(TraceEngine::kSync);
  whole.set_trace_recorder(whole_trace);
  odd.set_trace_recorder(slice_trace);
  even.set_trace_recorder(slice_trace);

  DeliveryLog whole_log;
  DeliveryLog slice_log;
  const auto admit = [&](NodeId id) {
    whole.add_process(std::make_unique<Chatter>(id, 17, kMaxTarget, whole_log));
    SyncSimulator& slice = id % 2 == 1 ? odd : even;
    slice.add_process(std::make_unique<Chatter>(id, 17, kMaxTarget, slice_log));
  };
  for (NodeId id = 1; id <= 9; ++id) admit(id);
  for (Round r = 1; r <= 14; ++r) {
    if (r == 4) admit(10);
    if (r == 6) {
      whole.remove_process(5);
      odd.remove_process(5);
    }
    whole.step();
    exchange_round(odd, even);
  }

  EXPECT_EQ(slice_log, whole_log);
  ASSERT_GT(whole.metrics().fanout.dedup_hits, 0u);
  EXPECT_EQ(slice_trace->jsonl(), whole_trace->jsonl());
  EXPECT_EQ(summed_exposition({&odd, &even}), summed_exposition({&whole}));
}

TEST(SplitRound, RepeatedBroadcastIsOneDedupHitAtTheSendersSlice) {
  // Chaos-free round: sender 1 broadcasts X twice. Both slices suppress the
  // repeat in their broadcast lane, but only the sender's slice counts it,
  // so the counters sum to the single simulator's.
  SyncSimulator whole;
  SyncSimulator left;   // hosts the sender
  SyncSimulator right;
  std::vector<ScriptedProcess*> receivers;
  for (SyncSimulator* sim : {&whole, &left}) {
    auto sender = std::make_unique<ScriptedProcess>(1);
    sender->send_in_round(1, Outgoing{std::nullopt, text_msg(MsgKind::kPresent, 7)});
    sender->send_in_round(1, Outgoing{std::nullopt, text_msg(MsgKind::kPresent, 7)});
    sim->add_process(std::move(sender));
  }
  for (SyncSimulator* sim : {&whole, &right}) {
    auto receiver = std::make_unique<ScriptedProcess>(2);
    receivers.push_back(receiver.get());
    sim->add_process(std::move(receiver));
  }
  for (int r = 0; r < 2; ++r) {
    whole.step();
    exchange_round(left, right);
  }
  EXPECT_EQ(receivers[0]->received_[2].size(), 1u);
  EXPECT_EQ(receivers[1]->received_[2], receivers[0]->received_[2]);
  EXPECT_EQ(whole.metrics().fanout.dedup_hits, 1u);
  EXPECT_EQ(left.metrics().fanout.dedup_hits, 1u);
  EXPECT_EQ(right.metrics().fanout.dedup_hits, 0u);
  EXPECT_EQ(summed_exposition({&left, &right}), summed_exposition({&whole}));
}

TEST(SplitRound, SliceReusesAnIdQueuedForRemoval) {
  // A slice engine follows add_process's rule for an id whose removal is
  // queued: the replacement joins cleanly and hears remote broadcasts from
  // its first round on.
  SyncSimulator local;
  SyncSimulator remote;
  local.add_process(std::make_unique<ScriptedProcess>(2));
  auto speaker = std::make_unique<ScriptedProcess>(1);
  for (Round r = 1; r <= 4; ++r) {
    speaker->send_in_round(r, Outgoing{std::nullopt, text_msg(MsgKind::kPresent, r)});
  }
  remote.add_process(std::move(speaker));
  exchange_round(local, remote);
  local.remove_process(2);
  auto fresh = std::make_unique<ScriptedProcess>(2);
  ScriptedProcess* pfresh = fresh.get();
  EXPECT_NO_THROW(local.add_process(std::move(fresh)));
  exchange_round(local, remote);
  exchange_round(local, remote);
  EXPECT_EQ(local.find(2), pfresh);
  EXPECT_EQ(local.member_count(), 1u);
  EXPECT_TRUE(pfresh->received_[1].empty()) << "a joiner gets no lane in its first round";
  ASSERT_EQ(pfresh->received_[2].size(), 1u);
  EXPECT_EQ(pfresh->received_[2][0].sender, 1u);
}

}  // namespace
}  // namespace idonly
