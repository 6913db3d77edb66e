// Deterministic parallel round engine tests: for every thread count, the
// observable execution — delivery order, duplicate suppression, chaos
// verdicts, metrics, flight-recorder traces — must be bit-identical to the
// sequential engine. The two-phase pipeline fills private outbox slabs in
// parallel and then merges per-worker destination lanes concurrently, with
// order reconstructed from precomputed deterministic keys — so these tests
// compare full (not just canonical) trace exports byte-for-byte, and probe
// the lane partitioner's edges: fewer members than threads, all traffic
// hot-spotting one destination slot, and churn while lanes are live.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/chaos.hpp"
#include "common/trace.hpp"
#include "core/consensus.hpp"
#include "net/parallel_exec.hpp"
#include "net/sync_simulator.hpp"

namespace idonly {
namespace {

// ------------------------------------------------------- ParallelExecutor --

TEST(ParallelExecutor, RunsEveryIndexExactlyOnce) {
  ParallelExecutor pool(4);
  EXPECT_EQ(pool.thread_count(), 4u);
  std::vector<std::atomic<int>> hits(257);
  for (auto& h : hits) h.store(0);
  pool.run(hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelExecutor, ReusableAcrossBatchesAndEmptyBatch) {
  ParallelExecutor pool(3);
  pool.run(0, [](std::size_t) { FAIL() << "empty batch must not invoke fn"; });
  std::atomic<int> total{0};
  for (int batch = 0; batch < 50; ++batch) {
    pool.run(7, [&](std::size_t) { total.fetch_add(1); });
  }
  EXPECT_EQ(total.load(), 350);
}

TEST(ParallelExecutor, PropagatesFirstWorkerException) {
  ParallelExecutor pool(4);
  EXPECT_THROW(
      pool.run(64,
               [](std::size_t i) {
                 if (i == 13) throw std::runtime_error("boom");
               }),
      std::runtime_error);
  // The pool must survive a throwing batch.
  std::atomic<int> total{0};
  pool.run(8, [&](std::size_t) { total.fetch_add(1); });
  EXPECT_EQ(total.load(), 8);
}

TEST(ParallelExecutor, SingleThreadRunsInline) {
  ParallelExecutor pool(1);
  EXPECT_EQ(pool.thread_count(), 1u);
  int total = 0;  // no atomics needed: everything runs on the caller
  pool.run(5, [&](std::size_t) { total += 1; });
  EXPECT_EQ(total, 5);
}

// ---------------------------------------------------- sync engine fixture --

/// Broadcasts a value derived from (id, round) every round, re-sends one
/// message as an exact duplicate (exercising same-round suppression), and
/// records everything it receives.
class ChatterProcess final : public Process {
 public:
  using Process::Process;

  void on_round(RoundInfo round, std::span<const Message> inbox,
                std::vector<Outgoing>& out) override {
    std::ostringstream line;
    line << "r" << round.global << ":";
    for (const Message& m : inbox) line << " " << m.sender << "/" << m.value.to_string();
    log.push_back(line.str());
    Message m;
    m.kind = MsgKind::kEcho;
    m.value = Value::real(static_cast<double>(id()) * 1000 + static_cast<double>(round.global));
    broadcast(out, m);
    broadcast(out, m);  // exact duplicate — must be suppressed at every receiver
    Message ping;
    ping.kind = MsgKind::kAck;
    ping.value = Value::real(static_cast<double>(round.global));
    unicast(out, (id() % 5) + 1, ping);  // cross-traffic to a fixed peer
  }
  [[nodiscard]] bool done() const override { return false; }

  std::vector<std::string> log;
};

/// Digest variant of ChatterProcess for big-n sweeps: same traffic shape
/// (double broadcast + unicast cross-traffic) but the inbox is folded into
/// one order-sensitive FNV line per round, so an 800-node run stays cheap to
/// hold and compare.
class DigestChatterProcess final : public Process {
 public:
  using Process::Process;

  void on_round(RoundInfo round, std::span<const Message> inbox,
                std::vector<Outgoing>& out) override {
    std::uint64_t h = 1469598103934665603ull;
    const auto mix = [&h](std::uint64_t v) {
      h ^= v;
      h *= 1099511628211ull;
    };
    for (const Message& m : inbox) {
      mix(m.sender);
      mix(std::hash<std::string>{}(m.value.to_string()));
    }
    std::ostringstream line;
    line << "r" << round.global << ":" << inbox.size() << ":" << h;
    log.push_back(line.str());
    Message m;
    m.kind = MsgKind::kEcho;
    m.value = Value::real(static_cast<double>(id()) * 1000 + static_cast<double>(round.global));
    broadcast(out, m);
    broadcast(out, m);  // exact duplicate — must be suppressed at every receiver
    Message ping;
    ping.kind = MsgKind::kAck;
    ping.value = Value::real(static_cast<double>(round.global));
    unicast(out, (id() % 5) + 1, ping);
  }
  [[nodiscard]] bool done() const override { return false; }

  std::vector<std::string> log;
};

/// All cross-traffic aimed at one receiver: every node fires three unicasts
/// (one an exact duplicate) at node 1 each round, and node 1 broadcasts an
/// ack so everyone still has an inbox. The lane owning node 1's slot absorbs
/// nearly every deposit — the worst-case partition skew.
class HotspotProcess final : public Process {
 public:
  using Process::Process;

  void on_round(RoundInfo round, std::span<const Message> inbox,
                std::vector<Outgoing>& out) override {
    std::ostringstream line;
    line << "r" << round.global << ":";
    for (const Message& m : inbox) line << " " << m.sender << "/" << m.value.to_string();
    log.push_back(line.str());
    Message m;
    m.kind = MsgKind::kEcho;
    m.value = Value::real(static_cast<double>(id()) * 1000 + static_cast<double>(round.global));
    unicast(out, 1, m);
    unicast(out, 1, m);  // exact duplicate into the hot mailbox
    m.value = Value::real(static_cast<double>(id()) * 1000 + static_cast<double>(round.global) + 0.5);
    unicast(out, 1, m);
    if (id() == 1) {
      Message ack;
      ack.kind = MsgKind::kAck;
      ack.value = Value::real(static_cast<double>(round.global));
      broadcast(out, ack);
    }
  }
  [[nodiscard]] bool done() const override { return false; }

  std::vector<std::string> log;
};

/// Two-faced chatter: besides its own broadcast, each node tells odd ids one
/// value and even ids another through runs of equal unicasts (the shape the
/// two-faced adversary gives its equivocation), and unicasts its broadcast's
/// content to a fixed peer as well (a private twin of a lane entry).
class TwoFacedChatterProcess final : public Process {
 public:
  using Process::Process;
  static constexpr NodeId kPeers = 16;  // covers the churn scenario's ids

  void on_round(RoundInfo round, std::span<const Message> inbox,
                std::vector<Outgoing>& out) override {
    std::ostringstream line;
    line << "r" << round.global << ":";
    for (const Message& m : inbox) {
      line << " " << m.sender << "/" << static_cast<int>(m.kind) << "/" << m.value.to_string();
    }
    log.push_back(line.str());
    Message m;
    m.kind = MsgKind::kEcho;
    m.value = Value::real(static_cast<double>(id()) * 1000 + static_cast<double>(round.global));
    broadcast(out, m);
    unicast(out, (id() % 5) + 1, m);
    for (const NodeId parity : {NodeId{1}, NodeId{0}}) {
      Message face;
      face.kind = MsgKind::kInput;
      face.value = Value::real(static_cast<double>(parity));
      for (NodeId to = 1; to <= kPeers; ++to) {
        if (to % 2 == parity) unicast(out, to, face);
      }
    }
  }
  [[nodiscard]] bool done() const override { return false; }

  std::vector<std::string> log;
};

struct SyncRunResult {
  std::map<NodeId, std::vector<std::string>> logs;
  std::vector<NodeId> member_ids;
  std::uint64_t dedup_hits = 0;
  std::uint64_t deliveries = 0;
  // Every Metrics counter the round engine feeds: sent and delivered per
  // kind, then the fan-out deliveries, unique payloads, dedup hits, bytes
  // and slab sends.
  std::vector<std::uint64_t> counters;
  std::string full_trace;
  std::string canonical_trace;
  std::string chaos_counters;

  friend bool operator==(const SyncRunResult&, const SyncRunResult&) = default;
};

/// Scenario knobs: n starting nodes, churn at the given rounds (node n+1
/// joins, node 2 leaves, node 2's id is re-used), chaos burst from round 2.
/// `with_recorder=false` skips the flight recorder for big-n runs (the
/// chaos schedule's per-phase counters still cross-check the verdicts).
struct ChurnSpec {
  std::size_t n = 12;
  Round rounds = 12;
  Round join_round = 4;
  Round leave_round = 6;
  Round reuse_round = 9;
  bool with_recorder = true;
};

template <class P = ChatterProcess>
SyncRunResult run_churn_scenario(unsigned threads, const ChurnSpec& spec) {
  SyncSimulator sim;
  sim.set_threads(threads);
  std::shared_ptr<TraceRecorder> recorder;
  if (spec.with_recorder) {
    recorder = std::make_shared<TraceRecorder>(TraceEngine::kSync);
    sim.set_trace_recorder(recorder);
  }
  ChaosPhase burst;
  burst.first_round = 2;
  burst.last_round = 10;
  burst.drop = 0.10;
  burst.duplicate = 0.05;
  burst.delay.probability = 0.05;
  burst.delay.max_extra_rounds = 2;
  auto chaos = std::make_shared<ChaosSchedule>(ChaosPlan{{burst}}, /*seed=*/0xC0FFEE);
  sim.set_chaos(chaos);

  SyncRunResult result;
  const auto harvest = [&](const P* p) {
    auto& slot = result.logs[p->id()];
    slot.insert(slot.end(), p->log.begin(), p->log.end());
  };

  std::vector<P*> procs;
  for (std::size_t i = 1; i <= spec.n; ++i) {
    auto p = std::make_unique<P>(static_cast<NodeId>(i));
    procs.push_back(p.get());
    sim.add_process(std::move(p));
  }
  for (Round r = 1; r <= spec.rounds; ++r) {
    if (r == spec.join_round) {
      auto p = std::make_unique<P>(static_cast<NodeId>(spec.n + 1));
      procs.push_back(p.get());
      sim.add_process(std::move(p));
    }
    if (r == spec.leave_round) {
      // The simulator destroys the leaver at the start of this step —
      // harvest its log and drop the pointer before it dangles.
      P* leaver = sim.get<P>(2);
      harvest(leaver);
      std::erase(procs, leaver);
      sim.remove_process(2);
    }
    if (r == spec.reuse_round) {
      auto p = std::make_unique<P>(2);
      procs.push_back(p.get());
      sim.add_process(std::move(p));
    }
    sim.step();
  }

  for (const P* p : procs) harvest(p);
  result.member_ids = sim.member_ids();
  const Metrics& metrics = sim.metrics();
  result.dedup_hits = metrics.fanout.dedup_hits;
  result.deliveries = metrics.fanout.deliveries;
  result.counters.assign(metrics.messages.sent.begin(), metrics.messages.sent.end());
  result.counters.insert(result.counters.end(), metrics.messages.delivered.begin(),
                         metrics.messages.delivered.end());
  result.counters.insert(result.counters.end(),
                         {metrics.fanout.deliveries, metrics.fanout.unique_payloads,
                          metrics.fanout.dedup_hits, metrics.fanout.bytes_delivered,
                          metrics.fanout.slab_sends});
  if (recorder) {
    result.full_trace = recorder->jsonl();
    result.canonical_trace = recorder->canonical_jsonl();
  }
  result.chaos_counters = chaos->counters().summary();
  return result;
}

void expect_identical_sweep(const SyncRunResult& reference, const SyncRunResult& sweep,
                            unsigned threads) {
  EXPECT_EQ(sweep.logs, reference.logs) << "threads=" << threads;
  EXPECT_EQ(sweep.member_ids, reference.member_ids) << "threads=" << threads;
  EXPECT_EQ(sweep.dedup_hits, reference.dedup_hits) << "threads=" << threads;
  EXPECT_EQ(sweep.deliveries, reference.deliveries) << "threads=" << threads;
  EXPECT_EQ(sweep.counters, reference.counters) << "threads=" << threads;
  EXPECT_EQ(sweep.canonical_trace, reference.canonical_trace) << "threads=" << threads;
  EXPECT_EQ(sweep.full_trace, reference.full_trace) << "threads=" << threads;
  EXPECT_EQ(sweep.chaos_counters, reference.chaos_counters) << "threads=" << threads;
}

TEST(ParallelSyncEngine, ChurnChaosRunIdenticalAcrossThreadCounts) {
  const SyncRunResult reference = run_churn_scenario(/*threads=*/1, ChurnSpec{.n = 12});
  EXPECT_GT(reference.dedup_hits, 0u) << "scenario must exercise duplicate suppression";
  for (const unsigned threads : {2U, 8U}) {
    expect_identical_sweep(reference, run_churn_scenario(threads, ChurnSpec{.n = 12}), threads);
  }
}

TEST(ParallelSyncEngine, LargeChurnChaosSweepIdenticalAcrossThreadCounts) {
  // n=800 with churn mid-sweep: hundreds of thousands of chaos-coined
  // deposits per round, so every lane boundary and per-lane counter is
  // exercised at scale. Digest processes + no flight recorder keep the
  // comparison cheap; the chaos canonical trace still pins every verdict.
  const ChurnSpec spec{.n = 800,
                       .rounds = 4,
                       .join_round = 2,
                       .leave_round = 3,
                       .reuse_round = 4,
                       .with_recorder = false};
  const SyncRunResult reference = run_churn_scenario<DigestChatterProcess>(/*threads=*/1, spec);
  EXPECT_GT(reference.dedup_hits, 0u);
  EXPECT_EQ(reference.chaos_counters.find("drop=0 "), std::string::npos)
      << "the burst must drop messages: " << reference.chaos_counters;
  for (const unsigned threads : {2U, 8U}) {
    expect_identical_sweep(reference, run_churn_scenario<DigestChatterProcess>(threads, spec),
                           threads);
  }
}

TEST(ParallelSyncEngine, TwoFacedChaosChurnIdenticalAcrossThreadCounts) {
  // Private unicast runs and lane masks in the same inboxes — drop, dup and
  // delay on top of two-faced traffic, with churn — at every thread count,
  // with the flight recorder and without. The recorder changes which rounds
  // walk links, so counters are compared per recorder mode; the inboxes
  // every process saw must not depend on it.
  SyncRunResult recorded;
  for (const bool with_recorder : {true, false}) {
    const ChurnSpec spec{.n = 12, .with_recorder = with_recorder};
    const SyncRunResult reference =
        run_churn_scenario<TwoFacedChatterProcess>(/*threads=*/1, spec);
    EXPECT_GT(reference.dedup_hits, 0u);
    EXPECT_EQ(reference.chaos_counters.find("drop=0 "), std::string::npos)
        << "the burst must drop messages: " << reference.chaos_counters;
    for (const unsigned threads : {2U, 3U, 8U}) {
      expect_identical_sweep(
          reference, run_churn_scenario<TwoFacedChatterProcess>(threads, spec), threads);
    }
    if (with_recorder) {
      EXPECT_FALSE(reference.full_trace.empty());
      recorded = reference;
    } else {
      EXPECT_EQ(reference.logs, recorded.logs) << "the recorder must not change any inbox";
    }
  }
}

TEST(ParallelSyncEngine, FewerMembersThanThreadsIdenticalAcrossThreadCounts) {
  // n=2 under threads=8: the lane count must clamp to the member count and
  // still reproduce the sequential run, including through churn down to a
  // single survivor mid-run.
  const ChurnSpec spec{.n = 2};
  const SyncRunResult reference = run_churn_scenario(/*threads=*/1, spec);
  for (const unsigned threads : {2U, 8U}) {
    expect_identical_sweep(reference, run_churn_scenario(threads, spec), threads);
  }
}

TEST(ParallelSyncEngine, SingleDestinationHotspotIdenticalAcrossThreadCounts) {
  // Every message aimed at node 1: one lane owns essentially all deposits
  // while the others idle, with churn rebalancing the partition mid-sweep.
  const ChurnSpec spec{.n = 64, .rounds = 8, .join_round = 3, .leave_round = 5, .reuse_round = 7};
  const SyncRunResult reference = run_churn_scenario<HotspotProcess>(/*threads=*/1, spec);
  EXPECT_GT(reference.dedup_hits, 0u) << "duplicate unicasts must collapse in the hot mailbox";
  for (const unsigned threads : {2U, 8U}) {
    expect_identical_sweep(reference, run_churn_scenario<HotspotProcess>(threads, spec), threads);
  }
}

TEST(ParallelSyncEngine, ConsensusDecisionsIdenticalAcrossThreadCounts) {
  const auto run = [](unsigned threads) {
    SyncSimulator sim;
    sim.set_threads(threads);
    ChaosPhase burst;
    burst.first_round = 2;
    burst.last_round = 8;
    burst.drop = 0.15;
    sim.set_chaos(std::make_shared<ChaosSchedule>(ChaosPlan{{burst}}, /*seed=*/7));
    for (std::size_t i = 1; i <= 9; ++i) {
      sim.add_process(std::make_unique<ConsensusProcess>(
          static_cast<NodeId>(i), Value::real(static_cast<double>(i % 2))));
    }
    const bool done = sim.run_until_all_correct_done(500);
    std::vector<std::pair<Round, Value>> outcome;
    for (NodeId id : sim.member_ids()) {
      const auto* p = dynamic_cast<const ConsensusProcess*>(
          static_cast<const SyncSimulator&>(sim).find(id));
      outcome.emplace_back(sim.metrics().done_round.at(id),
                           p->output().value_or(Value::bot()));
    }
    return std::tuple(done, sim.round(), outcome);
  };
  const auto reference = run(1);
  EXPECT_TRUE(std::get<0>(reference));
  for (const unsigned threads : {2U, 8U}) {
    EXPECT_EQ(run(threads), reference) << "threads=" << threads;
  }
}

TEST(ParallelSyncEngine, SetThreadsMidRunKeepsDeterminism) {
  const auto run = [](bool flip) {
    SyncSimulator sim;
    if (!flip) sim.set_threads(4);
    std::vector<ChatterProcess*> procs;
    for (std::size_t i = 1; i <= 6; ++i) {
      auto p = std::make_unique<ChatterProcess>(static_cast<NodeId>(i));
      procs.push_back(p.get());
      sim.add_process(std::move(p));
    }
    for (Round r = 1; r <= 8; ++r) {
      if (flip && r == 4) sim.set_threads(4);  // engine swap between rounds
      sim.step();
    }
    std::map<NodeId, std::vector<std::string>> logs;
    for (const ChatterProcess* p : procs) logs[p->id()] = p->log;
    return logs;
  };
  EXPECT_EQ(run(true), run(false));
}

}  // namespace
}  // namespace idonly
