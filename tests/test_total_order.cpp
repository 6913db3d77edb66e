// Dynamic total ordering (Alg. 6, Theorem 6): chain-prefix and chain-growth
// under event submission, Byzantine presence, and join/leave churn.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "adversary/strategies.hpp"
#include "core/total_order.hpp"
#include "net/sync_simulator.hpp"

namespace idonly {
namespace {

struct Network {
  SyncSimulator sim;
  std::vector<NodeId> correct_ids;

  TotalOrderProcess* node(NodeId id) { return sim.get<TotalOrderProcess>(id); }

  /// Checks chain-prefix over all correct nodes' current chains.
  void expect_prefix_consistent(const char* where) {
    for (std::size_t i = 0; i < correct_ids.size(); ++i) {
      for (std::size_t j = i + 1; j < correct_ids.size(); ++j) {
        auto* a = node(correct_ids[i]);
        auto* b = node(correct_ids[j]);
        if (a == nullptr || b == nullptr) continue;
        const auto& ca = a->chain();
        const auto& cb = b->chain();
        const std::size_t k = std::min(ca.size(), cb.size());
        for (std::size_t e = 0; e < k; ++e) {
          ASSERT_EQ(ca[e], cb[e]) << where << ": chains diverge at entry " << e << " between "
                                  << correct_ids[i] << " and " << correct_ids[j];
        }
      }
    }
  }
};

Network make_founders(std::vector<NodeId> ids) {
  Network net;
  net.correct_ids = ids;
  for (NodeId id : ids) {
    net.sim.add_process(std::make_unique<TotalOrderProcess>(id, /*founder=*/true));
  }
  return net;
}

TEST(TotalOrder, FoundersAgreeOnRoundNumbers) {
  auto net = make_founders({11, 22, 33, 44});
  net.sim.run_rounds(6);
  const Round r = net.node(11)->protocol_round();
  EXPECT_GT(r, 0);
  for (NodeId id : net.correct_ids) EXPECT_EQ(net.node(id)->protocol_round(), r) << id;
}

TEST(TotalOrder, FoundersSeeEachOtherInMembership) {
  auto net = make_founders({11, 22, 33, 44});
  net.sim.run_rounds(4);
  for (NodeId id : net.correct_ids) {
    EXPECT_EQ(net.node(id)->membership().size(), 4u) << id;
  }
}

TEST(TotalOrder, SingleEventIsFinalizedEverywhere) {
  auto net = make_founders({11, 22, 33, 44});
  net.sim.run_rounds(3);
  net.node(22)->submit_event(3.5);
  // Finality lag: 5|S|/2 + 2 = 12 rounds after the instance, plus slack.
  net.sim.run_rounds(40);
  for (NodeId id : net.correct_ids) {
    const auto& chain = net.node(id)->chain();
    ASSERT_EQ(chain.size(), 1u) << id;
    EXPECT_EQ(chain[0].witness, 22u);
    EXPECT_DOUBLE_EQ(chain[0].event, 3.5);
  }
  net.expect_prefix_consistent("single event");
}

TEST(TotalOrder, ChainGrowthWithContinuousEvents) {
  auto net = make_founders({11, 22, 33, 44, 55});
  net.sim.run_rounds(3);
  for (int i = 0; i < 20; ++i) {
    net.node(11)->submit_event(100.0 + i);
    net.sim.run_rounds(1);
  }
  const std::size_t mid = net.node(22)->chain().size();
  net.sim.run_rounds(40);
  const std::size_t end = net.node(22)->chain().size();
  EXPECT_GT(end, mid);
  EXPECT_GE(end, 20u);
  net.expect_prefix_consistent("growth");
  // Events must appear in submission (round) order.
  const auto& chain = net.node(33)->chain();
  for (std::size_t i = 1; i < chain.size(); ++i) {
    EXPECT_LE(chain[i - 1].instance, chain[i].instance);
    if (chain[i - 1].witness == 11u && chain[i].witness == 11u) {
      EXPECT_LT(chain[i - 1].event, chain[i].event);
    }
  }
}

TEST(TotalOrder, ConcurrentEventsSameRoundBothOrdered) {
  auto net = make_founders({11, 22, 33, 44});
  net.sim.run_rounds(3);
  net.node(11)->submit_event(1.0);
  net.node(44)->submit_event(2.0);
  net.sim.run_rounds(40);
  for (NodeId id : net.correct_ids) {
    const auto& chain = net.node(id)->chain();
    ASSERT_EQ(chain.size(), 2u) << id;
    // Same instance; ties broken by witness id consistently.
    EXPECT_EQ(chain[0].instance, chain[1].instance);
    EXPECT_EQ(chain[0].witness, 11u);
    EXPECT_EQ(chain[1].witness, 44u);
  }
  net.expect_prefix_consistent("concurrent");
}

TEST(TotalOrder, PrefixHoldsWhileUnfinalized) {
  auto net = make_founders({11, 22, 33, 44});
  net.sim.run_rounds(3);
  for (int i = 0; i < 30; ++i) {
    net.node(33)->submit_event(double(i));
    net.sim.run_rounds(1);
    net.expect_prefix_consistent("rolling");
  }
}

TEST(TotalOrder, SilentByzantineDoesNotBlockFinality) {
  auto net = make_founders({11, 22, 33, 44, 55, 66, 77});
  net.sim.add_process(std::make_unique<SilentAdversary>(99));
  net.sim.run_rounds(3);
  net.node(11)->submit_event(5.0);
  net.sim.run_rounds(50);
  for (NodeId id : net.correct_ids) {
    ASSERT_EQ(net.node(id)->chain().size(), 1u) << id;
  }
  net.expect_prefix_consistent("byzantine-silent");
}

TEST(TotalOrder, NoiseByzantineCannotForgeEvents) {
  auto net = make_founders({11, 22, 33, 44, 55, 66, 77});
  AdversaryContext context{{11, 22, 33, 44, 55, 66, 77, 99}, {11, 22, 33, 44, 55, 66, 77}};
  net.sim.add_process(std::make_unique<RandomNoiseAdversary>(99, context, Rng(7)));
  net.sim.run_rounds(3);
  net.node(22)->submit_event(8.0);
  net.sim.run_rounds(60);
  net.expect_prefix_consistent("byzantine-noise");
  // Whatever junk 99 injected, correct nodes' chains contain the real event
  // and only entries witnessed by *members* — and at most one entry per
  // member per instance.
  const auto& chain = net.node(11)->chain();
  bool found = false;
  for (const auto& entry : chain) {
    if (entry.witness == 22u && entry.event == 8.0) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(TotalOrder, LateJoinerAdoptsRoundAndParticipates) {
  auto net = make_founders({11, 22, 33, 44});
  net.sim.run_rounds(8);
  const Round incumbent_round = net.node(11)->protocol_round();
  auto joiner = std::make_unique<TotalOrderProcess>(88, /*founder=*/false);
  auto* pjoiner = joiner.get();
  net.sim.add_process(std::move(joiner));
  net.sim.run_rounds(5);
  EXPECT_EQ(pjoiner->protocol_round(), net.node(11)->protocol_round())
      << "joiner must adopt the incumbents' round counter (was " << incumbent_round << ")";
  // Joiner enters everyone's membership.
  for (NodeId id : net.correct_ids) {
    EXPECT_TRUE(net.node(id)->membership().contains(88)) << id;
  }
  // Joiner's events get ordered.
  pjoiner->submit_event(77.0);
  net.sim.run_rounds(45);
  bool found = false;
  for (const auto& entry : net.node(11)->chain()) {
    if (entry.witness == 88u) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(TotalOrder, SimultaneousJoinersBothIntegrate) {
  auto net = make_founders({11, 22, 33, 44});
  net.sim.run_rounds(8);
  auto j1 = std::make_unique<TotalOrderProcess>(77, /*founder=*/false);
  auto j2 = std::make_unique<TotalOrderProcess>(88, /*founder=*/false);
  auto* p1 = j1.get();
  auto* p2 = j2.get();
  net.sim.add_process(std::move(j1));
  net.sim.add_process(std::move(j2));
  net.sim.run_rounds(6);
  // Both adopt the incumbents' round and appear in everyone's S —
  // including each other's.
  EXPECT_EQ(p1->protocol_round(), net.node(11)->protocol_round());
  EXPECT_EQ(p2->protocol_round(), net.node(11)->protocol_round());
  for (NodeId id : net.correct_ids) {
    EXPECT_TRUE(net.node(id)->membership().contains(77)) << id;
    EXPECT_TRUE(net.node(id)->membership().contains(88)) << id;
  }
  EXPECT_TRUE(p1->membership().contains(88));
  EXPECT_TRUE(p2->membership().contains(77));
  // And both order events after integrating.
  p1->submit_event(71.0);
  p2->submit_event(81.0);
  net.sim.run_rounds(50);
  std::size_t found = 0;
  for (const auto& entry : net.node(22)->chain()) {
    if ((entry.witness == 77u && entry.event == 71.0) ||
        (entry.witness == 88u && entry.event == 81.0)) {
      found += 1;
    }
  }
  EXPECT_EQ(found, 2u);
  net.expect_prefix_consistent("simultaneous joiners");
}

TEST(TotalOrder, LeaverFinishesOutstandingInstancesThenDone) {
  auto net = make_founders({11, 22, 33, 44, 55});
  net.sim.run_rounds(3);
  net.node(11)->submit_event(1.0);
  net.sim.run_rounds(2);
  net.node(55)->request_leave();
  net.sim.run_rounds(40);
  EXPECT_TRUE(net.node(55)->done());
  // Remaining nodes drop 55 from membership and continue ordering.
  for (NodeId id : {11u, 22u, 33u, 44u}) {
    EXPECT_FALSE(net.node(id)->membership().contains(55)) << id;
  }
  net.node(22)->submit_event(2.0);
  net.sim.run_rounds(40);
  bool found = false;
  for (const auto& entry : net.node(11)->chain()) {
    if (entry.witness == 22u && entry.event == 2.0) found = true;
  }
  EXPECT_TRUE(found);
  net.correct_ids = {11, 22, 33, 44};
  net.expect_prefix_consistent("after-leave");
}

TEST(TotalOrder, FinalityLagStaysWithinTheoremBound) {
  // Theorem 6's clock: round r' is final once r − r' > 5|S|/2 + 2. At
  // quiescence the lag between the current round and the finalized prefix
  // must settle at that bound (plus the one-round refresh).
  auto net = make_founders({11, 22, 33, 44, 55});
  net.sim.run_rounds(3);
  net.node(11)->submit_event(1.0);
  net.sim.run_rounds(60);
  const auto* n11 = net.node(11);
  const Round lag = n11->protocol_round() - n11->finalized_upto();
  const Round bound = 5 * 5 / 2 + 2 + 2;  // 5|S|/2 + 2, integer slack + refresh
  EXPECT_LE(lag, bound) << "finality must not trail further than the theorem's envelope";
  EXPECT_GT(lag, 0);
}

TEST(TotalOrder, StaleEventTagsAreDiscarded) {
  // A Byzantine member (it DID join via `present`, so it is in S and may
  // submit events) broadcasts events with stale round tags; those must
  // never be collected. Its correctly-tagged events MAY be ordered — that
  // is legitimate behaviour for a member.
  class StaleEventAdversary final : public ByzantineProcess {
   public:
    using ByzantineProcess::ByzantineProcess;
    void on_round(RoundInfo round, std::span<const Message>,
                  std::vector<Outgoing>& out) override {
      if (round.local == 1) {
        broadcast(out, Message{.kind = MsgKind::kPresent});
        return;
      }
      if (round.local < 4) return;  // fire only once the tag is stale
      Message ev;
      ev.kind = MsgKind::kEvent;
      ev.value = Value::real(666.0);
      ev.round_tag = 1;  // permanently stale (receivers are at r ≥ 3)
      broadcast(out, ev);
    }
  };
  auto net = make_founders({11, 22, 33, 44, 55, 66, 77});
  net.sim.add_process(std::make_unique<StaleEventAdversary>(99));
  net.sim.run_rounds(3);
  net.node(22)->submit_event(8.0);
  net.sim.run_rounds(55);
  for (NodeId id : net.correct_ids) {
    for (const auto& entry : net.node(id)->chain()) {
      EXPECT_NE(entry.event, 666.0) << "stale-tagged events must be discarded";
    }
    ASSERT_EQ(net.node(id)->chain().size(), 1u) << id;
  }
}

TEST(TotalOrder, NonMemberEventsIgnored) {
  // A node that never announced itself (not in S) broadcasts correctly
  // tagged events — they must not enter any chain.
  class GhostEventAdversary final : public ByzantineProcess {
   public:
    using ByzantineProcess::ByzantineProcess;
    void on_round(RoundInfo round, std::span<const Message>,
                  std::vector<Outgoing>& out) override {
      // Never sends `present`; guesses the protocol round (local-2 matches
      // the founders' counter exactly).
      if (round.local < 3) return;
      Message ev;
      ev.kind = MsgKind::kEvent;
      ev.value = Value::real(13.0);
      ev.round_tag = static_cast<std::uint32_t>(round.local - 2);
      broadcast(out, ev);
    }
  };
  auto net = make_founders({11, 22, 33, 44});
  net.sim.add_process(std::make_unique<GhostEventAdversary>(99));
  net.sim.run_rounds(40);
  for (NodeId id : net.correct_ids) {
    EXPECT_TRUE(net.node(id)->chain().empty()) << id;
  }
}

TEST(TotalOrder, QueuedEventsDrainOnePerRound) {
  // "v witnesses an event m in round r" — one per round; a burst submitted
  // at once must appear in consecutive instances, in submission order.
  auto net = make_founders({11, 22, 33, 44});
  net.sim.run_rounds(3);
  net.node(11)->submit_event(1.0);
  net.node(11)->submit_event(2.0);
  net.node(11)->submit_event(3.0);
  net.sim.run_rounds(45);
  const auto& chain = net.node(22)->chain();
  ASSERT_EQ(chain.size(), 3u);
  EXPECT_DOUBLE_EQ(chain[0].event, 1.0);
  EXPECT_DOUBLE_EQ(chain[1].event, 2.0);
  EXPECT_DOUBLE_EQ(chain[2].event, 3.0);
  EXPECT_EQ(chain[0].instance + 1, chain[1].instance);
  EXPECT_EQ(chain[1].instance + 1, chain[2].instance);
}

TEST(TotalOrder, FinalizedInstancesAreGarbageCollected) {
  // Long quiescent run: the number of retained machines must stay bounded
  // by the finality lag (≈ 5|S|/2 + 2 live instances), not grow with the
  // run length — while the chain keeps every finalized event.
  auto net = make_founders({11, 22, 33, 44, 55});
  net.sim.run_rounds(3);
  for (int i = 0; i < 30; ++i) {
    net.node(11)->submit_event(static_cast<double>(i));
    net.sim.run_rounds(1);
  }
  net.sim.run_rounds(40);
  const auto* node = net.node(11);
  EXPECT_GE(node->chain().size(), 30u);
  const std::size_t lag_bound = 5 * 5 / 2 + 2 + 4;  // finality lag + slack
  EXPECT_LE(node->retained_machines(), lag_bound)
      << "machines past finality must be freed";
  net.expect_prefix_consistent("gc");
}

TEST(TotalOrder, TerminatedMachinesAreFreedBeforeFinality) {
  // A machine is freed in the round its instance terminates, not when its
  // round becomes final. With every founder correct, each instance ends
  // after phase 1 (local round 7), so no more machines are held than that
  // however long the finality lag, and the chain is still complete.
  auto net = make_founders({11, 22, 33, 44, 55});
  net.sim.run_rounds(3);
  for (int i = 0; i < 30; ++i) {
    net.node(11)->submit_event(static_cast<double>(i));
    net.sim.run_rounds(1);
    for (NodeId id : net.correct_ids) {
      const auto* node = net.node(id);
      EXPECT_EQ(node->retained_machines(), node->live_instances()) << id;
      EXPECT_LE(node->retained_machines(), 7u) << id;
    }
  }
  net.sim.run_rounds(40);
  for (NodeId id : net.correct_ids) {
    const auto* node = net.node(id);
    EXPECT_EQ(node->retained_machines(), node->live_instances()) << id;
    EXPECT_LE(node->retained_machines(), 7u) << id;
    EXPECT_GT(node->protocol_round() - node->finalized_upto(),
              static_cast<Round>(node->retained_machines()))
        << "the finality lag outlasts the machines";
    std::vector<double> events;
    for (const auto& entry : node->chain()) {
      if (entry.witness == 11u) events.push_back(entry.event);
    }
    ASSERT_EQ(events.size(), 30u) << id;
    for (int i = 0; i < 30; ++i) EXPECT_DOUBLE_EQ(events[static_cast<std::size_t>(i)], i) << id;
  }
  net.expect_prefix_consistent("freed");
}

TEST(TotalOrder, ByzantineAcksCannotDesyncJoiner) {
  // The joiner adopts the MAJORITY ack round; a Byzantine member answering
  // with wrong round numbers is outvoted as long as n > 3f (here one liar
  // among five correct ack senders).
  class BadAckAdversary final : public ByzantineProcess {
   public:
    using ByzantineProcess::ByzantineProcess;
    void on_round(RoundInfo round, std::span<const Message> inbox,
                  std::vector<Outgoing>& out) override {
      if (round.local == 1) {
        broadcast(out, Message{.kind = MsgKind::kPresent});  // join S legitimately
        return;
      }
      for (const Message& m : inbox) {
        if (m.kind == MsgKind::kPresent) {
          Message ack;
          ack.kind = MsgKind::kAck;
          ack.round_tag = 999;  // wildly wrong round number
          unicast(out, m.sender, ack);
        }
      }
    }
  };
  auto net = make_founders({11, 22, 33, 44, 55});
  net.sim.add_process(std::make_unique<BadAckAdversary>(99));
  net.sim.run_rounds(8);
  auto joiner = std::make_unique<TotalOrderProcess>(88, /*founder=*/false);
  auto* pjoiner = joiner.get();
  net.sim.add_process(std::move(joiner));
  net.sim.run_rounds(6);
  EXPECT_EQ(pjoiner->protocol_round(), net.node(11)->protocol_round())
      << "majority ack must beat the lying ack";
  // And the joiner still participates correctly afterwards.
  pjoiner->submit_event(4.0);
  net.sim.run_rounds(45);
  bool found = false;
  for (const auto& entry : net.node(22)->chain()) {
    if (entry.witness == 88u && entry.event == 4.0) found = true;
  }
  EXPECT_TRUE(found);
  net.expect_prefix_consistent("bad-ack");
}

TEST(TotalOrder, ChurnJoinAndLeaveKeepsChainConsistent) {
  auto net = make_founders({11, 22, 33, 44, 55});
  net.sim.run_rounds(4);
  for (int i = 0; i < 5; ++i) net.node(33)->submit_event(10.0 + i), net.sim.run_rounds(1);
  // One joins, one leaves, events keep flowing.
  net.sim.add_process(std::make_unique<TotalOrderProcess>(66, /*founder=*/false));
  net.sim.run_rounds(6);
  net.node(55)->request_leave();
  for (int i = 0; i < 5; ++i) net.node(22)->submit_event(20.0 + i), net.sim.run_rounds(1);
  net.sim.run_rounds(60);
  net.correct_ids = {11, 22, 33, 44};
  net.expect_prefix_consistent("churn");
  EXPECT_GE(net.node(11)->chain().size(), 10u);
}

}  // namespace
}  // namespace idonly
