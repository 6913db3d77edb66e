// Hand-driven state-machine tests: feed crafted inboxes round by round and
// assert the exact rule firings that end-to-end runs can't isolate — the
// parallel-consensus fill rules per phase, marker semantics, and the rotor's
// opinion-acceptance timing.
#include <gtest/gtest.h>

#include "core/parallel_consensus.hpp"
#include "core/rotor_coordinator.hpp"

namespace idonly {
namespace {

Message from(NodeId sender, MsgKind kind, PairId pair = 0, Value value = Value::bot()) {
  Message m;
  m.sender = sender;
  m.kind = kind;
  m.subject = pair;
  m.value = value;
  return m;
}

std::vector<Message> init_round(std::initializer_list<NodeId> senders) {
  std::vector<Message> inbox;
  for (NodeId s : senders) inbox.push_back(from(s, MsgKind::kInit));
  return inbox;
}

/// One local round of `machine` on a whole inbox, bucketed as a node does.
void step(ParallelConsensusMachine& machine, std::span<const Message> inbox,
          std::vector<Message>& out) {
  TaggedInbox index;
  const InstanceTag tag = machine.tag();
  index.build(inbox, std::span(&tag, 1));
  machine.on_round(index.bucket(tag), index.senders(), out);
}

/// Drive a machine through rounds 1–2 (init) with members {1,2,3,4}.
void bootstrap(ParallelConsensusMachine& machine) {
  std::vector<Message> out;
  step(machine, {}, out);                          // r1: our init broadcast
  out.clear();
  auto r2 = init_round({1, 2, 3, 4});
  step(machine, r2, out);                          // r2: echoes
  out.clear();
  std::vector<Message> r3;                         // r3 inbox: echoes (ignored here)
  for (NodeId s : {1u, 2u, 3u, 4u}) {
    Message echo = from(s, MsgKind::kEcho, s);
    r3.push_back(echo);
  }
  step(machine, r3, out);                          // r3 = phase 1 P1
}

bool contains_kind(const std::vector<Message>& msgs, MsgKind kind, PairId pair) {
  for (const Message& m : msgs) {
    if (m.kind == kind && m.subject == pair) return true;
  }
  return false;
}

TEST(ParallelMachine, HolderBroadcastsInputAtP1) {
  ParallelConsensusMachine machine(1, 0, {{.id = 9, .value = Value::real(5.0)}});
  std::vector<Message> out;
  step(machine, {}, out);
  out.clear();
  auto r2 = init_round({1, 2, 3, 4});
  step(machine, r2, out);
  out.clear();
  step(machine, {}, out);  // P1
  ASSERT_TRUE(contains_kind(out, MsgKind::kInput, 9));
  EXPECT_EQ(machine.n_v(), 4u);
}

TEST(ParallelMachine, BotFillMakesLoneWhisperResolveToNoOutput) {
  // Machine without the pair hears one Byzantine id:input at P2 (round 4):
  // it adopts the instance with ⊥, fills everyone else with input(⊥), and
  // broadcasts prefer(⊥) — exactly the Theorem 5 second-case walk.
  ParallelConsensusMachine machine(1, 0, {});
  bootstrap(machine);
  std::vector<Message> out;
  std::vector<Message> p2{from(9 /*byz member? not member!*/, MsgKind::kInput, 77,
                               Value::real(3.0))};
  // Non-members are discarded — use member 2 as the whisper relay instead.
  p2[0].sender = 2;
  step(machine, p2, out);  // P2
  ASSERT_EQ(machine.instance_count(), 1u);
  ASSERT_TRUE(contains_kind(out, MsgKind::kPrefer, 77));
  for (const Message& m : out) {
    if (m.kind == MsgKind::kPrefer && m.subject == 77) {
      EXPECT_TRUE(m.value.is_bot()) << "⊥ fills must dominate a lone whisper";
    }
  }
}

TEST(ParallelMachine, NonMemberWhisperIsDiscarded) {
  ParallelConsensusMachine machine(1, 0, {});
  bootstrap(machine);
  std::vector<Message> out;
  std::vector<Message> p2{from(99, MsgKind::kInput, 77, Value::real(3.0))};  // 99 ∉ members
  step(machine, p2, out);
  EXPECT_EQ(machine.instance_count(), 0u);
}

TEST(ParallelMachine, WrongInstanceTagIsDiscarded) {
  ParallelConsensusMachine machine(1, /*tag=*/5, {});
  bootstrap(machine);
  std::vector<Message> out;
  Message wrong = from(2, MsgKind::kInput, 77, Value::real(3.0));
  wrong.instance = 6;  // different instance
  std::vector<Message> p2{wrong};
  step(machine, p2, out);
  EXPECT_EQ(machine.instance_count(), 0u);
}

TEST(ParallelMachine, MembershipRestrictionFiltersSenders) {
  std::set<NodeId> restriction{1, 2};
  ParallelConsensusMachine machine(1, 0, {}, restriction);
  std::vector<Message> out;
  step(machine, {}, out);
  out.clear();
  auto r2 = init_round({1, 2, 3, 4});  // 3, 4 are outside S
  step(machine, r2, out);
  out.clear();
  step(machine, {}, out);
  EXPECT_EQ(machine.n_v(), 2u) << "only S members count toward n_v";
}

TEST(ParallelMachine, MarkerSuppressesBotFillAtP3) {
  // Phase-1 P3 fills silent members with prefer(⊥) (rule 2). A member that
  // says `nopreference` instead must NOT be filled — the observable
  // difference at n_v = 4: three silent members → three ⊥ fills → 2n_v/3
  // reached → strongprefer(⊥); one of them sending the marker instead drops
  // the ⊥ count to two → only the no-strong-preference marker goes out.
  auto drive_to_p3 = [&](std::vector<Message> p3, std::vector<Message>& out) {
    ParallelConsensusMachine machine(1, 0, {{.id = 7, .value = Value::real(1.0)}});
    bootstrap(machine);  // P1: broadcasts input(7, 1.0)
    std::vector<Message> scratch;
    // P2: only our own input echoes back (others silent → ⊥ fills → no
    // value quorum → we emit nopreference ourselves; irrelevant here).
    std::vector<Message> p2{from(1, MsgKind::kInput, 7, Value::real(1.0))};
    step(machine, p2, scratch);
    out.clear();
    step(machine, p3, out);
  };

  std::vector<Message> out;
  // Case A: members 2, 3, 4 completely silent at P3 → ⊥ fills for all three.
  drive_to_p3({from(1, MsgKind::kPrefer, 7, Value::bot())}, out);
  EXPECT_TRUE(contains_kind(out, MsgKind::kStrongPrefer, 7))
      << "three ⊥ fills + own prefer reach 2n_v/3";

  // Case B: members 2 and 3 send markers — no fills for them, and the ⊥
  // count (own prefer + one fill for member 4 = 2 of 4) drops below 2n_v/3.
  drive_to_p3({from(1, MsgKind::kPrefer, 7, Value::bot()),
               from(2, MsgKind::kNoPreference, 7),
               from(3, MsgKind::kNoPreference, 7)},
              out);
  EXPECT_FALSE(contains_kind(out, MsgKind::kStrongPrefer, 7))
      << "markers must not be substituted away";
  EXPECT_TRUE(contains_kind(out, MsgKind::kNoStrongPref, 7));
}

// ------------------------------------------------------------------ rotor --

TEST(RotorProcess, OpinionAcceptedExactlyOneRoundAfterSelection) {
  RotorProcess p(/*self=*/1, Value::real(4.0));
  std::vector<Outgoing> out;
  p.on_round({1, 1}, {}, out);
  out.clear();
  auto r2 = init_round({1, 2, 3});
  p.on_round({2, 2}, r2, out);
  out.clear();
  // Round 3 (rotor round 0): echoes for ids 1,2,3 from everyone → all become
  // candidates; selection = C[0] = 1 = self → we broadcast opinion.
  std::vector<Message> r3;
  for (NodeId s : {1u, 2u, 3u}) {
    for (NodeId candidate : {1u, 2u, 3u}) r3.push_back(from(s, MsgKind::kEcho, candidate));
  }
  p.on_round({3, 3}, r3, out);
  ASSERT_EQ(p.history().size(), 1u);
  EXPECT_EQ(p.history()[0].selected, NodeId{1});
  EXPECT_FALSE(p.history()[0].accepted_opinion.has_value()) << "no previous coordinator yet";
  bool sent_opinion = false;
  for (const auto& o : out) sent_opinion = sent_opinion || o.msg.kind == MsgKind::kOpinion;
  EXPECT_TRUE(sent_opinion);
  out.clear();
  // Round 4: our own opinion (self-delivery) arrives; acceptance recorded
  // against the PREVIOUS round's coordinator (us).
  std::vector<Message> r4{from(1, MsgKind::kOpinion, 0, Value::real(4.0))};
  p.on_round({4, 4}, r4, out);
  ASSERT_EQ(p.history().size(), 2u);
  EXPECT_EQ(p.history()[1].accepted_from, NodeId{1});
  EXPECT_EQ(p.history()[1].accepted_opinion, Value::real(4.0));
  EXPECT_EQ(p.history()[1].selected, NodeId{2}) << "round-robin advances";
}

TEST(RotorProcess, OpinionFromNonCoordinatorIgnored) {
  RotorProcess p(1, Value::real(0.0));
  std::vector<Outgoing> out;
  p.on_round({1, 1}, {}, out);
  out.clear();
  auto r2 = init_round({1, 2, 3});
  p.on_round({2, 2}, r2, out);
  out.clear();
  std::vector<Message> r3;
  for (NodeId s : {1u, 2u, 3u}) {
    for (NodeId candidate : {1u, 2u, 3u}) r3.push_back(from(s, MsgKind::kEcho, candidate));
  }
  p.on_round({3, 3}, r3, out);
  out.clear();
  // Round 4: opinion from node 3, but the previous coordinator was node 1.
  std::vector<Message> r4{from(3, MsgKind::kOpinion, 0, Value::real(9.0))};
  p.on_round({4, 4}, r4, out);
  EXPECT_FALSE(p.history()[1].accepted_opinion.has_value());
}

}  // namespace
}  // namespace idonly
