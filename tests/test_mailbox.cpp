// Mailbox-layer tests: ref-counted fan-out, send-order merging of shared and
// private traffic, per-receiver masks on the shared lane, private entries
// suppressed by the lane twin fixed at deposit, and the byte-frame half used
// by the runtime transports.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "common/metrics.hpp"
#include "net/codec.hpp"
#include "net/mailbox.hpp"
#include "net/message.hpp"
#include "runtime/inmemory_transport.hpp"

namespace idonly {
namespace {

Message make_msg(NodeId sender, MsgKind kind, double v) {
  Message m;
  m.sender = sender;
  m.kind = kind;
  m.value = Value::real(v);
  return m;
}

TEST(MessageRef, CachesHashAndWireSize) {
  const Message msg = make_msg(3, MsgKind::kPresent, 1.5);
  const MessageRef ref = MessageRef::wrap(msg);
  EXPECT_EQ(ref.content_hash(), MessageHash{}(msg));
  EXPECT_EQ(ref.wire_bytes(), encoded_size(msg));
  EXPECT_EQ(ref.get(), msg);
  EXPECT_TRUE(static_cast<bool>(ref));
  EXPECT_FALSE(static_cast<bool>(MessageRef{}));
}

TEST(MessageRef, WireSizeMatchesCodec) {
  // The cached size must agree with what encode() actually produces — it
  // feeds the byte-accounting counters.
  const Message msgs[] = {
      make_msg(1, MsgKind::kPresent, 0.0),
      make_msg(70000, MsgKind::kAck, -123.456),
      [] {
        Message m;
        m.sender = 9;
        m.kind = MsgKind::kEcho;
        m.subject = 300;
        m.instance = 12;
        m.round_tag = 1000;
        m.value = Value::bot();
        return m;
      }(),
  };
  for (const Message& msg : msgs) {
    std::vector<std::byte> wire;
    encode(msg, wire);
    EXPECT_EQ(encoded_size(msg), wire.size()) << msg.to_string();
    EXPECT_EQ(MessageRef::wrap(msg).wire_bytes(), wire.size());
  }
}

TEST(MessageRef, CopyIsReferenceBumpNotDeepCopy) {
  const MessageRef a = MessageRef::wrap(make_msg(1, MsgKind::kPresent, 2));
  const MessageRef b = a;
  EXPECT_EQ(&a.get(), &b.get()) << "copies must share the payload";
  EXPECT_EQ(a.use_count(), 2);
}

TEST(MessageRef, EqualityComparesContent) {
  const MessageRef a = MessageRef::wrap(make_msg(1, MsgKind::kPresent, 2));
  const MessageRef b = MessageRef::wrap(make_msg(1, MsgKind::kPresent, 2));
  const MessageRef c = MessageRef::wrap(make_msg(2, MsgKind::kPresent, 2));
  EXPECT_EQ(a, b) << "same content, distinct cells";
  EXPECT_FALSE(a == c) << "sender is part of the identity";
}

TEST(BroadcastLane, DepositKeepsEveryEntryAndCountsKinds) {
  // No content check at deposit: the engine keeps a sender's repeated
  // broadcast out of the lane before it gets there.
  BroadcastLane lane;
  lane.deposit(MessageRef::wrap(make_msg(1, MsgKind::kPresent, 2)), 0);
  lane.deposit(MessageRef::wrap(make_msg(1, MsgKind::kPresent, 3)), 2);
  lane.deposit(MessageRef::wrap(make_msg(2, MsgKind::kAck, 3)), 4);
  EXPECT_EQ(lane.size(), 3u);
  const auto refs = lane.refs();
  ASSERT_EQ(refs.size(), 3u);
  EXPECT_EQ(refs[0]->value, Value::real(2));
  EXPECT_EQ(refs[1]->value, Value::real(3));
  EXPECT_EQ(lane.kind_counts()[static_cast<std::size_t>(MsgKind::kPresent)], 2u);
  EXPECT_EQ(lane.kind_counts()[static_cast<std::size_t>(MsgKind::kAck)], 1u);

  lane.clear();
  EXPECT_TRUE(lane.empty());
  EXPECT_EQ(lane.kind_counts()[static_cast<std::size_t>(MsgKind::kPresent)], 0u);
  EXPECT_EQ(lane.wire_bytes(), 0u);
}

/// Start a round on `lane` with one segment holding `entries` (seq, message)
/// in deposit order, and seal it — the shape of a one-thread engine round.
void fill_one_segment(ShardedLane& lane,
                      std::initializer_list<std::pair<std::uint64_t, Message>> entries) {
  lane.reset(1);
  for (const auto& [seq, msg] : entries) lane.segment(0).deposit(MessageRef::wrap(msg), seq);
  lane.seal();
}

TEST(Mailbox, CollectWithoutPrivateTrafficAliasesLaneView) {
  ShardedLane lane;
  fill_one_segment(lane,
                   {{0, make_msg(1, MsgKind::kPresent, 1)}, {1, make_msg(2, MsgKind::kAck, 2)}});

  Mailbox box;
  std::vector<Message> scratch;
  FanoutCounters fanout;
  MessageCounters counters;
  const auto inbox = box.collect(&lane, scratch, &fanout, &counters);
  ASSERT_EQ(inbox.size(), 2u);
  EXPECT_EQ(inbox.data(), lane.view().data()) << "fast path must alias, not copy";
  EXPECT_EQ(fanout.deliveries, 2u);
  EXPECT_EQ(fanout.bytes_delivered, lane.wire_bytes());
  EXPECT_EQ(counters.total_delivered(), 2u);
}

TEST(Mailbox, CollectMergesInSendOrder) {
  // seq: lane gets 0 and 2, private unicast gets 1 — the merged inbox must
  // interleave by send order, like the old single-inbox engine did.
  ShardedLane lane;
  fill_one_segment(lane, {{0, make_msg(1, MsgKind::kPresent, 1)},
                          {2, make_msg(3, MsgKind::kPresent, 3)}});

  Mailbox box;
  box.deposit(MessageRef::wrap(make_msg(2, MsgKind::kAck, 2)), 1);
  std::vector<Message> scratch;
  const auto inbox = box.collect(&lane, scratch);
  ASSERT_EQ(inbox.size(), 3u);
  EXPECT_EQ(inbox[0].sender, 1u);
  EXPECT_EQ(inbox[1].sender, 2u);
  EXPECT_EQ(inbox[2].sender, 3u);
  EXPECT_TRUE(box.empty()) << "collect resets the private buffer";
}

TEST(Mailbox, CollectSuppressesPrivateDuplicateOfLaneMessage) {
  // The same payload broadcast AND unicast to one receiver in a round is the
  // per-receiver duplicate the model discards.
  ShardedLane lane;
  fill_one_segment(lane, {{0, make_msg(1, MsgKind::kPresent, 1)}});

  Mailbox box;
  box.deposit(MessageRef::wrap(make_msg(1, MsgKind::kPresent, 1)), 1, /*twin=*/0);
  std::vector<Message> scratch;
  FanoutCounters fanout;
  const auto inbox = box.collect(&lane, scratch, &fanout);
  EXPECT_EQ(inbox.size(), 1u);
  EXPECT_EQ(fanout.dedup_hits, 1u);
  EXPECT_EQ(fanout.deliveries, 1u);

  // Without a lane (a member admitted this round) nothing is suppressed.
  box.deposit(MessageRef::wrap(make_msg(1, MsgKind::kPresent, 1)), 1, /*twin=*/0);
  EXPECT_EQ(box.collect(nullptr, scratch).size(), 1u);
}

TEST(Mailbox, MaskedLaneEntryIsSkippedWhileNeighboursKeepSendOrder) {
  ShardedLane lane;
  fill_one_segment(lane, {{0, make_msg(1, MsgKind::kPresent, 1)},
                          {2, make_msg(2, MsgKind::kPresent, 2)},
                          {4, make_msg(3, MsgKind::kPresent, 3)}});

  Mailbox box;
  box.mask(2);  // sender 2's broadcast is withheld from this receiver only
  box.deposit(MessageRef::wrap(make_msg(5, MsgKind::kAck, 5)), 3);
  std::vector<Message> scratch;
  FanoutCounters fanout;
  MessageCounters counters;
  const auto inbox = box.collect(&lane, scratch, &fanout, &counters);
  ASSERT_EQ(inbox.size(), 3u);
  EXPECT_EQ(inbox[0].sender, 1u);
  EXPECT_EQ(inbox[1].sender, 5u);
  EXPECT_EQ(inbox[2].sender, 3u);
  EXPECT_EQ(fanout.deliveries, 3u);
  EXPECT_EQ(counters.total_delivered(), 3u);
  EXPECT_EQ(fanout.dedup_hits, 0u);

  Mailbox other;  // every other receiver still aliases the shared view
  EXPECT_EQ(other.collect(&lane, scratch).data(), lane.view().data());
}

TEST(Mailbox, UnicastWhoseLaneTwinIsMaskedIsStillDelivered) {
  // Sender 1 unicasts X to this receiver and broadcasts X; the broadcast's
  // link to this receiver is dropped, so the unicast is the copy that lands.
  const Message x = make_msg(1, MsgKind::kPresent, 1);
  ShardedLane lane;
  fill_one_segment(lane, {{2, x}});

  Mailbox box;
  box.deposit(MessageRef::wrap(x), 1, /*twin=*/2);
  box.mask(2);
  std::vector<Message> scratch;
  FanoutCounters fanout;
  const auto inbox = box.collect(&lane, scratch, &fanout);
  ASSERT_EQ(inbox.size(), 1u);
  EXPECT_EQ(inbox[0], x);
  EXPECT_EQ(fanout.dedup_hits, 0u) << "a masked twin suppresses nothing";
}

TEST(Mailbox, CollectClearsMasksSoNoneLeaksIntoTheNextRound) {
  ShardedLane lane;
  fill_one_segment(lane, {{0, make_msg(1, MsgKind::kPresent, 1)}});
  Mailbox box;
  box.mask(0);
  EXPECT_FALSE(box.empty());
  std::vector<Message> scratch;
  EXPECT_TRUE(box.collect(&lane, scratch).empty());
  EXPECT_TRUE(box.empty()) << "collect resets the masks";

  // Next round reuses the sequence number: the stale mask must not apply,
  // and with nothing receiver-specific left the fast path aliases again.
  fill_one_segment(lane, {{0, make_msg(1, MsgKind::kPresent, 2)}});
  const auto inbox = box.collect(&lane, scratch);
  ASSERT_EQ(inbox.size(), 1u);
  EXPECT_EQ(inbox.data(), lane.view().data());
}

TEST(Mailbox, HoldsReadsBackOnlyToTheGivenKey) {
  // The merge asks holds(ref, run_key) before a deposit that may repeat
  // content: only entries keyed from the sender run's first key on count.
  const MessageRef x = MessageRef::wrap(make_msg(1, MsgKind::kAck, 1));
  Mailbox box;
  EXPECT_FALSE(box.holds(x));
  box.deposit(x, 4);
  box.deposit(MessageRef::wrap(make_msg(2, MsgKind::kAck, 1)), 10);
  EXPECT_TRUE(box.holds(MessageRef::wrap(make_msg(1, MsgKind::kAck, 1))))
      << "equal content in a distinct cell";
  EXPECT_TRUE(box.holds(x, 4));
  EXPECT_FALSE(box.holds(x, 5)) << "entries older than the key are another run's";
  EXPECT_FALSE(box.holds(MessageRef::wrap(make_msg(1, MsgKind::kAck, 2))));
  std::vector<Message> scratch;
  EXPECT_EQ(box.collect(nullptr, scratch).size(), 2u);
  EXPECT_FALSE(box.holds(x)) << "collect resets the private buffer";
}

TEST(ShardedLane, SealConcatenatesSegmentsInKeyOrder) {
  // Two merge lanes deposit their own senders' broadcasts with globally
  // ordered keys; seal() must produce one flat view whose seqs ascend —
  // segment order IS send order when senders are partitioned by ascending
  // ranges.
  ShardedLane lane;
  lane.reset(2);
  lane.segment(0).deposit(MessageRef::wrap(make_msg(1, MsgKind::kPresent, 1)), 0);
  lane.segment(0).deposit(MessageRef::wrap(make_msg(2, MsgKind::kAck, 2)), 2);
  lane.segment(1).deposit(MessageRef::wrap(make_msg(3, MsgKind::kPresent, 3)), 4);
  lane.seal();

  ASSERT_EQ(lane.size(), 3u);
  const auto seqs = lane.seqs();
  EXPECT_TRUE(std::is_sorted(seqs.begin(), seqs.end()));
  const auto view = lane.view();
  ASSERT_EQ(view.size(), 3u);
  EXPECT_EQ(view[0].sender, 1u);
  EXPECT_EQ(view[1].sender, 2u);
  EXPECT_EQ(view[2].sender, 3u);
  EXPECT_EQ(lane.kind_counts()[static_cast<std::size_t>(MsgKind::kPresent)], 2u);
  EXPECT_EQ(lane.kind_counts()[static_cast<std::size_t>(MsgKind::kAck)], 1u);
  EXPECT_GT(lane.wire_bytes(), 0u);
}

TEST(ShardedLane, TwinOfFindsTheSendersBroadcastInEverySegment) {
  ShardedLane lane;
  lane.reset(2);
  const MessageRef a = MessageRef::wrap(make_msg(1, MsgKind::kPresent, 1));
  const MessageRef b = MessageRef::wrap(make_msg(5, MsgKind::kPresent, 5));
  lane.segment(0).deposit(a, 0);
  lane.segment(0).deposit(MessageRef::wrap(make_msg(5, MsgKind::kPresent, 4)), 2);
  lane.segment(1).deposit(b, 4);
  lane.seal();
  EXPECT_EQ(lane.twin_of(MessageRef::wrap(make_msg(1, MsgKind::kPresent, 1))), 0u);
  EXPECT_EQ(lane.twin_of(b), 4u) << "the second of the sender's entries";
  EXPECT_FALSE(lane.twin_of(MessageRef::wrap(make_msg(5, MsgKind::kPresent, 6))).has_value());
  EXPECT_FALSE(lane.twin_of(MessageRef::wrap(make_msg(9, MsgKind::kAck, 9))).has_value());
  EXPECT_FALSE(lane.twin_of(MessageRef::wrap(make_msg(3, MsgKind::kPresent, 1))).has_value());
}

TEST(ShardedLane, CollectMergesAndDedupsLikeBroadcastLane) {
  // The receiver-side contract across two segments is the one-segment
  // contract: send-order merge with private traffic, cross-buffer duplicate
  // suppression, fast-path aliasing of the sealed view.
  ShardedLane lane;
  lane.reset(2);
  lane.segment(0).deposit(MessageRef::wrap(make_msg(1, MsgKind::kPresent, 1)), 0);
  lane.segment(1).deposit(MessageRef::wrap(make_msg(3, MsgKind::kPresent, 3)), 4);
  lane.seal();

  Mailbox fast;
  std::vector<Message> scratch;
  FanoutCounters fanout;
  const auto aliased = fast.collect(&lane, scratch, &fanout);
  ASSERT_EQ(aliased.size(), 2u);
  EXPECT_EQ(aliased.data(), lane.view().data()) << "fast path must alias the sealed view";
  EXPECT_EQ(fanout.deliveries, 2u);

  Mailbox slow;
  slow.deposit(MessageRef::wrap(make_msg(2, MsgKind::kAck, 2)), 1);
  slow.deposit(MessageRef::wrap(make_msg(3, MsgKind::kPresent, 3)), 5, /*twin=*/4);  // dup of lane entry
  FanoutCounters merged;
  const auto inbox = slow.collect(&lane, scratch, &merged);
  ASSERT_EQ(inbox.size(), 3u);
  EXPECT_EQ(inbox[0].sender, 1u);
  EXPECT_EQ(inbox[1].sender, 2u);
  EXPECT_EQ(inbox[2].sender, 3u);
  EXPECT_EQ(merged.dedup_hits, 1u);
}

TEST(ShardedLane, ResetReclaimsSegmentsAcrossRounds) {
  ShardedLane lane;
  lane.reset(3);
  lane.segment(2).deposit(MessageRef::wrap(make_msg(1, MsgKind::kPresent, 1)), 0);
  lane.seal();
  ASSERT_EQ(lane.size(), 1u);

  lane.reset(1);  // fewer lanes next round (set_threads between rounds)
  EXPECT_TRUE(lane.empty());
  EXPECT_EQ(lane.segment_count(), 1u);
  lane.segment(0).deposit(MessageRef::wrap(make_msg(1, MsgKind::kPresent, 1)), 0);
  lane.seal();
  EXPECT_EQ(lane.size(), 1u);
  EXPECT_EQ(lane.view()[0].sender, 1u);
}

// ------------------------------------------------- slow-path oracle --

/// One receiver's round as the oracle sees it: lane entries (seq, ref) and
/// private entries, both accepted by their deposit, plus the masks.
struct OracleRound {
  std::vector<std::pair<std::uint64_t, MessageRef>> lane;
  std::vector<std::pair<std::uint64_t, MessageRef>> priv;
  std::vector<std::uint64_t> masks;
};

/// What collect() must return, computed the slow obvious way: every unmasked
/// lane entry and every private entry without an unmasked lane twin, sorted
/// by seq (a private entry first on equal seqs), with counters summed per
/// delivered message.
struct OracleInbox {
  std::vector<Message> inbox;
  FanoutCounters fanout;
  MessageCounters counters;
};

OracleInbox brute_force_collect(const OracleRound& round) {
  const auto masked = [&](std::uint64_t seq) {
    return std::find(round.masks.begin(), round.masks.end(), seq) != round.masks.end();
  };
  struct Item {
    std::uint64_t seq;
    int lane;  // 0 = private, 1 = lane: a private entry wins a tie
    MessageRef ref;
  };
  std::vector<Item> items;
  OracleInbox out;
  for (const auto& [seq, ref] : round.lane) {
    if (!masked(seq)) items.push_back({seq, 1, ref});
  }
  for (const auto& [seq, ref] : round.priv) {
    const bool twin_arrives = std::any_of(round.lane.begin(), round.lane.end(), [&](const auto& e) {
      return e.second == ref && !masked(e.first);
    });
    if (twin_arrives) {
      out.fanout.dedup_hits += 1;
    } else {
      items.push_back({seq, 0, ref});
    }
  }
  std::stable_sort(items.begin(), items.end(), [](const Item& a, const Item& b) {
    return a.seq != b.seq ? a.seq < b.seq : a.lane < b.lane;
  });
  for (const Item& item : items) {
    out.inbox.push_back(item.ref.get());
    out.fanout.deliveries += 1;
    out.fanout.bytes_delivered += item.ref.wire_bytes();
    out.counters.delivered[static_cast<std::size_t>(item.ref->kind)] += 1;
  }
  if (!items.empty()) out.fanout.slab_sends = 1;
  return out;
}

/// Deposit `round` into a fresh ShardedLane split into two segments and a
/// Mailbox, collect, and compare with the oracle. Each private entry is
/// deposited with its twin key as the engine fixes it: the key of the lane
/// entry with equal content, looked up here through ShardedLane::twin_of.
void expect_collect_matches_oracle(const OracleRound& round, const std::string& label) {
  ShardedLane lane;
  lane.reset(2);
  for (std::size_t e = 0; e < round.lane.size(); ++e) {
    lane.segment(e < round.lane.size() / 2 ? 0 : 1)
        .deposit(round.lane[e].second, round.lane[e].first);
  }
  lane.seal();
  Mailbox box;
  for (const auto& [seq, ref] : round.priv) {
    ASSERT_FALSE(box.holds(ref)) << label << ": private entries are distinct";
    box.deposit(ref, seq, lane.twin_of(ref).value_or(Mailbox::kNoTwin));
  }
  for (const std::uint64_t seq : round.masks) box.mask(seq);

  std::vector<Message> scratch = {make_msg(99, MsgKind::kNoise, 99)};  // stale content
  FanoutCounters fanout;
  MessageCounters counters;
  const auto inbox = box.collect(&lane, scratch, &fanout, &counters);
  const OracleInbox expected = brute_force_collect(round);
  EXPECT_EQ(std::vector<Message>(inbox.begin(), inbox.end()), expected.inbox) << label;
  EXPECT_EQ(fanout.deliveries, expected.fanout.deliveries) << label;
  EXPECT_EQ(fanout.bytes_delivered, expected.fanout.bytes_delivered) << label;
  EXPECT_EQ(fanout.dedup_hits, expected.fanout.dedup_hits) << label;
  EXPECT_EQ(fanout.slab_sends, expected.fanout.slab_sends) << label;
  EXPECT_EQ(counters.delivered, expected.counters.delivered) << label;
  EXPECT_TRUE(box.empty()) << label;
}

/// Five lane broadcasts at seqs 10, 20, ..., 50 from senders 1..5, with
/// different kinds so per-kind counters are checked too.
OracleRound five_lane_entries() {
  OracleRound round;
  for (NodeId s = 1; s <= 5; ++s) {
    round.lane.emplace_back(10 * s, MessageRef::wrap(make_msg(
                                        s, s % 2 == 0 ? MsgKind::kEcho : MsgKind::kInput,
                                        static_cast<double>(s))));
  }
  return round;
}

TEST(MailboxOracle, MasksOnFirstLastAndAdjacentLaneEntries) {
  for (const auto& masks : std::vector<std::vector<std::uint64_t>>{
           {10}, {50}, {10, 50}, {20, 30}, {10, 20, 30, 40, 50}, {30, 40, 50}, {10, 20}}) {
    OracleRound round = five_lane_entries();
    round.masks = masks;
    std::string label = "masks";
    for (const std::uint64_t m : masks) label += " " + std::to_string(m);
    expect_collect_matches_oracle(round, label);
    // The same masks with private traffic before, between and after them.
    round.priv.emplace_back(5, MessageRef::wrap(make_msg(7, MsgKind::kAck, 1)));
    round.priv.emplace_back(25, MessageRef::wrap(make_msg(8, MsgKind::kAck, 2)));
    round.priv.emplace_back(55, MessageRef::wrap(make_msg(9, MsgKind::kAck, 3)));
    expect_collect_matches_oracle(round, label + " + private");
  }
}

TEST(MailboxOracle, PrivateTwinOfMaskedAndOfUnmaskedLaneEntry) {
  OracleRound round = five_lane_entries();
  round.masks = {20};
  // Twin of the masked entry: delivered in its own slot. Twin of an unmasked
  // entry: a dedup hit.
  round.priv.emplace_back(21, MessageRef::wrap(round.lane[1].second.get()));
  round.priv.emplace_back(31, MessageRef::wrap(round.lane[2].second.get()));
  expect_collect_matches_oracle(round, "twins");
  round.masks = {20, 30};
  expect_collect_matches_oracle(round, "twins, both masked");
}

TEST(MailboxOracle, RandomRoundsMatchBruteForce) {
  std::mt19937_64 rng(0x5EED);
  const auto coin = [&](double p) { return std::uniform_real_distribution<double>(0, 1)(rng) < p; };
  for (int trial = 0; trial < 400; ++trial) {
    OracleRound round;
    const std::size_t lane_size = rng() % 12;
    std::uint64_t seq = rng() % 3;
    for (std::size_t e = 0; e < lane_size; ++e) {
      round.lane.emplace_back(seq, MessageRef::wrap(make_msg(
                                       static_cast<NodeId>(1 + e), static_cast<MsgKind>(rng() % 4),
                                       static_cast<double>(rng() % 3))));
      if (coin(0.4)) round.masks.push_back(seq);
      seq += 1 + rng() % 3;
    }
    const std::size_t private_count = rng() % 6;
    std::vector<std::uint64_t> private_seqs;
    for (std::size_t j = 0; j < private_count; ++j) private_seqs.push_back(rng() % (seq + 2));
    std::sort(private_seqs.begin(), private_seqs.end());
    for (const std::uint64_t p : private_seqs) {
      // Half the private entries twin a lane entry; the rest are fresh.
      const MessageRef ref =
          !round.lane.empty() && coin(0.5)
              ? MessageRef::wrap(round.lane[rng() % round.lane.size()].second.get())
              : MessageRef::wrap(make_msg(static_cast<NodeId>(20 + rng() % 4), MsgKind::kAck,
                                          static_cast<double>(rng() % 2)));
      const bool fresh = std::none_of(round.priv.begin(), round.priv.end(),
                                      [&](const auto& e) { return e.second == ref; });
      if (fresh) round.priv.emplace_back(p, ref);
    }
    expect_collect_matches_oracle(round, "trial " + std::to_string(trial));
  }
}

TEST(FrameLayer, ViewSharesOwnershipOfOneBuffer) {
  const std::byte raw[] = {std::byte{1}, std::byte{2}, std::byte{3}};
  const FrameView a = make_frame_view(raw);
  const FrameView b{a.owner, a.bytes.first(2)};  // narrowed decorator view
  EXPECT_EQ(a.owner.get(), b.owner.get());
  EXPECT_EQ(a.owner.use_count(), 2);
  EXPECT_EQ(b.bytes.data(), a.bytes.data()) << "narrowing must not copy";
  ASSERT_EQ(a.bytes.size(), 3u);
  EXPECT_EQ(a.bytes[2], std::byte{3});
}

TEST(FrameLayer, FrameMailboxDrainsDeposits) {
  FrameMailbox box;
  EXPECT_EQ(box.size(), 0u);
  const std::byte raw[] = {std::byte{7}};
  const FrameView shared = make_frame_view(raw);
  box.deposit(shared);
  box.deposit(shared);
  EXPECT_EQ(box.size(), 2u);
  const auto views = box.drain();
  ASSERT_EQ(views.size(), 2u);
  EXPECT_EQ(views[0].owner.get(), views[1].owner.get()) << "deposits share the frame";
  EXPECT_EQ(box.size(), 0u);
}

TEST(FrameLayer, HubFanOutSharesOneFrameAcrossEndpoints) {
  InMemoryHub hub;
  auto a = hub.make_endpoint();
  auto b = hub.make_endpoint();
  auto c = hub.make_endpoint();
  const std::byte raw[] = {std::byte{42}, std::byte{43}};
  a->broadcast(raw);

  const auto va = a->drain_views();
  const auto vb = b->drain_views();
  const auto vc = c->drain_views();
  ASSERT_EQ(va.size(), 1u);
  ASSERT_EQ(vb.size(), 1u);
  ASSERT_EQ(vc.size(), 1u);
  EXPECT_EQ(va[0].bytes.data(), vb[0].bytes.data()) << "one buffer, three views";
  EXPECT_EQ(vb[0].bytes.data(), vc[0].bytes.data());

  const FanoutCounters fanout = hub.fanout();
  EXPECT_EQ(fanout.unique_payloads, 1u);
  EXPECT_EQ(fanout.deliveries, 3u);
  EXPECT_EQ(fanout.bytes_delivered, 6u);
}

}  // namespace
}  // namespace idonly
