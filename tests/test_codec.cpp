// Wire codec: exact round-trips for every field combination and total
// robustness against malformed frames (a Byzantine peer controls the bytes).
#include <gtest/gtest.h>

#include <bit>
#include <limits>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "core/consensus.hpp"
#include "harness/scenario.hpp"
#include "net/codec.hpp"
#include "net/sync_simulator.hpp"

namespace idonly {
namespace {

Message sample_message() {
  Message m;
  m.sender = 0xDEADBEEFCAFEULL;
  m.kind = MsgKind::kStrongPrefer;
  m.subject = 42;
  m.instance = 7;
  m.value = Value::real(-3.25);
  m.round_tag = 19;
  return m;
}

TEST(Codec, RoundTripAllFields) {
  const Message m = sample_message();
  const auto decoded = decode(encode(m));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, m);
}

TEST(Codec, RoundTripBotValue) {
  Message m = sample_message();
  m.value = Value::bot();
  const auto bytes = encode(m);
  const auto decoded = decode(bytes);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_TRUE(decoded->value.is_bot());
  EXPECT_EQ(*decoded, m);
  // ⊥ frames are 8 bytes shorter than real-valued ones.
  Message with_value = m;
  with_value.value = Value::real(0.0);
  EXPECT_EQ(encode(with_value).size(), bytes.size() + 8);
}

TEST(Codec, RoundTripEveryKind) {
  for (int k = 0; k <= 15; ++k) {
    Message m;
    m.kind = static_cast<MsgKind>(k);
    m.sender = static_cast<NodeId>(k * 1000 + 1);
    const auto decoded = decode(encode(m));
    ASSERT_TRUE(decoded.has_value()) << k;
    EXPECT_EQ(decoded->kind, m.kind);
  }
}

TEST(Codec, RoundTripRandomizedSweep) {
  Rng rng(2024);
  for (int trial = 0; trial < 2000; ++trial) {
    Message m;
    m.sender = rng.next();
    m.kind = static_cast<MsgKind>(rng.below(16));
    m.subject = rng.next() >> static_cast<int>(rng.below(40));
    m.instance = static_cast<InstanceTag>(rng.below(1ull << 32));
    m.round_tag = static_cast<std::uint32_t>(rng.below(1ull << 32));
    m.value = rng.chance(0.25) ? Value::bot() : Value::real(rng.uniform(-1e12, 1e12));
    const auto decoded = decode(encode(m));
    ASSERT_TRUE(decoded.has_value()) << trial;
    EXPECT_EQ(*decoded, m) << trial;
  }
}

TEST(Codec, ExtremeDoublesSurvive) {
  for (double v : {0.0, -0.0, 1e-308, -1.7976931348623157e308,
                   std::numeric_limits<double>::infinity(),
                   -std::numeric_limits<double>::infinity(),
                   std::numeric_limits<double>::denorm_min()}) {
    Message m;
    m.value = Value::real(v);
    const auto decoded = decode(encode(m));
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->value.as_real(), v);
  }
}

TEST(Codec, NanPayloadsRejected) {
  // NaN breaks Value's strict weak order (a NaN key would swallow every real
  // in a sorted quorum tally), so a frame carrying one is malformed.
  for (double v : {std::numeric_limits<double>::quiet_NaN(),
                   -std::numeric_limits<double>::quiet_NaN(),
                   std::numeric_limits<double>::signaling_NaN(),
                   std::bit_cast<double>(0x7FF0000000000001ULL),
                   std::bit_cast<double>(0xFFFFFFFFFFFFFFFFULL)}) {
    Message m = sample_message();
    m.value = Value::real(v);
    EXPECT_FALSE(decode(encode(m)).has_value()) << std::bit_cast<std::uint64_t>(v);
  }
  // The rest of the IEEE-754 edge still round-trips bit for bit.
  for (double v : {std::numeric_limits<double>::infinity(),
                   -std::numeric_limits<double>::infinity(), -0.0,
                   std::numeric_limits<double>::denorm_min(),
                   -std::numeric_limits<double>::denorm_min(),
                   std::numeric_limits<double>::min() / 2}) {
    Message m = sample_message();
    m.value = Value::real(v);
    const auto decoded = decode(encode(m));
    ASSERT_TRUE(decoded.has_value()) << v;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(decoded->value.as_real()),
              std::bit_cast<std::uint64_t>(v));
  }
}

TEST(Codec, TruncationAtEveryPrefixRejected) {
  const auto bytes = encode(sample_message());
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_FALSE(decode(std::span(bytes.data(), len)).has_value()) << "prefix " << len;
  }
  EXPECT_TRUE(decode(bytes).has_value());
}

TEST(Codec, TrailingBytesRejected) {
  auto bytes = encode(sample_message());
  bytes.push_back(std::byte{0});
  EXPECT_FALSE(decode(bytes).has_value());
}

TEST(Codec, WrongVersionRejected) {
  auto bytes = encode(sample_message());
  bytes[0] = std::byte{99};
  EXPECT_FALSE(decode(bytes).has_value());
}

TEST(Codec, UnknownKindRejected) {
  auto bytes = encode(sample_message());
  bytes[1] = std::byte{200};
  EXPECT_FALSE(decode(bytes).has_value());
}

TEST(Codec, UnknownFlagBitsRejected) {
  auto bytes = encode(sample_message());
  bytes[2] = std::byte{0x82};
  EXPECT_FALSE(decode(bytes).has_value());
}

TEST(Codec, RandomGarbageNeverCrashes) {
  Rng rng(7);
  int accepted = 0;
  for (int trial = 0; trial < 5000; ++trial) {
    std::vector<std::byte> garbage(rng.below(64));
    for (auto& b : garbage) b = static_cast<std::byte>(rng.below(256));
    if (decode(garbage).has_value()) accepted += 1;
  }
  // Random bytes almost never form a valid frame (version byte + canonical
  // varints + exact length must all line up).
  EXPECT_LT(accepted, 5);
}

TEST(Codec, BitflipFuzzNeverCrashesAndNeverMisparsesLength) {
  Rng rng(11);
  const auto original = encode(sample_message());
  for (int trial = 0; trial < 2000; ++trial) {
    auto bytes = original;
    const std::size_t pos = rng.below(bytes.size());
    bytes[pos] ^= static_cast<std::byte>(1u << rng.below(8));
    const auto decoded = decode(bytes);  // must not crash; may or may not parse
    if (decoded.has_value()) {
      // If it parses, re-encoding must reproduce the mutated frame exactly
      // (canonical encoding ⇒ parse/print is a bijection on valid frames).
      EXPECT_EQ(encode(*decoded), bytes);
    }
  }
}

TEST(Codec, VarintCanonicalAndBoundary) {
  for (std::uint64_t v :
       {0ull, 1ull, 127ull, 128ull, 16383ull, 16384ull, ~0ull, 1ull << 63}) {
    std::vector<std::byte> bytes;
    put_varint(v, bytes);
    std::size_t offset = 0;
    const auto decoded = get_varint(bytes, offset);
    ASSERT_TRUE(decoded.has_value()) << v;
    EXPECT_EQ(*decoded, v);
    EXPECT_EQ(offset, bytes.size());
  }
  // Non-canonical: 0x80 0x00 encodes 0 with padding — must be rejected.
  std::vector<std::byte> padded{std::byte{0x80}, std::byte{0x00}};
  std::size_t offset = 0;
  EXPECT_FALSE(get_varint(padded, offset).has_value());
}

// ------------------------------------------------------------------ slabs --

std::vector<Message> slab_sample_messages() {
  Message a = sample_message();
  Message b;
  b.sender = 7;
  b.kind = MsgKind::kEcho;
  b.subject = 9;
  b.value = Value::bot();  // one short (⊥) frame between two long ones
  Message c;
  c.sender = 123456789;
  c.kind = MsgKind::kPresent;
  c.value = Value::real(2.5);
  return {a, b, c};
}

using RoutedMessage = std::pair<std::optional<NodeId>, Message>;

std::vector<RoutedMessage> shard_sample_messages() {
  const auto messages = slab_sample_messages();
  // One broadcast, one unicast to a plain id, one unicast to id 0 (tag 1 —
  // the routing tag's 0-means-broadcast offset must not eat node 0).
  return {{std::nullopt, messages[0]}, {NodeId{7}, messages[1]}, {NodeId{0}, messages[2]}};
}

Frame build_shard_slab(std::uint32_t shard, Round round,
                       const std::vector<RoutedMessage>& routed) {
  ShardSlabWriter writer;
  writer.reset(shard, round);
  for (const auto& [to, m] : routed) writer.add(to, m);
  EXPECT_EQ(writer.frame_count(), routed.size());
  EXPECT_EQ(writer.empty(), routed.empty());
  const auto bytes = writer.bytes();
  return Frame(bytes.begin(), bytes.end());
}

// The slab as RoundDriver sends it on the UDP wire: shard 0, every entry a
// broadcast.
Frame build_slab(Round round, const std::vector<Message>& messages) {
  std::vector<RoutedMessage> routed;
  for (const Message& m : messages) routed.emplace_back(std::nullopt, m);
  return build_shard_slab(/*shard=*/0, round, routed);
}

TEST(CodecSlab, RoundTripsEveryFrameAndAMultiByteRound) {
  const auto messages = slab_sample_messages();
  const Frame slab = build_slab(/*round=*/300, messages);  // round > 127: 2-byte varint
  ASSERT_EQ(static_cast<std::uint8_t>(slab[0]), kShardSlabMagic);
  const auto view = parse_shard_slab(slab);
  ASSERT_TRUE(view.has_value());
  EXPECT_EQ(view->shard, 0u);
  EXPECT_EQ(view->round, 300);
  ASSERT_EQ(view->entries.size(), messages.size());
  for (std::size_t i = 0; i < messages.size(); ++i) {
    EXPECT_FALSE(view->entries[i].to.has_value()) << i;
    const auto decoded = decode(view->entries[i].frame);
    ASSERT_TRUE(decoded.has_value()) << i;
    EXPECT_EQ(*decoded, messages[i]) << i;
  }
}

TEST(CodecSlab, ResetDiscardsThePreviousRoundsFrames) {
  ShardSlabWriter writer;
  writer.reset(0, 1);
  writer.add(std::nullopt, sample_message());
  writer.add(std::nullopt, sample_message());
  writer.reset(0, 2);
  EXPECT_EQ(writer.frame_count(), 0u);
  writer.add(std::nullopt, sample_message());
  const auto view = parse_shard_slab(writer.bytes());
  ASSERT_TRUE(view.has_value());
  EXPECT_EQ(view->round, 2);
  EXPECT_EQ(view->entries.size(), 1u);
}

TEST(CodecSlab, StructuralRejects) {
  const Frame slab = build_slab(5, slab_sample_messages());
  EXPECT_FALSE(parse_shard_slab({}).has_value()) << "empty";
  // 0xAB was the retired uncounted slab's magic; 0x01 is a frame's version
  // byte and the varint of round 1.
  for (const std::byte magic : {std::byte{0xAB}, std::byte{0x01}}) {
    Frame wrong_magic = slab;
    wrong_magic[0] = magic;
    EXPECT_FALSE(parse_shard_slab(wrong_magic).has_value()) << "magic mismatch";
  }
  // Header without a frame count.
  Frame countless;
  countless.push_back(std::byte{kShardSlabMagic});
  put_varint(0, countless);  // shard
  put_varint(5, countless);  // round
  EXPECT_FALSE(parse_shard_slab(countless).has_value()) << "no frame count";
  // Round 0 is not a valid protocol round (rounds are 1-based).
  Frame round_zero;
  round_zero.push_back(std::byte{kShardSlabMagic});
  put_varint(0, round_zero);  // shard
  put_varint(0, round_zero);  // round
  put_varint(1, round_zero);  // one frame
  put_varint(0, round_zero);  // broadcast tag
  put_varint(1, round_zero);
  round_zero.push_back(std::byte{0x42});
  EXPECT_FALSE(parse_shard_slab(round_zero).has_value()) << "round 0";
  // A length prefix that overruns the remaining bytes.
  Frame overrun;
  overrun.push_back(std::byte{kShardSlabMagic});
  put_varint(0, overrun);    // shard
  put_varint(5, overrun);    // round
  put_varint(1, overrun);    // one frame
  put_varint(0, overrun);    // broadcast tag
  put_varint(100, overrun);  // 100 bytes promised, one present
  overrun.push_back(std::byte{0x42});
  EXPECT_FALSE(parse_shard_slab(overrun).has_value()) << "length overrun";
}

TEST(CodecSlab, BitflipFuzzNeverCrashesAndNeverYieldsOutOfBoundsFrames) {
  Rng rng(2025);
  const Frame original = build_slab(17, slab_sample_messages());
  for (int trial = 0; trial < 4000; ++trial) {
    Frame bytes = original;
    const std::size_t pos = rng.below(bytes.size());
    bytes[pos] ^= static_cast<std::byte>(1u << rng.below(8));
    const auto view = parse_shard_slab(bytes);  // must not crash; may or may not parse
    if (!view.has_value()) continue;
    const std::byte* begin = bytes.data();
    const std::byte* end = bytes.data() + bytes.size();
    for (const auto& entry : view->entries) {
      ASSERT_GE(entry.frame.data(), begin);
      ASSERT_LE(entry.frame.data() + entry.frame.size(), end);
      (void)decode(entry.frame);  // inner frames may be garbage; decode must cope
    }
  }
}

TEST(CodecShardSlab, RoundTripsHeaderRoutingTagsAndEveryFrame) {
  const auto routed = shard_sample_messages();
  // round > 127: a multi-byte round varint.
  const Frame slab = build_shard_slab(/*shard=*/5, /*round=*/300, routed);
  ASSERT_EQ(static_cast<std::uint8_t>(slab[0]), kShardSlabMagic);
  const auto view = parse_shard_slab(slab);
  ASSERT_TRUE(view.has_value());
  EXPECT_EQ(view->shard, 5u);
  EXPECT_EQ(view->round, 300);
  ASSERT_EQ(view->entries.size(), routed.size());
  for (std::size_t i = 0; i < routed.size(); ++i) {
    EXPECT_EQ(view->entries[i].to, routed[i].first) << "entry " << i;
    const auto decoded = decode(view->entries[i].frame);
    ASSERT_TRUE(decoded.has_value()) << "entry " << i;
    EXPECT_EQ(*decoded, routed[i].second) << "entry " << i;
  }
}

TEST(CodecShardSlab, ResetDiscardsThePreviousRoundsFrames) {
  ShardSlabWriter writer;
  writer.reset(0, 1);
  writer.add(std::nullopt, sample_message());
  writer.reset(3, 2);
  EXPECT_TRUE(writer.empty());
  writer.add(NodeId{9}, sample_message());
  const auto view = parse_shard_slab(writer.bytes());
  ASSERT_TRUE(view.has_value());
  EXPECT_EQ(view->shard, 3u);
  EXPECT_EQ(view->round, 2);
  ASSERT_EQ(view->entries.size(), 1u);
  EXPECT_EQ(view->entries[0].to, NodeId{9});
}

TEST(CodecShardSlab, EmptySlabIsNeverValid) {
  ShardSlabWriter writer;
  writer.reset(1, 4);
  EXPECT_TRUE(writer.empty());
  // A zero-frame shard slab is never sent; the parser rejects one outright.
  EXPECT_FALSE(parse_shard_slab(writer.bytes()).has_value());
}

TEST(CodecShardSlab, TruncationAtEveryPrefixRejected) {
  // The explicit frame count means NO strict prefix parses — a slab cut at a
  // frame boundary is detectably truncated. The worker's wedged-peer
  // handling relies on this, and so does the UDP runtime: a datagram cut
  // short is rejected whole, never read as a shorter slab.
  const Frame slab = build_shard_slab(2, 17, shard_sample_messages());
  for (std::size_t len = 0; len < slab.size(); ++len) {
    EXPECT_FALSE(parse_shard_slab(std::span(slab.data(), len)).has_value())
        << "prefix " << len;
  }
  EXPECT_TRUE(parse_shard_slab(slab).has_value());
}

TEST(CodecShardSlab, StructuralRejects) {
  const Frame slab = build_shard_slab(1, 5, shard_sample_messages());

  Frame wrong_magic = slab;
  wrong_magic[0] = std::byte{kPeerBeaconMagic};
  EXPECT_FALSE(parse_shard_slab(wrong_magic).has_value()) << "magic mismatch";

  // A round beyond Round's range does not fit.
  Frame wide_round;
  wide_round.push_back(std::byte{kShardSlabMagic});
  put_varint(1, wide_round);  // shard
  put_varint(static_cast<std::uint64_t>(std::numeric_limits<Round>::max()) + 1, wide_round);
  put_varint(1, wide_round);  // one frame
  put_varint(0, wide_round);  // broadcast tag
  put_varint(1, wide_round);
  wide_round.push_back(std::byte{0x42});
  EXPECT_FALSE(parse_shard_slab(wide_round).has_value()) << "round overflow";

  // A shard id that does not fit 32 bits.
  Frame wide_shard;
  wide_shard.push_back(std::byte{kShardSlabMagic});
  put_varint(std::uint64_t{1} << 32, wide_shard);
  put_varint(5, wide_shard);
  put_varint(1, wide_shard);
  put_varint(0, wide_shard);
  put_varint(1, wide_shard);
  wide_shard.push_back(std::byte{0x42});
  EXPECT_FALSE(parse_shard_slab(wide_shard).has_value()) << "shard overflow";

  Frame trailing = slab;
  trailing.push_back(std::byte{0});
  EXPECT_FALSE(parse_shard_slab(trailing).has_value());

  // Frame count larger than the body delivers: bump the count varint (the
  // sample's count 3 is a single byte at a fixed offset: magic, shard=1,
  // round=5 are one byte each).
  Frame overcount = slab;
  ASSERT_EQ(static_cast<std::uint8_t>(overcount[3]), 3);
  overcount[3] = std::byte{4};
  EXPECT_FALSE(parse_shard_slab(overcount).has_value());
  Frame undercount = slab;
  undercount[3] = std::byte{2};  // body now has trailing frames
  EXPECT_FALSE(parse_shard_slab(undercount).has_value());

  // Zero-length frame prefix.
  Frame zero_len;
  zero_len.push_back(std::byte{kShardSlabMagic});
  put_varint(0, zero_len);  // shard
  put_varint(1, zero_len);  // round
  put_varint(1, zero_len);  // one frame
  put_varint(0, zero_len);  // broadcast tag
  put_varint(0, zero_len);  // zero length — rejected
  EXPECT_FALSE(parse_shard_slab(zero_len).has_value());
}

TEST(CodecShardSlab, LegacyFormatsAndShardSlabsAreMutuallyUnparseable) {
  // Three byte layouts are left on the wires: the slab, the mesh hello and
  // the mesh beacon. None may be mistaken for another or decode as a bare
  // frame, and the retired one-frame datagram (varint round + codec frame)
  // parses as none of them — it is a counted wire fault, nothing more.
  const Frame slab = build_shard_slab(0, 5, shard_sample_messages());
  const auto hello = encode_peer_hello(0, 2);
  const auto beacon = encode_peer_beacon(0, 5);
  EXPECT_TRUE(parse_shard_slab(slab).has_value());
  EXPECT_TRUE(parse_peer_hello(hello).has_value());
  EXPECT_TRUE(parse_peer_beacon(beacon).has_value());

  EXPECT_FALSE(parse_peer_hello(slab).has_value());
  EXPECT_FALSE(parse_peer_beacon(slab).has_value());
  EXPECT_FALSE(parse_shard_slab(hello).has_value());
  EXPECT_FALSE(parse_peer_beacon(hello).has_value());
  EXPECT_FALSE(parse_shard_slab(beacon).has_value());
  EXPECT_FALSE(parse_peer_hello(beacon).has_value());
  EXPECT_FALSE(decode(slab).has_value());
  EXPECT_FALSE(decode(hello).has_value());
  EXPECT_FALSE(decode(beacon).has_value());

  // varint(171) = 0xAB 0x01 once collided with the retired slab magic.
  for (const std::uint64_t round : {std::uint64_t{1}, std::uint64_t{171}, std::uint64_t{172}}) {
    Frame legacy;
    put_varint(round, legacy);
    encode(Message{.sender = 4, .kind = MsgKind::kPresent, .value = Value::bot()}, legacy);
    EXPECT_FALSE(parse_shard_slab(legacy).has_value()) << "legacy round " << round;
    EXPECT_FALSE(parse_peer_hello(legacy).has_value()) << "legacy round " << round;
    EXPECT_FALSE(parse_peer_beacon(legacy).has_value()) << "legacy round " << round;
  }
}

TEST(CodecShardSlab, BitflipFuzzNeverCrashesAndNeverYieldsOutOfBoundsFrames) {
  const Frame original = build_shard_slab(6, 23, shard_sample_messages());
  Rng rng(0xD157);
  for (int trial = 0; trial < 2000; ++trial) {
    Frame mutated = original;
    const std::size_t index = rng.below(mutated.size());
    mutated[index] ^= static_cast<std::byte>(1u << rng.below(8));
    const auto view = parse_shard_slab(mutated);
    if (!view.has_value()) continue;
    const std::byte* begin = mutated.data();
    const std::byte* end = begin + mutated.size();
    for (const auto& entry : view->entries) {
      EXPECT_GE(entry.frame.data(), begin);
      EXPECT_LE(entry.frame.data() + entry.frame.size(), end);
      EXPECT_GT(entry.frame.size(), 0u);
      (void)decode(entry.frame);  // inner frames may be garbage; decode must cope
    }
  }
}

TEST(CodecShardSlab, RandomGarbageWithTheMagicByteAlmostNeverParses) {
  Rng rng(31);
  int accepted = 0;
  for (int trial = 0; trial < 5000; ++trial) {
    std::vector<std::byte> garbage(1 + rng.below(48));
    garbage[0] = std::byte{kShardSlabMagic};
    for (std::size_t i = 1; i < garbage.size(); ++i) {
      garbage[i] = static_cast<std::byte>(rng.below(256));
    }
    const auto view = parse_shard_slab(garbage);  // must not crash
    if (!view.has_value()) continue;
    accepted += 1;
    for (const auto& entry : view->entries) (void)decode(entry.frame);
  }
  // The frame count and the chained length prefixes must consume the buffer
  // exactly — random tails almost never line up.
  EXPECT_LT(accepted, 250);
}

// ------------------------------------------------------------ mesh peering --

TEST(CodecPeerMesh, HelloAndBeaconRoundTrip) {
  const auto hello_bytes = encode_peer_hello(3, 8);
  ASSERT_EQ(static_cast<std::uint8_t>(hello_bytes[0]), kPeerHelloMagic);
  const auto hello = parse_peer_hello(hello_bytes);
  ASSERT_TRUE(hello.has_value());
  EXPECT_EQ(hello->shard, 3u);
  EXPECT_EQ(hello->shards, 8u);

  const auto beacon_bytes = encode_peer_beacon(5, 300);
  ASSERT_EQ(static_cast<std::uint8_t>(beacon_bytes[0]), kPeerBeaconMagic);
  const auto beacon = parse_peer_beacon(beacon_bytes);
  ASSERT_TRUE(beacon.has_value());
  EXPECT_EQ(beacon->shard, 5u);
  EXPECT_EQ(beacon->round, 300);
}

TEST(CodecPeerMesh, StructuralRejects) {
  const auto hello = encode_peer_hello(2, 4);
  for (std::size_t len = 0; len < hello.size(); ++len) {
    EXPECT_FALSE(parse_peer_hello(std::span(hello.data(), len)).has_value())
        << "prefix " << len;
  }
  Frame trailing(hello.begin(), hello.end());
  trailing.push_back(std::byte{0});
  EXPECT_FALSE(parse_peer_hello(trailing).has_value());
  // shard id outside [0, shards) and a zero shard count.
  EXPECT_FALSE(parse_peer_hello(encode_peer_hello(4, 4)).has_value());
  EXPECT_FALSE(parse_peer_hello(encode_peer_hello(0, 0)).has_value());

  const auto beacon = encode_peer_beacon(1, 7);
  for (std::size_t len = 0; len < beacon.size(); ++len) {
    EXPECT_FALSE(parse_peer_beacon(std::span(beacon.data(), len)).has_value())
        << "prefix " << len;
  }
  Frame beacon_trailing(beacon.begin(), beacon.end());
  beacon_trailing.push_back(std::byte{0});
  EXPECT_FALSE(parse_peer_beacon(beacon_trailing).has_value());
  // Round 0 never appears on the mesh (rounds are 1-based).
  EXPECT_FALSE(parse_peer_beacon(encode_peer_beacon(1, 0)).has_value());
}

TEST(CodecPeerMesh, MeshPayloadKindsAreMutuallyUnparseable) {
  // The three mesh payloads ride one socket; the magic byte must be a
  // perfect discriminator in every direction.
  const auto hello = encode_peer_hello(2, 4);
  const auto beacon = encode_peer_beacon(2, 9);
  const Frame slab = build_shard_slab(2, 9, shard_sample_messages());
  EXPECT_FALSE(parse_peer_beacon(hello).has_value());
  EXPECT_FALSE(parse_shard_slab(hello).has_value());
  EXPECT_FALSE(parse_peer_hello(beacon).has_value());
  EXPECT_FALSE(parse_shard_slab(beacon).has_value());
  EXPECT_FALSE(parse_peer_hello(slab).has_value());
  EXPECT_FALSE(parse_peer_beacon(slab).has_value());
}

TEST(CodecPeerMesh, BitflipFuzzGarbledHandshakeIsAlwaysCaughtBeforeAnySlab) {
  // MeshExchange admits a peer only when its hello parses AND echoes the
  // expected (shard, shards). Canonical varints make the encoding injective,
  // so any single-bit corruption either fails the parse or changes the
  // echoed fields — either way the handshake check rejects the peer before
  // a single slab byte from it is parsed.
  const auto original = encode_peer_hello(6, 23);
  Rng rng(0xAD0F);
  for (int trial = 0; trial < 2000; ++trial) {
    Frame mutated(original.begin(), original.end());
    const std::size_t index = rng.below(mutated.size());
    mutated[index] ^= static_cast<std::byte>(1u << rng.below(8));
    const auto hello = parse_peer_hello(mutated);
    if (!hello.has_value()) continue;
    EXPECT_FALSE(hello->shard == 6u && hello->shards == 23u)
        << "trial " << trial << ": corrupted hello echoed the original topology";
  }
  // Same property for the beacon: a flipped round or shard can never
  // impersonate the expected (peer, round) pair.
  const auto beacon_original = encode_peer_beacon(6, 23);
  for (int trial = 0; trial < 2000; ++trial) {
    Frame mutated(beacon_original.begin(), beacon_original.end());
    const std::size_t index = rng.below(mutated.size());
    mutated[index] ^= static_cast<std::byte>(1u << rng.below(8));
    const auto beacon = parse_peer_beacon(mutated);
    if (!beacon.has_value()) continue;
    EXPECT_FALSE(beacon->shard == 6u && beacon->round == 23)
        << "trial " << trial << ": corrupted beacon echoed the original identity";
  }
}

// ------------------------------------------------------------ integration --

/// Wraps any process so all of its traffic crosses the wire format: outgoing
/// messages are encoded and decoded before reaching the engine, incoming
/// ones re-encoded and decoded before reaching the protocol. A full protocol
/// run through this wrapper proves the codec carries every field the
/// algorithms rely on.
class CodecWrapped final : public Process {
 public:
  explicit CodecWrapped(std::unique_ptr<Process> inner)
      : Process(inner->id()), inner_(std::move(inner)) {}

  void on_round(RoundInfo round, std::span<const Message> inbox,
                std::vector<Outgoing>& out) override {
    std::vector<Message> reencoded;
    reencoded.reserve(inbox.size());
    for (const Message& m : inbox) {
      auto decoded = decode(encode(m));
      ASSERT_TRUE(decoded.has_value());
      reencoded.push_back(*decoded);
    }
    std::vector<Outgoing> raw;
    inner_->on_round(round, reencoded, raw);
    for (Outgoing& o : raw) {
      auto decoded = decode(encode(o.msg));
      ASSERT_TRUE(decoded.has_value());
      out.push_back(Outgoing{o.to, *decoded});
    }
  }
  [[nodiscard]] bool done() const override { return inner_->done(); }

  ConsensusProcess* as_consensus() { return dynamic_cast<ConsensusProcess*>(inner_.get()); }

 private:
  std::unique_ptr<Process> inner_;
};

TEST(CodecIntegration, ConsensusRunsUnchangedThroughWireFormat) {
  ScenarioConfig config;
  config.n_correct = 7;
  config.n_byzantine = 2;
  config.adversary = AdversaryKind::kNoise;
  config.seed = 12;
  const Scenario scenario = make_scenario(config);
  SyncSimulator sim;
  auto factory = [&](NodeId id, std::size_t index) -> std::unique_ptr<Process> {
    return std::make_unique<CodecWrapped>(std::make_unique<ConsensusProcess>(
        id, Value::real(static_cast<double>(index % 2))));
  };
  populate(sim, scenario, factory);
  ASSERT_TRUE(sim.run_until_all_correct_done(200));
  std::optional<Value> first;
  for (NodeId id : scenario.correct_ids) {
    auto* wrapped = sim.get<CodecWrapped>(id);
    ASSERT_NE(wrapped, nullptr);
    auto* p = wrapped->as_consensus();
    ASSERT_TRUE(p->output().has_value());
    if (!first.has_value()) first = *p->output();
    EXPECT_EQ(*p->output(), *first);
  }
}

}  // namespace
}  // namespace idonly
