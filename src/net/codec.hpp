// Wire codec for Message.
//
// The simulators exchange in-memory structs, but a deployment of these
// protocols sends bytes; this codec fixes the frame format so protocol state
// machines can be lifted onto a real transport unchanged. Format (version-
// prefixed, little-endian varints):
//
//   byte 0      format version (kWireVersion)
//   byte 1      MsgKind
//   byte 2      flags (bit 0: value is ⊥)
//   varint      sender
//   varint      subject
//   varint      instance
//   varint      round_tag
//   8 bytes     IEEE-754 value payload (omitted when ⊥; never NaN)
//
// decode() is total: any input that is not a well-formed frame yields
// nullopt (never UB, never a partial message) — a Byzantine peer controls
// these bytes.
//
// Slab format: the one batch format on every wire. A slab carries one
// round's frames from one sender to one destination — a UDP broadcast by
// the runtime's RoundDriver, a worker-to-worker mesh transfer in the
// distributed shard engine (src/dist/). Layout:
//
//   byte 0      kShardSlabMagic (0xAC — never a valid frame: version byte is 1)
//   varint      source shard id (the UDP runtime writes 0)
//   varint      round the frames were sent in (1-based)
//   varint      frame count (> 0 — an empty slab is never sent)
//   repeated:   varint destination tag (0 = broadcast, id+1 = unicast to id),
//               varint frame length (> 0), then that many frame bytes
//
// The first three fields are the SLAB HEADER, which the mesh beacon shares
// (see below); one writer/reader pair (put_slab_header / read_slab_header)
// handles it for every payload kind. parse_shard_slab() is structural only —
// it slices the payload into routed per-frame subspans without decoding
// them, so receivers apply the normal per-frame decode()/drop accounting and
// a corrupt inner frame never takes down its slab-mates. It is total like
// decode(): any malformation yields nullopt. The explicit frame count means
// no strict prefix of a slab parses, so truncation is detected before any
// frame is touched. The `ShardSlab` names date from when only the shard
// engine sent slabs; the format is the same on every wire.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/types.hpp"
#include "net/message.hpp"

namespace idonly {

inline constexpr std::uint8_t kWireVersion = 1;

/// Append the encoded frame to `out`; returns the encoded size.
std::size_t encode(const Message& msg, std::vector<std::byte>& out);

/// Encode into a fresh buffer.
[[nodiscard]] std::vector<std::byte> encode(const Message& msg);

/// Decode one frame occupying the whole span. Returns nullopt on any
/// malformation: wrong version, unknown kind, truncation, trailing bytes,
/// non-canonical varints, or a NaN value payload (outside Value's domain;
/// ±inf, -0.0 and denormals decode as sent).
[[nodiscard]] std::optional<Message> decode(std::span<const std::byte> bytes);

/// Size encode() would produce, without encoding (pure arithmetic — safe on
/// a hot path; the mailbox layer caches it per message for byte accounting).
[[nodiscard]] std::size_t encoded_size(const Message& msg) noexcept;

/// LEB128-style unsigned varint used by the codec (exposed for tests).
void put_varint(std::uint64_t value, std::vector<std::byte>& out);
/// Reads a varint at `offset`, advancing it; nullopt on truncation/overflow.
[[nodiscard]] std::optional<std::uint64_t> get_varint(std::span<const std::byte> bytes,
                                                      std::size_t& offset);

/// First byte of a slab. Never a valid frame (version byte is 1).
inline constexpr std::uint8_t kShardSlabMagic = 0xAC;

/// The header a slab and a mesh beacon start with: magic byte, varint
/// source shard, varint round.
struct SlabHeader {
  std::uint8_t magic = 0;
  std::uint32_t shard = 0;
  Round round = 0;
};

/// Appends `header` in wire form.
void put_slab_header(const SlabHeader& header, std::vector<std::byte>& out);

/// Reads the header at the start of `bytes` (any magic byte — callers
/// dispatch on it) and sets `offset` just past it. Total: nullopt on
/// truncation, a malformed varint, a shard that does not fit 32 bits, or a
/// round that is zero or does not fit Round.
[[nodiscard]] std::optional<SlabHeader> read_slab_header(std::span<const std::byte> bytes,
                                                         std::size_t& offset);

/// Builds one slab: header + routed length-prefixed frames. Reusable
/// across rounds via reset() so the send path does not reallocate per round.
class ShardSlabWriter {
 public:
  /// Drops any accumulated frames and starts a slab from `shard` for `round`.
  void reset(std::uint32_t shard, Round round);
  /// Appends one frame routed to `to` (nullopt = broadcast).
  void add(std::optional<NodeId> to, const Message& msg);
  /// Appends already-encoded frame bytes (non-empty) routed to `to`.
  void add_frame(std::optional<NodeId> to, std::span<const std::byte> frame);
  [[nodiscard]] std::size_t frame_count() const noexcept { return frames_; }
  [[nodiscard]] bool empty() const noexcept { return frames_ == 0; }
  /// The full slab (header with the final frame count + frames). Valid
  /// until the next reset()/add().
  [[nodiscard]] std::span<const std::byte> bytes() const;

 private:
  std::uint32_t shard_ = 0;
  Round round_ = 0;
  std::vector<std::byte> body_;
  mutable std::vector<std::byte> buffer_;  // assembled lazily by bytes()
  std::size_t frames_ = 0;
};

/// Result of a structural slab parse: the header plus one routed subspan
/// per frame (zero-copy — spans alias the parsed bytes).
struct ShardSlabView {
  std::uint32_t shard = 0;
  Round round = 0;
  struct Entry {
    std::optional<NodeId> to;  ///< empty → broadcast
    std::span<const std::byte> frame;
  };
  std::vector<Entry> entries;
};

/// Structurally parse a slab. Total: nullopt on bad magic, malformed
/// header, a frame count that disagrees with the body, zero frames,
/// zero-length or overlong frame prefixes, or trailing bytes.
[[nodiscard]] std::optional<ShardSlabView> parse_shard_slab(std::span<const std::byte> bytes);

// ---------------------------------------------------------- mesh peering --
// The distributed shard engine's direct worker↔worker mesh (src/dist/)
// carries two more payload kinds on its peer sockets:
//
//   peer hello (handshake, once per socket at fork time):
//     byte 0    kPeerHelloMagic (0xAD)
//     varint    sender's shard id
//     varint    total shard count (echoed so both ends pin ONE topology)
//
//   empty-round beacon (one per peer per round with no cross-shard traffic):
//     a slab header and nothing else — kPeerBeaconMagic (0xAE), varint
//     sender's shard id, varint round (1-based)
//
// An empty slab is never sent (see above), but a mesh receiver must still
// distinguish "peer has nothing for me this round" from "slab still in
// flight" — the beacon is that explicit absence, which is what lets the
// boundary merge start the moment every peer has spoken. Because slab and
// beacon share the header, read_slab_header() routes either from its first
// bytes. Both parsers are total: a garbled handshake or beacon is rejected
// before any slab is parsed, exactly like a malformed slab.

/// First byte of a mesh handshake payload.
inline constexpr std::uint8_t kPeerHelloMagic = 0xAD;
/// First byte of a mesh empty-round beacon.
inline constexpr std::uint8_t kPeerBeaconMagic = 0xAE;

struct PeerHello {
  std::uint32_t shard = 0;
  std::uint32_t shards = 0;
};

[[nodiscard]] std::vector<std::byte> encode_peer_hello(std::uint32_t shard,
                                                       std::uint32_t shards);
/// Total parse: nullopt on bad magic, truncation, trailing bytes, overflow,
/// a zero shard count, or a shard id outside [0, shards).
[[nodiscard]] std::optional<PeerHello> parse_peer_hello(std::span<const std::byte> bytes);

struct PeerBeacon {
  std::uint32_t shard = 0;
  Round round = 0;
};

[[nodiscard]] std::vector<std::byte> encode_peer_beacon(std::uint32_t shard, Round round);
/// Total parse: nullopt on bad magic, truncation, trailing bytes, overflow,
/// or a round that is zero or does not fit Round.
[[nodiscard]] std::optional<PeerBeacon> parse_peer_beacon(std::span<const std::byte> bytes);

}  // namespace idonly
