#include "net/codec.hpp"

#include <bit>
#include <cmath>
#include <cstring>
#include <limits>

namespace idonly {

namespace {
constexpr std::uint8_t kFlagBot = 0x01;
constexpr int kMaxKind = 15;  // MsgKind is a dense enum 0..15
}  // namespace

void put_varint(std::uint64_t value, std::vector<std::byte>& out) {
  while (value >= 0x80) {
    out.push_back(static_cast<std::byte>((value & 0x7F) | 0x80));
    value >>= 7;
  }
  out.push_back(static_cast<std::byte>(value));
}

std::optional<std::uint64_t> get_varint(std::span<const std::byte> bytes, std::size_t& offset) {
  std::uint64_t value = 0;
  int shift = 0;
  while (offset < bytes.size()) {
    const auto b = static_cast<std::uint8_t>(bytes[offset]);
    offset += 1;
    if (shift == 63 && (b & 0x7E) != 0) return std::nullopt;  // overflow
    if (shift > 63) return std::nullopt;
    value |= static_cast<std::uint64_t>(b & 0x7F) << shift;
    if ((b & 0x80) == 0) {
      if (b == 0 && shift != 0) return std::nullopt;  // non-canonical padding
      return value;
    }
    shift += 7;
  }
  return std::nullopt;  // truncated
}

std::size_t encode(const Message& msg, std::vector<std::byte>& out) {
  const std::size_t start = out.size();
  out.push_back(static_cast<std::byte>(kWireVersion));
  out.push_back(static_cast<std::byte>(msg.kind));
  out.push_back(static_cast<std::byte>(msg.value.is_bot() ? kFlagBot : 0));
  put_varint(msg.sender, out);
  put_varint(msg.subject, out);
  put_varint(msg.instance, out);
  put_varint(msg.round_tag, out);
  if (!msg.value.is_bot()) {
    const auto bits = std::bit_cast<std::uint64_t>(msg.value.as_real());
    for (int i = 0; i < 8; ++i) {
      out.push_back(static_cast<std::byte>((bits >> (8 * i)) & 0xFF));
    }
  }
  return out.size() - start;
}

std::vector<std::byte> encode(const Message& msg) {
  std::vector<std::byte> out;
  encode(msg, out);
  return out;
}

std::size_t encoded_size(const Message& msg) noexcept {
  const auto varint_size = [](std::uint64_t v) noexcept {
    std::size_t n = 1;
    while (v >= 0x80) {
      v >>= 7;
      n += 1;
    }
    return n;
  };
  return 3 + varint_size(msg.sender) + varint_size(msg.subject) + varint_size(msg.instance) +
         varint_size(msg.round_tag) + (msg.value.is_bot() ? 0 : 8);
}

std::optional<Message> decode(std::span<const std::byte> bytes) {
  if (bytes.size() < 3) return std::nullopt;
  if (static_cast<std::uint8_t>(bytes[0]) != kWireVersion) return std::nullopt;
  const auto kind_raw = static_cast<std::uint8_t>(bytes[1]);
  if (kind_raw > kMaxKind) return std::nullopt;
  const auto flags = static_cast<std::uint8_t>(bytes[2]);
  if ((flags & ~kFlagBot) != 0) return std::nullopt;

  Message msg;
  msg.kind = static_cast<MsgKind>(kind_raw);
  std::size_t offset = 3;
  const auto sender = get_varint(bytes, offset);
  const auto subject = get_varint(bytes, offset);
  const auto instance = get_varint(bytes, offset);
  const auto round_tag = get_varint(bytes, offset);
  if (!sender || !subject || !instance || !round_tag) return std::nullopt;
  if (*instance > std::numeric_limits<InstanceTag>::max()) return std::nullopt;
  if (*round_tag > std::numeric_limits<std::uint32_t>::max()) return std::nullopt;
  msg.sender = *sender;
  msg.subject = *subject;
  msg.instance = static_cast<InstanceTag>(*instance);
  msg.round_tag = static_cast<std::uint32_t>(*round_tag);

  if ((flags & kFlagBot) != 0) {
    msg.value = Value::bot();
  } else {
    if (bytes.size() - offset < 8) return std::nullopt;
    std::uint64_t bits = 0;
    for (int i = 0; i < 8; ++i) {
      bits |= static_cast<std::uint64_t>(static_cast<std::uint8_t>(bytes[offset + i])) << (8 * i);
    }
    offset += 8;
    const auto real = std::bit_cast<double>(bits);
    if (std::isnan(real)) return std::nullopt;  // outside Value's domain
    msg.value = Value::real(real);
  }
  if (offset != bytes.size()) return std::nullopt;  // trailing bytes
  return msg;
}

void put_slab_header(const SlabHeader& header, std::vector<std::byte>& out) {
  out.push_back(static_cast<std::byte>(header.magic));
  put_varint(header.shard, out);
  put_varint(static_cast<std::uint64_t>(header.round), out);
}

std::optional<SlabHeader> read_slab_header(std::span<const std::byte> bytes,
                                           std::size_t& offset) {
  if (bytes.empty()) return std::nullopt;
  offset = 1;
  const auto shard = get_varint(bytes, offset);
  const auto round = get_varint(bytes, offset);
  if (!shard || !round) return std::nullopt;
  if (*shard > std::numeric_limits<std::uint32_t>::max()) return std::nullopt;
  if (*round == 0 || *round > static_cast<std::uint64_t>(std::numeric_limits<Round>::max())) {
    return std::nullopt;  // rounds are 1-based and must fit Round
  }
  return SlabHeader{static_cast<std::uint8_t>(bytes[0]), static_cast<std::uint32_t>(*shard),
                    static_cast<Round>(*round)};
}

void ShardSlabWriter::reset(std::uint32_t shard, Round round) {
  shard_ = shard;
  round_ = round;
  body_.clear();
  buffer_.clear();
  frames_ = 0;
}

void ShardSlabWriter::add(std::optional<NodeId> to, const Message& msg) {
  put_varint(to.has_value() ? *to + 1 : 0, body_);
  put_varint(encoded_size(msg), body_);
  encode(msg, body_);
  frames_ += 1;
  buffer_.clear();  // header depends on the frame count; reassemble lazily
}

void ShardSlabWriter::add_frame(std::optional<NodeId> to, std::span<const std::byte> frame) {
  put_varint(to.has_value() ? *to + 1 : 0, body_);
  put_varint(frame.size(), body_);
  body_.insert(body_.end(), frame.begin(), frame.end());
  frames_ += 1;
  buffer_.clear();
}

std::span<const std::byte> ShardSlabWriter::bytes() const {
  if (buffer_.empty()) {
    put_slab_header(SlabHeader{kShardSlabMagic, shard_, round_}, buffer_);
    put_varint(frames_, buffer_);
    buffer_.insert(buffer_.end(), body_.begin(), body_.end());
  }
  return buffer_;
}

bool parse_shard_slab(std::span<const std::byte> bytes, ShardSlabView& view) {
  std::size_t offset = 0;
  const auto header = read_slab_header(bytes, offset);
  if (!header || header->magic != kShardSlabMagic) return false;
  const auto count = get_varint(bytes, offset);
  if (!count || *count == 0) return false;  // an empty slab is never sent
  // Every entry takes at least a one-byte tag, a one-byte length and one
  // frame byte: a count the remaining bytes cannot hold is rejected before
  // anything is reserved for it.
  if (*count > (bytes.size() - offset) / 3) return false;
  view.shard = header->shard;
  view.round = header->round;
  view.entries.clear();
  view.entries.reserve(*count);
  for (std::uint64_t i = 0; i < *count; ++i) {
    const auto to_tag = get_varint(bytes, offset);
    if (!to_tag) return false;
    const auto length = get_varint(bytes, offset);
    if (!length) return false;
    if (*length == 0 || *length > bytes.size() - offset) return false;
    ShardSlabView::Entry& entry = view.entries.emplace_back();
    if (*to_tag != 0) entry.to = *to_tag - 1;
    entry.frame = bytes.subspan(offset, *length);
    offset += *length;
  }
  return offset == bytes.size();  // no trailing bytes
}

std::optional<ShardSlabView> parse_shard_slab(std::span<const std::byte> bytes) {
  ShardSlabView view;
  if (!parse_shard_slab(bytes, view)) return std::nullopt;
  return view;
}

std::vector<std::byte> encode_peer_beacon(std::uint32_t shard, Round round) {
  std::vector<std::byte> out;
  put_slab_header(SlabHeader{kPeerBeaconMagic, shard, round}, out);
  return out;
}

std::optional<PeerBeacon> parse_peer_beacon(std::span<const std::byte> bytes) {
  std::size_t offset = 0;
  const auto header = read_slab_header(bytes, offset);
  if (!header || header->magic != kPeerBeaconMagic) return std::nullopt;
  if (offset != bytes.size()) return std::nullopt;  // trailing bytes
  return PeerBeacon{header->shard, header->round};
}

}  // namespace idonly
