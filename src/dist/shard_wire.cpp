#include "dist/shard_wire.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <limits>
#include <set>

namespace idonly {

namespace {

using Clock = std::chrono::steady_clock;

/// Remaining budget in ms against `deadline`; nullopt = block indefinitely.
int remaining_ms(const std::optional<Clock::time_point>& deadline) {
  if (!deadline.has_value()) return -1;
  const auto left =
      std::chrono::duration_cast<std::chrono::milliseconds>(*deadline - Clock::now()).count();
  return left <= 0 ? 0 : static_cast<int>(left);
}

bool send_all(int fd, const std::byte* data, std::size_t size) {
  std::size_t sent = 0;
  while (sent < size) {
    const ssize_t n = ::send(fd, data + sent, size - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

RecvStatus recv_all(int fd, std::byte* data, std::size_t size,
                    const std::optional<Clock::time_point>& deadline) {
  std::size_t got = 0;
  while (got < size) {
    pollfd pfd{fd, POLLIN, 0};
    const int budget = remaining_ms(deadline);
    if (deadline.has_value() && budget == 0) return RecvStatus::kTimeout;
    const int ready = ::poll(&pfd, 1, budget);
    if (ready < 0) {
      if (errno == EINTR) continue;
      return RecvStatus::kError;
    }
    if (ready == 0) return RecvStatus::kTimeout;
    const ssize_t n = ::recv(fd, data + got, size - got, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      // A reset from a killed peer reads the same as an orderly close here:
      // either way the worker is gone.
      if (errno == ECONNRESET) return RecvStatus::kEof;
      return RecvStatus::kError;
    }
    if (n == 0) return RecvStatus::kEof;
    got += static_cast<std::size_t>(n);
  }
  return RecvStatus::kOk;
}

/// Control payloads top out at the final trace shipment; 1 GiB is a
/// generous sanity bound, not a tuning knob.
constexpr std::uint32_t kMaxPayload = 1u << 30;

}  // namespace

bool send_frame(int fd, ShardMsgType type, std::span<const std::byte> payload) {
  if (payload.size() > kMaxPayload) return false;
  std::byte header[5];
  const auto len = static_cast<std::uint32_t>(payload.size());
  header[0] = static_cast<std::byte>(len & 0xFF);
  header[1] = static_cast<std::byte>((len >> 8) & 0xFF);
  header[2] = static_cast<std::byte>((len >> 16) & 0xFF);
  header[3] = static_cast<std::byte>((len >> 24) & 0xFF);
  header[4] = static_cast<std::byte>(type);
  if (!send_all(fd, header, sizeof header)) return false;
  return payload.empty() || send_all(fd, payload.data(), payload.size());
}

RecvStatus recv_frame(int fd, ShardMsgType& type, std::vector<std::byte>& payload,
                      int timeout_ms) {
  std::optional<Clock::time_point> deadline;
  if (timeout_ms >= 0) deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
  std::byte header[5];
  RecvStatus status = recv_all(fd, header, sizeof header, deadline);
  if (status != RecvStatus::kOk) return status;
  const std::uint32_t len = static_cast<std::uint32_t>(header[0]) |
                            (static_cast<std::uint32_t>(header[1]) << 8) |
                            (static_cast<std::uint32_t>(header[2]) << 16) |
                            (static_cast<std::uint32_t>(header[3]) << 24);
  if (len > kMaxPayload) return RecvStatus::kError;
  type = static_cast<ShardMsgType>(header[4]);
  payload.resize(len);
  if (len == 0) return RecvStatus::kOk;
  return recv_all(fd, payload.data(), len, deadline);
}

// -------------------------------------------------------- serialization --

void ByteWriter::u32(std::uint32_t v) {
  for (int i = 0; i < 4; ++i) buf_.push_back(static_cast<std::byte>((v >> (8 * i)) & 0xFF));
}

void ByteWriter::u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) buf_.push_back(static_cast<std::byte>((v >> (8 * i)) & 0xFF));
}

void ByteWriter::f64(double v) {
  std::uint64_t bits = 0;
  static_assert(sizeof bits == sizeof v);
  std::memcpy(&bits, &v, sizeof bits);
  u64(bits);
}

void ByteWriter::str(const std::string& v) {
  u64(v.size());
  const auto* data = reinterpret_cast<const std::byte*>(v.data());
  buf_.insert(buf_.end(), data, data + v.size());
}

bool ByteReader::take(std::size_t n) noexcept {
  if (failed_ || data_.size() - pos_ < n) {
    failed_ = true;
    return false;
  }
  return true;
}

std::uint8_t ByteReader::u8() {
  if (!take(1)) return 0;
  return static_cast<std::uint8_t>(data_[pos_++]);
}

std::uint32_t ByteReader::u32() {
  if (!take(4)) return 0;
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(data_[pos_++]) << (8 * i);
  return v;
}

std::uint64_t ByteReader::u64() {
  if (!take(8)) return 0;
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(data_[pos_++]) << (8 * i);
  return v;
}

double ByteReader::f64() {
  const std::uint64_t bits = u64();
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof v);
  return failed_ ? 0.0 : v;
}

std::string ByteReader::str() {
  const std::uint64_t n = u64();
  if (!take(n)) return {};
  std::string out(reinterpret_cast<const char*>(data_.data() + pos_), n);
  pos_ += n;
  return out;
}

// ------------------------------------------------------ typed payloads --

std::vector<std::byte> encode_status(const ShardStatus& status) {
  ByteWriter w;
  w.u64(status.done.size());
  for (const auto& [id, done] : status.done) {
    w.u64(id);
    w.u8(done ? 1 : 0);
  }
  return w.take();
}

std::optional<ShardStatus> decode_status(std::span<const std::byte> payload) {
  ByteReader r(payload);
  ShardStatus status;
  const std::uint64_t n = r.u64();
  for (std::uint64_t i = 0; i < n && !r.failed(); ++i) {
    const NodeId id = r.u64();
    const bool done = r.u8() != 0;
    status.done.emplace_back(id, done);
  }
  if (!r.done()) return std::nullopt;
  return status;
}

namespace {

void encode_fault_counters(ByteWriter& w, const FaultCounters& f) {
  w.u64(f.drops);
  w.u64(f.duplicates);
  w.u64(f.delays);
  w.u64(f.corrupts);
  w.u64(f.partition_drops);
  w.u64(f.crash_drops);
  w.u64(f.truncations);
}

FaultCounters decode_fault_counters(ByteReader& r) {
  FaultCounters f;
  f.drops = r.u64();
  f.duplicates = r.u64();
  f.delays = r.u64();
  f.corrupts = r.u64();
  f.partition_drops = r.u64();
  f.crash_drops = r.u64();
  f.truncations = r.u64();
  return f;
}

/// Absent ids and rounds on the wire: no run draws either value.
constexpr NodeId kNoNode = std::numeric_limits<NodeId>::max();
constexpr Round kNoRound = -1;

/// nullopt, ⊥ or a real: a tag byte, then the real's bits.
void encode_value(ByteWriter& w, const std::optional<Value>& value) {
  w.u8(!value.has_value() ? 0 : value->is_bot() ? 1 : 2);
  if (value.has_value() && !value->is_bot()) w.f64(value->as_real());
}

std::optional<Value> decode_value(ByteReader& r) {
  const std::uint8_t tag = r.u8();
  if (tag == 0) return std::nullopt;
  return tag == 1 ? Value::bot() : Value::real(r.f64());
}

/// Every protocol's fields: a field the node's protocol leaves empty costs
/// its length word or flag.
void encode_node(ByteWriter& w, NodeId id, const NodeOutcome& node) {
  w.u64(id);
  w.u8(node.done ? 1 : 0);
  encode_value(w, node.output);
  w.i64(node.decision_phase.value_or(kNoRound));
  w.i64(node.accept_round.value_or(kNoRound));
  w.f64(node.estimate);
  w.u64(node.trajectory.size());
  for (double v : node.trajectory) w.f64(v);
  w.u64(node.history.size());
  for (const RotorProcess::RoundRecord& record : node.history) {
    w.i64(record.rotor_round);
    w.u64(record.selected.value_or(kNoNode));
    encode_value(w, record.accepted_opinion);
    w.u64(record.accepted_from.value_or(kNoNode));
  }
  w.u64(node.id_set.size());
  for (NodeId member : node.id_set) w.u64(member);
  w.u64(node.chain.size());
  for (const ChainEntry& entry : node.chain) {
    w.i64(entry.instance);
    w.u64(entry.witness);
    w.f64(entry.event);
  }
}

std::pair<NodeId, NodeOutcome> decode_node(ByteReader& r) {
  const auto id_or_none = [](NodeId id) {
    return id == kNoNode ? std::nullopt : std::optional<NodeId>(id);
  };
  const NodeId id = r.u64();
  NodeOutcome node;
  node.done = r.u8() != 0;
  node.output = decode_value(r);
  if (const std::int64_t phase = r.i64(); phase != kNoRound) node.decision_phase = phase;
  if (const Round round = r.i64(); round != kNoRound) node.accept_round = round;
  node.estimate = r.f64();
  for (std::uint64_t k = r.u64(); k > 0 && !r.failed(); --k) node.trajectory.push_back(r.f64());
  for (std::uint64_t k = r.u64(); k > 0 && !r.failed(); --k) {
    RotorProcess::RoundRecord& record = node.history.emplace_back();
    record.rotor_round = r.i64();
    record.selected = id_or_none(r.u64());
    record.accepted_opinion = decode_value(r);
    record.accepted_from = id_or_none(r.u64());
  }
  for (std::uint64_t k = r.u64(); k > 0 && !r.failed(); --k) node.id_set.insert(r.u64());
  for (std::uint64_t k = r.u64(); k > 0 && !r.failed(); --k) {
    ChainEntry& entry = node.chain.emplace_back();
    entry.instance = r.i64();
    entry.witness = r.u64();
    entry.event = r.f64();
  }
  return {id, std::move(node)};
}

}  // namespace

std::vector<std::byte> encode_result(const ShardResult& result) {
  ByteWriter w;
  for (std::uint64_t v : result.metrics.messages.sent) w.u64(v);
  for (std::uint64_t v : result.metrics.messages.delivered) w.u64(v);
  w.u64(result.metrics.fanout.deliveries);
  w.u64(result.metrics.fanout.unique_payloads);
  w.u64(result.metrics.fanout.dedup_hits);
  w.u64(result.metrics.fanout.bytes_delivered);
  w.u64(result.metrics.fanout.slab_sends);
  w.u64(result.metrics.fanout.send_failures);
  w.u64(result.metrics.overlap.rounds_overlapped);
  w.u64(result.metrics.overlap.recv_stall_ns);
  w.u64(result.metrics.overlap.slabs_direct);
  w.i64(result.metrics.rounds_executed);
  w.u64(result.metrics.done_round.size());
  for (const auto& [id, round] : result.metrics.done_round) {
    w.u64(id);
    w.i64(round);
  }
  w.u8(result.has_chaos ? 1 : 0);
  if (result.has_chaos) {
    w.u64(result.chaos.per_phase.size());
    for (const FaultCounters& f : result.chaos.per_phase) encode_fault_counters(w, f);
  }
  encode_fault_counters(w, result.wire_faults);
  w.u64(result.nodes.size());
  for (const auto& [id, node] : result.nodes) encode_node(w, id, node);
  w.u64(result.rings.size());
  for (const ShardResult::Ring& ring : result.rings) {
    w.u64(ring.node);
    w.u64(ring.next_seq);
    w.u64(ring.evicted);
    w.u64(ring.records.size());
    for (const TraceRecord& rec : ring.records) {
      w.u8(static_cast<std::uint8_t>(rec.kind));
      w.u64(rec.node);
      w.i64(rec.round);
      w.u64(rec.seq);
      w.u64(rec.from);
      w.u64(rec.to);
      w.u64(rec.link_seq);
      w.i64(rec.extra);
      w.str(rec.detail);
    }
  }
  return w.take();
}

std::optional<ShardResult> decode_result(std::span<const std::byte> payload) {
  ByteReader r(payload);
  ShardResult result;
  for (std::uint64_t& v : result.metrics.messages.sent) v = r.u64();
  for (std::uint64_t& v : result.metrics.messages.delivered) v = r.u64();
  result.metrics.fanout.deliveries = r.u64();
  result.metrics.fanout.unique_payloads = r.u64();
  result.metrics.fanout.dedup_hits = r.u64();
  result.metrics.fanout.bytes_delivered = r.u64();
  result.metrics.fanout.slab_sends = r.u64();
  result.metrics.fanout.send_failures = r.u64();
  result.metrics.overlap.rounds_overlapped = r.u64();
  result.metrics.overlap.recv_stall_ns = r.u64();
  result.metrics.overlap.slabs_direct = r.u64();
  result.metrics.rounds_executed = r.i64();
  const std::uint64_t done_count = r.u64();
  for (std::uint64_t i = 0; i < done_count && !r.failed(); ++i) {
    const NodeId id = r.u64();
    const Round round = r.i64();
    result.metrics.done_round.emplace(id, round);
  }
  result.has_chaos = r.u8() != 0;
  if (result.has_chaos) {
    const std::uint64_t phases = r.u64();
    for (std::uint64_t i = 0; i < phases && !r.failed(); ++i) {
      result.chaos.per_phase.push_back(decode_fault_counters(r));
    }
  }
  result.wire_faults = decode_fault_counters(r);
  const std::uint64_t nodes = r.u64();
  for (std::uint64_t i = 0; i < nodes && !r.failed(); ++i) result.nodes.push_back(decode_node(r));
  const std::uint64_t rings = r.u64();
  std::set<NodeId> ring_nodes;
  for (std::uint64_t i = 0; i < rings && !r.failed(); ++i) {
    ShardResult::Ring ring;
    ring.node = r.u64();
    // One worker holds one ring per node: a repeat is a garbled result.
    if (!ring_nodes.insert(ring.node).second) return std::nullopt;
    ring.next_seq = r.u64();
    ring.evicted = r.u64();
    const std::uint64_t records = r.u64();
    for (std::uint64_t k = 0; k < records && !r.failed(); ++k) {
      TraceRecord rec;
      // A byte that names no kind is a garbled or stale result: reject it
      // rather than export a record of unknown kind.
      const std::uint8_t kind = r.u8();
      if (kind > static_cast<std::uint8_t>(TraceEventKind::kProtocol)) return std::nullopt;
      rec.kind = static_cast<TraceEventKind>(kind);
      rec.node = r.u64();
      rec.round = r.i64();
      rec.seq = r.u64();
      rec.from = r.u64();
      rec.to = r.u64();
      rec.link_seq = r.u64();
      rec.extra = r.i64();
      rec.detail = r.str();
      ring.records.push_back(std::move(rec));
    }
    result.rings.push_back(std::move(ring));
  }
  if (!r.done()) return std::nullopt;
  return result;
}

}  // namespace idonly
