// Control-plane framing between the shard coordinator and its workers.
//
// Each worker talks to the coordinator over one AF_UNIX stream socketpair.
// Control frames are `u32 LE payload length + u8 type + payload`; payloads
// use fixed-width little-endian scalars (ByteWriter/ByteReader below — the
// control plane is coordinator↔worker on one host, so the compactness of the
// codec varints buys nothing here). No slab byte rides the control plane:
// the inter-shard message slabs travel worker↔worker over the mesh
// (dist/shard_mesh.hpp) in the one slab format (net/codec.hpp,
// kShardSlabMagic), the same format the UDP runtime broadcasts.
//
// Round protocol (coordinator-driven; the worker is purely reactive). There
// is no start-up exchange: each forked worker builds its slice from the
// ShardInit it inherits in memory, and the first kStep starts round 1.
//
//   per round:
//     c → w  kStep         the worker runs the WHOLE round — membership
//                          churn, the round's first half, its slabs posted
//                          straight to its peers over the mesh socketpairs,
//                          their slabs merged (one shard: zero peers, so
//                          step and merge back to back)
//     w → c  kStatus       per local correct node: done flag
//   c → w  kFinish         finalize
//   w → c  kResult         ShardResult (node end states, metrics, trace rings)
//   w → c  kError          fatal worker-side failure (detail = message),
//                          construction failures included — the coordinator
//                          reads it in place of the next reply it waits for
//
// The coordinator is a pure control plane: round pacing, the early-exit
// policy, the crash watchdog, and the merged counters.
//
// recv_frame distinguishes timeout (wedged worker) from EOF (crashed
// worker) so the coordinator can report the difference.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/metrics.hpp"
#include "common/trace.hpp"
#include "common/types.hpp"
#include "harness/script.hpp"

namespace idonly {

enum class ShardMsgType : std::uint8_t {
  kStep = 3,
  kStatus = 6,
  kFinish = 7,
  kResult = 8,
  kError = 9,
};

// ------------------------------------------------------------- framing --

/// Write one `length + type + payload` frame; retries EINTR/partial sends,
/// suppresses SIGPIPE. False on any unrecoverable send error.
[[nodiscard]] bool send_frame(int fd, ShardMsgType type, std::span<const std::byte> payload);

enum class RecvStatus : std::uint8_t { kOk, kEof, kTimeout, kError };

/// Read one frame. `timeout_ms < 0` blocks indefinitely; otherwise the WHOLE
/// frame must arrive within the budget (a worker that stalls mid-frame is as
/// wedged as one that never writes). kEof = orderly close or reset (the peer
/// died); kTimeout = budget exhausted with the peer still alive.
[[nodiscard]] RecvStatus recv_frame(int fd, ShardMsgType& type, std::vector<std::byte>& payload,
                                    int timeout_ms);

// -------------------------------------------------------- serialization --

/// Append-only little-endian scalar writer for control payloads.
class ByteWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(static_cast<std::byte>(v)); }
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v);
  /// u64 length + raw bytes.
  void str(const std::string& v);

  [[nodiscard]] const std::vector<std::byte>& bytes() const noexcept { return buf_; }
  [[nodiscard]] std::vector<std::byte> take() noexcept { return std::move(buf_); }

 private:
  std::vector<std::byte> buf_;
};

/// Bounds-checked reader over a control payload. A short or malformed read
/// latches `failed()` and every subsequent read returns zero/empty — check
/// failed() once after decoding instead of after every field.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::byte> data) noexcept : data_(data) {}

  [[nodiscard]] std::uint8_t u8();
  [[nodiscard]] std::uint32_t u32();
  [[nodiscard]] std::uint64_t u64();
  [[nodiscard]] std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  [[nodiscard]] double f64();
  [[nodiscard]] std::string str();

  [[nodiscard]] bool failed() const noexcept { return failed_; }
  /// True when the payload was consumed exactly (no trailing garbage).
  [[nodiscard]] bool done() const noexcept { return !failed_ && pos_ == data_.size(); }

 private:
  [[nodiscard]] bool take(std::size_t n) noexcept;

  std::span<const std::byte> data_;
  std::size_t pos_ = 0;
  bool failed_ = false;
};

// ------------------------------------------------------ typed payloads --

/// Everything a worker needs to reconstruct its slice of the run. The
/// coordinator fills one per shard in the forked child, so it never crosses
/// a socket; the script TEXT (not a path) pins every worker to one parse.
struct ShardInit {
  std::uint32_t shard = 0;
  std::uint32_t shards = 1;
  bool want_trace = false;
  /// Test hook: > 0 makes the worker _exit(uncleanly) instead of executing
  /// that round — the coordinator must detect the death, not hang.
  Round crash_at_round = 0;
  std::string script_text;
};

/// kStatus: done flags for the worker's local correct nodes this round.
struct ShardStatus {
  std::vector<std::pair<NodeId, bool>> done;
};

[[nodiscard]] std::vector<std::byte> encode_status(const ShardStatus& status);
[[nodiscard]] std::optional<ShardStatus> decode_status(std::span<const std::byte> payload);

/// kResult: one worker's final state, everything the coordinator merges.
struct ShardResult {
  Metrics metrics;
  bool has_chaos = false;
  ChaosCounters chaos;
  /// Transport-observed faults (frames the worker failed to decode, slabs it
  /// had to reject) — exported as idonly_wire_faults_total by the merged
  /// exposition. All-zero in a healthy run, and that zero is the signal.
  FaultCounters wire_faults;
  /// End states of the local correct nodes, leavers' as of their departure.
  std::vector<std::pair<NodeId, NodeOutcome>> nodes;
  struct Ring {
    NodeId node = 0;
    std::uint64_t next_seq = 0;
    std::uint64_t evicted = 0;
    std::vector<TraceRecord> records;
  };
  std::vector<Ring> rings;  ///< want_trace: the worker's per-node trace rings
};

[[nodiscard]] std::vector<std::byte> encode_result(const ShardResult& result);
[[nodiscard]] std::optional<ShardResult> decode_result(std::span<const std::byte> payload);

}  // namespace idonly
