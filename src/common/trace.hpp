// Flight-recorder tracing layer shared by every engine.
//
// The chaos engine guarantees that one seed reproduces the same fault
// verdicts on the sync simulator (in process or in forked shard workers)
// and the runtime. When a run *does* diverge — a real bug — that guarantee
// is only useful if we can see WHERE: this layer records structured
// per-node events (protocol events, frame-level link verdicts, engine sends
// and deliveries) into bounded ring buffers — the only record of individual
// verdicts — exports them as JSONL (tooling) and Chrome
// `about://tracing` JSON (humans), and feeds the `trace_diff` tool
// (check/trace_diff.hpp) that pinpoints the first divergent record between
// two traces of the same seed.
//
// Record families:
//   * LINK VERDICTS (kLinkClean..kLinkCorrupt): one record per chaos
//     `decide()` call, keyed exactly like the LinkEvent. These are the
//     CANONICAL family — `canonical_jsonl()` emits only them, sorted by
//     (round, from, to, link_seq), with engine- and capture-order-dependent
//     fields stripped, so two traces of the same seed are byte-identical
//     across engines (the cross-engine contract, now at trace level).
//     Self-links (from == to) are excluded: engines differ in whether
//     loopback touches the wire at all, and it is never faulted.
//   * ENGINE EVENTS (kSend, kDeliver, kLateFrame): engine-local, useful for
//     debugging one run; excluded from the canonical export.
//   * PROTOCOL EVENTS (kProtocol): a ProtocolEvent captured via
//     TraceObserver; `detail` holds its rendering.
//
// Thread safety: every recorder method is safe to call from any thread (one
// mutex; tracing is opt-in and off the hot path — see DESIGN.md
// "Observability" for the overhead budget).
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/chaos.hpp"
#include "common/observer.hpp"
#include "common/types.hpp"

namespace idonly {

enum class TraceEngine : std::uint8_t { kSync, kRuntime };

[[nodiscard]] const char* to_string(TraceEngine engine) noexcept;

enum class TraceEventKind : std::uint8_t {
  // Canonical link-verdict family (one per chaos decide(); priority when a
  // verdict combines faults: drop > duplicate > delay > corrupt > clean —
  // a pure function of the verdict, so it reproduces across engines).
  kLinkClean,
  kLinkDrop,
  kLinkDuplicate,
  kLinkDelay,
  kLinkCorrupt,
  // Engine-local families (excluded from the canonical export).
  kSend,
  kDeliver,
  kLateFrame,
  kProtocol,
};

[[nodiscard]] const char* to_string(TraceEventKind kind) noexcept;
/// True for the link-verdict family (the cross-engine-comparable records).
[[nodiscard]] bool is_canonical(TraceEventKind kind) noexcept;

/// One captured record. Field meaning varies by family:
///   link verdicts: node == to (receiver), link_seq = per-(round,from,to)
///     sequence, extra = delay rounds;
///   kSend: to = unicast target (extra = 1 marks broadcast, to unused);
///   kDeliver: from = sender;
///   kLateFrame: from = sender, extra = the frame's sent round.
struct TraceRecord {
  TraceEventKind kind{};
  NodeId node = 0;          ///< owning node (whose ring buffer holds it)
  Round round = 0;
  std::uint64_t seq = 0;    ///< per-node capture sequence (stamped by record())
  NodeId from = 0;
  NodeId to = 0;
  std::uint64_t link_seq = 0;
  std::int64_t extra = 0;
  std::string detail;       ///< protocol-event rendering; empty otherwise

  friend bool operator==(const TraceRecord&, const TraceRecord&) = default;
};

/// Record builders, shared by the recorder's convenience methods and the
/// parallel engines' per-lane staging buffers (which construct records
/// lock-free during the lane merge and flush them via record_batch()).
/// The capture `seq` is left 0 — record()/record_batch() stamp it.
[[nodiscard]] TraceRecord make_send_record(NodeId node, Round round,
                                           std::optional<NodeId> to) noexcept;
[[nodiscard]] TraceRecord make_deliver_record(NodeId node, Round round, NodeId from) noexcept;
[[nodiscard]] TraceRecord make_link_verdict_record(const LinkEvent& event,
                                                   const FaultDecision& verdict) noexcept;

class TraceRecorder;

/// ProtocolObserver adapter: forwards every event into the recorder (and
/// optionally on to a `next` observer, so a recorder can ride alongside an
/// InvariantMonitor without the process supporting observer lists).
class TraceObserver final : public ProtocolObserver {
 public:
  explicit TraceObserver(std::shared_ptr<TraceRecorder> recorder,
                         ProtocolObserver* next = nullptr) noexcept
      : recorder_(std::move(recorder)), next_(next) {}
  void on_event(const ProtocolEvent& event) override;

 private:
  std::shared_ptr<TraceRecorder> recorder_;
  ProtocolObserver* next_;
};

class TraceRecorder {
 public:
  /// Default per-node ring capacity: 16k records ≈ a few MB per busy node —
  /// enough for hundreds of rounds at small n; old records are evicted (and
  /// counted) rather than growing without bound.
  static constexpr std::size_t kDefaultCapacity = std::size_t{1} << 14;

  explicit TraceRecorder(TraceEngine engine, std::size_t per_node_capacity = kDefaultCapacity);

  /// Append one record to `rec.node`'s ring; stamps the per-node capture
  /// sequence and evicts the oldest record once the ring is full.
  void record(TraceRecord rec);

  /// Append a batch under ONE lock acquisition, preserving batch order.
  /// This is the parallel engines' flush path: each merge lane stages
  /// records for ITS nodes lock-free and flushes once per phase. Because a
  /// node's records are only ever staged by the lane that owns it, per-ring
  /// order — and therefore every export — is independent of the order in
  /// which concurrent lanes flush.
  void record_batch(std::span<TraceRecord> records);

  /// One chaos verdict exactly as the engine asked it. Self-links are still
  /// recorded (kept out of the canonical export, kept in the full trace).
  void record_link_verdict(const LinkEvent& event, const FaultDecision& verdict);
  void record_send(NodeId node, Round round, std::optional<NodeId> to);
  void record_deliver(NodeId node, Round round, NodeId from);
  void record_protocol(const ProtocolEvent& event);

  [[nodiscard]] TraceEngine engine() const noexcept { return engine_; }
  [[nodiscard]] std::size_t per_node_capacity() const noexcept { return capacity_; }
  /// Total records currently held across all rings.
  [[nodiscard]] std::size_t size() const;
  /// Records evicted by ring-buffer bounds (0 ⇒ the trace is complete).
  [[nodiscard]] std::uint64_t evicted() const;
  void clear();

  /// All records, grouped by node id, capture order within each node.
  [[nodiscard]] std::vector<TraceRecord> snapshot() const;

  /// Per-node ring bookkeeping, for shipping rings across a process
  /// boundary (the distributed shard engine's workers each record their own
  /// nodes and the coordinator splices the rings back together).
  struct RingStats {
    NodeId node = 0;
    std::uint64_t next_seq = 0;
    std::uint64_t evicted = 0;
  };
  [[nodiscard]] std::vector<RingStats> ring_stats() const;

  /// Splice one node's ring — captured by another recorder of the same
  /// capacity — into this one verbatim: records keep their capture seqs and
  /// the ring its eviction count, so every export over the merged recorder
  /// is byte-identical to a single-recorder run. This is how the
  /// distributed coordinator rebuilds one trace from its workers' rings.
  /// The node must not already hold records here (shard workers own
  /// disjoint id ranges); throws std::invalid_argument when it does.
  void absorb_ring(NodeId node, std::vector<TraceRecord> records, std::uint64_t next_seq,
                   std::uint64_t evicted);
  /// Link-verdict records only, self-links removed, sorted by
  /// (round, from, to, link_seq) — engine- and thread-order-independent.
  [[nodiscard]] std::vector<TraceRecord> canonical() const;

  /// Full export: one header line (engine, record/eviction counts), then one
  /// JSON object per record in snapshot() order.
  [[nodiscard]] std::string jsonl() const;
  /// Canonical export: one JSON object per canonical() record, no header,
  /// no engine/node/capture-seq fields — byte-identical across engines for
  /// the same seed and logical traffic. This is what trace_diff compares.
  [[nodiscard]] std::string canonical_jsonl() const;
  /// Chrome `about://tracing` / Perfetto JSON: one instant event per record,
  /// pid = node, tid = sender, ts = round in fake-milliseconds.
  [[nodiscard]] std::string chrome_trace_json() const;

 private:
  struct NodeRing {
    std::deque<TraceRecord> records;
    std::uint64_t next_seq = 0;
    std::uint64_t evicted = 0;
  };

  void record_locked(TraceRecord rec);

  TraceEngine engine_;
  std::size_t capacity_;
  mutable std::mutex mutex_;
  std::map<NodeId, NodeRing> rings_;
};

}  // namespace idonly
