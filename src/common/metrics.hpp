// Run metrics collected by the simulators.
//
// The benchmark harness reproduces the paper's complexity *claims* (round
// complexity, message complexity, convergence rate) rather than testbed
// numbers, so the engine counts everything relevant: messages sent/delivered
// per kind, rounds executed, and per-node decision rounds.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace idonly {

/// Indexed by MsgKind (see net/message.hpp); kept as raw counters so the hot
/// path in the simulator is a single array increment.
///
/// `sent` counts one per outgoing message (a broadcast is ONE send no matter
/// how many members receive it); `delivered` counts per-recipient, post
/// duplicate suppression. delivered may therefore exceed sent by up to the
/// member count, and undershoot it when recipients are gone or dedup fires.
struct MessageCounters {
  static constexpr std::size_t kKinds = 16;
  std::array<std::uint64_t, kKinds> sent{};
  std::array<std::uint64_t, kKinds> delivered{};

  [[nodiscard]] std::uint64_t total_sent() const noexcept;
  [[nodiscard]] std::uint64_t total_delivered() const noexcept;

  MessageCounters& operator+=(const MessageCounters& other) {
    for (std::size_t k = 0; k < kKinds; ++k) {
      sent[k] += other.sent[k];
      delivered[k] += other.delivered[k];
    }
    return *this;
  }
};

/// Fan-out accounting for the mailbox layer (net/mailbox.hpp): how much
/// traffic the engine moved, how much of it was shared rather than copied,
/// and how much the once-per-message cached-hash dedup saved.
struct FanoutCounters {
  std::uint64_t deliveries = 0;       ///< per-recipient deliveries (post-dedup)
  std::uint64_t unique_payloads = 0;  ///< messages wrapped (hashed) once at send time
  std::uint64_t dedup_hits = 0;       ///< duplicate deposits suppressed via the cached hash
  std::uint64_t bytes_delivered = 0;  ///< wire-encoded bytes summed over deliveries
  /// Coalesced wire transfers: one per non-empty per-receiver round inbox
  /// (the datagrams a slab-framing wire would carry — see net/codec.hpp).
  /// `deliveries` is the per-message syscall baseline; deliveries/slab_sends
  /// is the coalescing factor the benches gate.
  std::uint64_t slab_sends = 0;
  /// Real sends the kernel refused or shortened (ENOBUFS, short sendto) —
  /// distinguishes kernel drops from injected chaos loss in soak runs.
  std::uint64_t send_failures = 0;

  void reset() { *this = FanoutCounters{}; }

  FanoutCounters& operator+=(const FanoutCounters& other) {
    deliveries += other.deliveries;
    unique_payloads += other.unique_payloads;
    dedup_hits += other.dedup_hits;
    bytes_delivered += other.bytes_delivered;
    slab_sends += other.slab_sends;
    send_failures += other.send_failures;
    return *this;
  }
};

/// Compute/communication overlap accounting for the distributed shard
/// engine's data plane (src/dist/). Workers exchange slabs peer-to-peer over
/// the mesh with non-blocking I/O, so a round's transfer can complete while
/// the receiver is still stepping its own nodes; these counters make the
/// achieved overlap — and the residual serialization — measurable.
struct OverlapCounters {
  /// Rounds whose remote slabs had ALL arrived by the time the boundary
  /// merge wanted them (zero stall — communication fully hidden).
  std::uint64_t rounds_overlapped = 0;
  /// Nanoseconds blocked waiting for remote round input after local work
  /// finished (the poll on the peer mesh sockets).
  std::uint64_t recv_stall_ns = 0;
  /// Shard slabs sent worker-to-worker (empty-round beacons not counted).
  std::uint64_t slabs_direct = 0;

  void reset() { *this = OverlapCounters{}; }

  OverlapCounters& operator+=(const OverlapCounters& other) {
    rounds_overlapped += other.rounds_overlapped;
    recv_stall_ns += other.recv_stall_ns;
    slabs_direct += other.slabs_direct;
    return *this;
  }
};

/// Wire-fault counts injected by one chaos phase (common/chaos.hpp). One
/// counter per fault verdict the schedule can hand an engine.
struct FaultCounters {
  std::uint64_t drops = 0;            ///< frames/messages discarded by coin
  std::uint64_t duplicates = 0;       ///< delivered twice
  std::uint64_t delays = 0;           ///< held for one or more extra rounds
  std::uint64_t corrupts = 0;         ///< one byte flipped (runtime engines)
  std::uint64_t partition_drops = 0;  ///< killed by a bidirectional partition
  std::uint64_t crash_drops = 0;      ///< killed by a crash window on an endpoint
  std::uint64_t truncations = 0;      ///< datagrams larger than the receive buffer (MSG_TRUNC)

  [[nodiscard]] std::uint64_t total() const noexcept;
  FaultCounters& operator+=(const FaultCounters& other) noexcept;
};

/// Fault accounting for one chaos run: injected faults per phase (filled by
/// the ChaosSchedule).
struct ChaosCounters {
  std::vector<FaultCounters> per_phase;  ///< indexed by phase position in the plan

  [[nodiscard]] FaultCounters total_faults() const noexcept;
  /// Human-readable per-phase one-liner for benches and logs.
  [[nodiscard]] std::string summary() const;
};

/// One fuzz campaign's outcome accounting (src/fuzz/campaign.hpp). A
/// "boundary probe" is a deliberately non-resilient scenario (n <= 3f) whose
/// violations are expected and tracked separately — only resilient-scenario
/// failures make a campaign red.
struct CampaignCounters {
  std::uint64_t scenarios = 0;             ///< generated and executed
  std::uint64_t passed = 0;                ///< all expectations held, no violations
  std::uint64_t violations = 0;            ///< resilient runs with invariant violations
  std::uint64_t expectation_failures = 0;  ///< resilient runs with a failed expectation only
  std::uint64_t timeouts = 0;              ///< resilient runs that hit the round budget undecided
  std::uint64_t boundary_probes = 0;       ///< non-resilient (n <= 3f) scenarios executed
  std::uint64_t boundary_violations = 0;   ///< ... of which violated an invariant (expected)
  std::uint64_t minimized = 0;             ///< failures shrunk by the delta-debugging minimizer
  std::uint64_t generator_errors = 0;      ///< generated text failed to parse/round-trip (a bug)

  /// Human-readable one-liner for CLIs and logs.
  [[nodiscard]] std::string summary() const;
};

/// Prometheus-style text exposition of a campaign's counters, matching the
/// engine exposition's format.
[[nodiscard]] std::string prometheus_exposition(const CampaignCounters& campaign);

struct Metrics {
  MessageCounters messages;
  FanoutCounters fanout;
  /// Filled by distributed runs only; all-zero for in-process engines.
  OverlapCounters overlap;
  Round rounds_executed = 0;
  /// Round at which each node reported done() (protocol termination).
  std::map<NodeId, Round> done_round;

  void reset();
  /// Human-readable one-line summary used by examples and benches.
  [[nodiscard]] std::string summary() const;
};

/// Prometheus-style text exposition of every counter above (plus the chaos
/// fault/recovery counters when `chaos` is non-null, plus transport-level
/// wire faults when `wire_faults` is non-null): `# TYPE` headers and
/// one sample per line, suitable for a node-exporter textfile collector or
/// test assertions. Message kinds are labeled by their numeric MsgKind
/// index (the names live in net/, which common/ must not depend on);
/// zero-valued per-kind samples are omitted to keep the snapshot small.
///
/// `wire_faults` carries faults the TRANSPORT observed rather than chaos
/// injected — truncated datagrams (MSG_TRUNC), frames a shard worker could
/// not parse — as `idonly_wire_faults_total{fault=...}`. Together with
/// `idonly_fanout_send_failures_total` this makes a worker's wire errors
/// observable without grepping logs.
[[nodiscard]] std::string prometheus_exposition(const Metrics& metrics,
                                                const ChaosCounters* chaos = nullptr,
                                                const FaultCounters* wire_faults = nullptr);

}  // namespace idonly
