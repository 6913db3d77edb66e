// Direct worker↔worker data plane for the distributed shard engine — its
// only cross-shard data plane.
//
// The coordinator plumbs one AF_UNIX stream socketpair per shard PAIR at
// fork time; each worker keeps the ends that involve it and exchanges the
// round's slabs (net/codec.hpp, 0xAC — the one slab format, also the UDP
// runtime's) peer-to-peer, so no slab byte ever transits the coordinator. A
// single-shard run has zero peers: posts and collects complete at once.
// Mesh framing is minimal: `u32 LE payload length + payload`, where the
// payload is a slab or an empty-round beacon (0xAE, a bare slab header).
// Slab and beacon are routed by the codec's one header reader
// (read_slab_header). Every peer sends EXACTLY ONE frame per round (slab or
// beacon), which is what lets the receiver tell "nothing for me this round"
// from "still in flight" without a barrier. There is no start-up exchange:
// the coordinator wires every socket before the fork, and each frame's
// header names its sender shard and round, so a frame from the wrong shard
// or out of round order is rejected before any slab body is parsed.
//
// Overlap model (double-buffered rounds):
//   * post_round() frames this round's outbound payloads and drives them
//     with NON-BLOCKING sends, draining inbound frames between partial
//     writes — full-duplex, so two peers posting large slabs to each other
//     cannot deadlock on full socket buffers.
//   * a poll-driven receiver stages arriving payloads per round; because a
//     peer may legitimately run ONE round ahead (it cannot post round r+1
//     before it has this worker's round-r slab), the staging area holds two
//     rounds — the current one and the next.
//   * collect_round() hands staged payloads to the caller IN ARRIVAL ORDER
//     the moment they are available (the boundary merge is order-blind
//     across peer streams — see DESIGN.md §12), so slab decode overlaps
//     with the remaining peers' transfers. It blocks only when a payload is
//     genuinely missing; that wait is the round's `recv_stall_ns`, and a
//     round with zero wait increments `rounds_overlapped`.
//
// Failure model: a peer that closes its mesh socket (or writes a malformed
// frame) fails the ROUND — collect_round()/post_round() return false with a
// message naming the peer, and the worker escalates kError to the
// coordinator. There is no partial-peer path, for the same reason the
// coordinator has none: a run missing one shard's traffic is a different
// run.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "common/metrics.hpp"
#include "common/types.hpp"

namespace idonly {

class MeshExchange {
 public:
  /// `peer_fds` is indexed by shard id; entry `shard` (self) and absent
  /// peers are -1. Takes ownership of the fds (closed on destruction) and
  /// switches them to non-blocking mode. The caller checks peer_count()
  /// against its shard count: a missing socket would silently drop that
  /// shard's traffic.
  MeshExchange(std::uint32_t shard, std::vector<int> peer_fds);
  ~MeshExchange();

  MeshExchange(const MeshExchange&) = delete;
  MeshExchange& operator=(const MeshExchange&) = delete;

  /// Post round `round`'s outbound payload to every peer: entry `s` of
  /// `payload_by_shard` is the slab for shard s (empty → an empty-round
  /// beacon is sent instead; the self entry is ignored). Non-blocking and
  /// full-duplex: inbound frames arriving while the sends drain are staged.
  /// Rounds must be posted consecutively starting at 1.
  [[nodiscard]] bool post_round(Round round,
                                std::span<const std::span<const std::byte>> payload_by_shard,
                                std::string& error);

  /// Invoked once per peer payload of the collected round, in ARRIVAL
  /// order; return false to abort the collection (the worker failed to
  /// decode the payload).
  using PayloadSink =
      std::function<bool(std::uint32_t shard, std::span<const std::byte> payload)>;

  /// Deliver every peer's round-`round` payload to `sink`, each as soon as
  /// it is available. Blocks (accumulating `recv_stall_ns`) only while a
  /// payload is still in flight; a fully-overlapped round — every payload
  /// already staged when the first one is wanted — counts into
  /// `rounds_overlapped`.
  [[nodiscard]] bool collect_round(Round round, const PayloadSink& sink, std::string& error);

  [[nodiscard]] const OverlapCounters& counters() const noexcept { return counters_; }
  [[nodiscard]] std::size_t peer_count() const noexcept { return peers_.size(); }

 private:
  struct Peer {
    std::uint32_t shard = 0;
    int fd = -1;
    // Outbound: one length-framed buffer, drained by non-blocking sends.
    std::vector<std::byte> out;
    std::size_t out_pos = 0;
    // Inbound: raw stream bytes, sliced into frames as they complete.
    std::vector<std::byte> in;
    std::size_t in_pos = 0;
    /// Highest round this peer has sent a frame for (one frame per round).
    Round last_round = 0;
  };

  struct Staged {
    std::uint32_t shard = 0;
    std::vector<std::byte> payload;
  };

  /// One round's staging: slab payloads in arrival order, plus the count of
  /// peers heard from (beacons bump `arrived` but stage no payload).
  struct Slot {
    std::vector<Staged> payloads;
    std::size_t arrived = 0;
  };

  /// Drain whatever is readable on `peer` without blocking; slices complete
  /// frames and routes them to the staging area.
  [[nodiscard]] bool drain(Peer& peer, std::string& error);
  [[nodiscard]] bool route_frame(Peer& peer, std::vector<std::byte> payload, std::string& error);
  [[nodiscard]] bool flush_and_drain(std::string& error);

  std::uint32_t shard_ = 0;
  std::vector<Peer> peers_;  // peers only, ascending shard id
  Round current_round_ = 0;  // round of the last post_round()
  /// Per-round staging, keyed by round. Holds at most the current round and
  /// the next (the ≤1-round skew bound).
  std::map<Round, Slot> staged_;
  OverlapCounters counters_;
};

}  // namespace idonly
