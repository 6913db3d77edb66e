#include "dist/shard_mesh.hpp"

#include <fcntl.h>
#include <poll.h>
#include <sched.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <utility>

#include "net/codec.hpp"

namespace idonly {

namespace {

using Clock = std::chrono::steady_clock;

/// Same sanity bound as the control plane's kMaxPayload: a mesh frame tops
/// out at one round's (source → destination) slab.
constexpr std::uint32_t kMeshMaxPayload = 1u << 30;

void append_frame(std::vector<std::byte>& out, std::span<const std::byte> payload) {
  const auto len = static_cast<std::uint32_t>(payload.size());
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<std::byte>((len >> (8 * i)) & 0xFF));
  out.insert(out.end(), payload.begin(), payload.end());
}

}  // namespace

MeshExchange::MeshExchange(std::uint32_t shard, std::vector<int> peer_fds) : shard_(shard) {
  for (std::uint32_t s = 0; s < peer_fds.size(); ++s) {
    const int fd = peer_fds[s];
    if (s == shard || fd < 0) continue;
    const int flags = ::fcntl(fd, F_GETFL, 0);
    if (flags >= 0) (void)::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
    Peer peer;
    peer.shard = s;
    peer.fd = fd;
    peers_.push_back(std::move(peer));
  }
}

MeshExchange::~MeshExchange() {
  for (Peer& peer : peers_) {
    if (peer.fd >= 0) ::close(peer.fd);
    peer.fd = -1;
  }
}

bool MeshExchange::route_frame(Peer& peer, std::vector<std::byte> payload, std::string& error) {
  const auto peer_name = "mesh peer shard " + std::to_string(peer.shard);
  // A slab or an empty-round beacon, exactly one per round, rounds strictly
  // ascending and at most one ahead of ours.
  if (payload.empty()) {
    error = peer_name + " sent an empty mesh frame";
    return false;
  }
  const auto magic = static_cast<std::uint8_t>(payload[0]);
  if (magic != kShardSlabMagic && magic != kPeerBeaconMagic) {
    error = peer_name + " sent an unknown mesh payload";
    return false;
  }
  // Both kinds open with the slab header and a beacon is nothing else; the
  // slab's full parse happens in the worker's decode sink.
  const bool beacon = magic == kPeerBeaconMagic;
  std::size_t offset = 0;
  const auto header = read_slab_header(payload, offset);
  if (!header.has_value() || header->shard != peer.shard ||
      (beacon && offset != payload.size())) {
    error = peer_name + (beacon ? " sent a malformed beacon" : " sent a malformed slab header");
    return false;
  }
  const Round round = header->round;
  if (round <= peer.last_round || round > current_round_ + 1) {
    error = peer_name + " broke round order (frame round " + std::to_string(round) +
            ", local round " + std::to_string(current_round_) + ")";
    return false;
  }
  peer.last_round = round;
  auto& slot = staged_[round];
  slot.arrived += 1;
  if (!beacon) slot.payloads.push_back({peer.shard, std::move(payload)});
  return true;
}

bool MeshExchange::drain(Peer& peer, std::string& error) {
  std::byte chunk[65536];
  for (;;) {
    const ssize_t n = ::recv(peer.fd, chunk, sizeof chunk, MSG_DONTWAIT);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      error = "mesh peer shard " + std::to_string(peer.shard) + " socket error";
      return false;
    }
    if (n == 0) {
      error = "mesh peer shard " + std::to_string(peer.shard) + " closed its socket" +
              (current_round_ > 0 ? " in round " + std::to_string(current_round_) : "");
      return false;
    }
    peer.in.insert(peer.in.end(), chunk, chunk + n);
    // Slice complete `u32 len + payload` frames off the stream.
    for (;;) {
      const std::size_t avail = peer.in.size() - peer.in_pos;
      if (avail < 4) break;
      std::uint32_t len = 0;
      for (int i = 0; i < 4; ++i) {
        len |= static_cast<std::uint32_t>(peer.in[peer.in_pos + i]) << (8 * i);
      }
      if (len > kMeshMaxPayload) {
        error = "mesh peer shard " + std::to_string(peer.shard) + " sent an oversized frame";
        return false;
      }
      if (avail < 4 + static_cast<std::size_t>(len)) break;
      std::vector<std::byte> payload(peer.in.begin() + static_cast<std::ptrdiff_t>(peer.in_pos + 4),
                                     peer.in.begin() +
                                         static_cast<std::ptrdiff_t>(peer.in_pos + 4 + len));
      peer.in_pos += 4 + len;
      if (!route_frame(peer, std::move(payload), error)) return false;
    }
    if (peer.in_pos == peer.in.size()) {
      peer.in.clear();
      peer.in_pos = 0;
    }
  }
  return true;
}

bool MeshExchange::flush_and_drain(std::string& error) {
  for (;;) {
    bool pending = false;
    std::vector<pollfd> pfds;
    pfds.reserve(peers_.size());
    for (Peer& peer : peers_) {
      short events = POLLIN;
      if (peer.out_pos < peer.out.size()) {
        events |= POLLOUT;
        pending = true;
      }
      pfds.push_back({peer.fd, events, 0});
    }
    if (!pending) return true;
    const int ready = ::poll(pfds.data(), pfds.size(), -1);
    if (ready < 0) {
      if (errno == EINTR) continue;
      error = "mesh poll failed";
      return false;
    }
    for (std::size_t i = 0; i < peers_.size(); ++i) {
      Peer& peer = peers_[i];
      if ((pfds[i].revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
        if (!drain(peer, error)) return false;
      }
      if ((pfds[i].revents & POLLOUT) != 0 && peer.out_pos < peer.out.size()) {
        const ssize_t n = ::send(peer.fd, peer.out.data() + peer.out_pos,
                                 peer.out.size() - peer.out_pos, MSG_NOSIGNAL | MSG_DONTWAIT);
        if (n < 0) {
          if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
          error = "mesh peer shard " + std::to_string(peer.shard) + " is unwritable" +
                  (current_round_ > 0 ? " in round " + std::to_string(current_round_) : "");
          return false;
        }
        peer.out_pos += static_cast<std::size_t>(n);
        if (peer.out_pos == peer.out.size()) {
          peer.out.clear();
          peer.out_pos = 0;
        }
      }
    }
  }
}

bool MeshExchange::post_round(Round round,
                              std::span<const std::span<const std::byte>> payload_by_shard,
                              std::string& error) {
  if (round != current_round_ + 1) {
    error = "mesh post_round called out of order";
    return false;
  }
  current_round_ = round;
  for (Peer& peer : peers_) {
    const std::span<const std::byte> payload =
        peer.shard < payload_by_shard.size() ? payload_by_shard[peer.shard]
                                             : std::span<const std::byte>{};
    if (payload.empty()) {
      append_frame(peer.out, encode_peer_beacon(shard_, round));
    } else {
      append_frame(peer.out, payload);
      counters_.slabs_direct += 1;
    }
  }
  if (!flush_and_drain(error)) return false;
  // Our round-`round` frames are now visible to every peer. On an
  // oversubscribed host a peer blocked in its collect poll becomes runnable
  // the moment the send lands but only gets the CPU when we next block —
  // which would charge OUR merge time to ITS stall ledger. Yield at the
  // data-availability point so blocked peers wake here; with a core to
  // spare this is a no-op.
  ::sched_yield();
  return true;
}

bool MeshExchange::collect_round(Round round, const PayloadSink& sink, std::string& error) {
  if (round != current_round_) {
    error = "mesh collect_round called out of order";
    return false;
  }
  auto& slot = staged_[round];  // std::map: reference stays valid across drains
  bool stalled = false;
  std::size_t delivered = 0;
  for (;;) {
    while (delivered < slot.payloads.size()) {
      Staged& staged = slot.payloads[delivered];
      delivered += 1;
      if (!sink(staged.shard, staged.payload)) {
        error = "mesh peer shard " + std::to_string(staged.shard) +
                " payload rejected by the merge";
        return false;
      }
      staged.payload.clear();
      staged.payload.shrink_to_fit();
    }
    if (slot.arrived == peers_.size()) break;
    // Opportunistic pass first: anything already in the kernel buffers does
    // not count as stall.
    const std::size_t before = slot.arrived;
    for (Peer& peer : peers_) {
      if (!drain(peer, error)) return false;
    }
    if (slot.arrived != before || delivered < slot.payloads.size()) continue;
    // Genuinely missing a peer's round — this wait is the stall the mesh
    // exists to shrink.
    std::vector<pollfd> pfds;
    pfds.reserve(peers_.size());
    for (const Peer& peer : peers_) pfds.push_back({peer.fd, POLLIN, 0});
    const auto wait_start = Clock::now();
    const int ready = ::poll(pfds.data(), pfds.size(), -1);
    counters_.recv_stall_ns += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - wait_start).count());
    stalled = true;
    if (ready < 0 && errno != EINTR) {
      error = "mesh poll failed";
      return false;
    }
    for (std::size_t i = 0; i < peers_.size(); ++i) {
      if ((pfds[i].revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
        if (!drain(peers_[i], error)) return false;
      }
    }
  }
  if (!stalled) counters_.rounds_overlapped += 1;
  staged_.erase(round);
  return true;
}

}  // namespace idonly
