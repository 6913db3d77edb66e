// Transport abstraction for the deployment runtime.
//
// The simulators deliver Message structs; the runtime moves opaque FRAMES
// (codec-encoded messages) over a byte transport. A transport knows the
// addresses of the broadcast domain's endpoints — that sits BELOW the
// id-only abstraction line, like an Ethernet segment: the transport can
// reach "everyone on the wire" without the protocol layer ever learning how
// many participants exist or which ids are live. A transport moves bytes
// and nothing else: injected wire faults are judged by the RoundDriver on
// receipt, by each frame's round header (runtime/round_driver.hpp).
//
// Trust note: the paper's model makes the *sender id* unforgeable. The
// simulator enforces this by stamping; a real deployment must enforce it
// cryptographically (per-sender signatures). The runtime ships without
// authentication — frames are trusted to carry the true sender — and the
// hook to add it is a Transport decorator; see DESIGN.md.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "net/mailbox.hpp"  // Frame, FrameRef, FrameView — the shared mailbox layer

namespace idonly {

class Transport {
 public:
  virtual ~Transport();

  /// Fire-and-forget to every endpoint on the wire (including self — the
  /// model's broadcast is self-inclusive).
  virtual void broadcast(std::span<const std::byte> frame) = 0;

  /// Fetch everything received since the last drain (order unspecified) as
  /// zero-copy views: each view shares ownership of a ref-counted frame, so
  /// a broadcast domain materialises one buffer no matter how many
  /// endpoints receive it.
  [[nodiscard]] virtual std::vector<FrameView> drain_views() = 0;
};

}  // namespace idonly
