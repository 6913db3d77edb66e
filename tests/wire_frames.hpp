// Wire frames for the runtime tests. Every datagram on a runtime wire is one
// slab (net/codec.hpp); these helpers build a one-entry slab the way
// RoundDriver sends one (shard 0, broadcast tag) and decode a drained slab
// back into its messages.
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "net/codec.hpp"
#include "net/mailbox.hpp"

namespace idonly {

/// A one-entry slab carrying `msg`, sent in `round`.
inline Frame one_entry_slab(Round round, const Message& msg) {
  ShardSlabWriter writer;
  writer.reset(0, round);
  writer.add(std::nullopt, msg);
  const auto bytes = writer.bytes();
  return Frame(bytes.begin(), bytes.end());
}

/// The chatter frame the chaos tests broadcast: one kPresent from `sender`.
inline Frame framed(Round round, NodeId sender) {
  return one_entry_slab(round, Message{.sender = sender, .kind = MsgKind::kPresent});
}

/// Every entry of a drained slab that decodes, in slab order; empty when
/// `bytes` is not a slab.
inline std::vector<Message> decode_slab(std::span<const std::byte> bytes) {
  std::vector<Message> out;
  if (const auto slab = parse_shard_slab(bytes)) {
    for (const ShardSlabView::Entry& entry : slab->entries) {
      if (const auto msg = decode(entry.frame)) out.push_back(*msg);
    }
  }
  return out;
}

}  // namespace idonly
