// The process interface run by the synchronous simulator.
//
// A process is invoked exactly once per round with the messages delivered to
// it this round (i.e. sent in the previous round) and appends its outgoing
// traffic to `out`. Correct protocol implementations and Byzantine
// strategies implement the same interface; the only privilege difference is
// *behavioural*: correct code follows the algorithms, adversaries may emit
// arbitrary (possibly per-recipient, conflicting) messages. The engine stamps
// the true sender id on everything, so identity is unforgeable either way.
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "common/types.hpp"
#include "net/message.hpp"

namespace idonly {

/// One outgoing message: broadcast when `to` is empty, unicast otherwise.
struct Outgoing {
  std::optional<NodeId> to;
  Message msg;
};

/// Helper for protocol code: queue a broadcast.
inline void broadcast(std::vector<Outgoing>& out, Message msg) {
  out.push_back(Outgoing{std::nullopt, std::move(msg)});
}

/// Helper for protocol code: queue a unicast.
inline void unicast(std::vector<Outgoing>& out, NodeId to, Message msg) {
  out.push_back(Outgoing{to, std::move(msg)});
}

/// Round numbers handed to a process. `global` is the simulator clock;
/// `local` counts from 1 starting at the process's first round (they differ
/// for nodes that join a dynamic network late).
struct RoundInfo {
  Round global = 0;
  Round local = 0;
};

class Process {
 public:
  explicit Process(NodeId id) noexcept : id_(id) {}
  virtual ~Process();

  Process(const Process&) = delete;
  Process& operator=(const Process&) = delete;

  [[nodiscard]] NodeId id() const noexcept { return id_; }

  /// Execute one synchronous round. `inbox` is valid for the duration of
  /// this call only: the engine may reuse its storage for the next receiver.
  virtual void on_round(RoundInfo round, std::span<const Message> inbox,
                        std::vector<Outgoing>& out) = 0;

  /// True once the process has terminated its protocol (it may still be
  /// invoked; terminated correct processes stay silent).
  [[nodiscard]] virtual bool done() const { return false; }

  /// True for adversarial processes; used by the harness to separate the
  /// correct nodes when checking agreement properties.
  [[nodiscard]] virtual bool byzantine() const { return false; }

 private:
  NodeId id_;
};

}  // namespace idonly
