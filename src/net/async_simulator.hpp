// Event-driven simulator for asynchronous and semi-synchronous executions.
//
// Used by the impossibility experiments (paper §"Synchrony is Necessary"):
// when nodes do not know n and f, consensus is impossible — even with
// probabilistic termination — once message delays are unbounded
// (asynchronous) or bounded by an unknown Δ (semi-synchronous). The lemmas
// are proved by indistinguishability/partition arguments; this engine lets
// us *realize* those executions: a delay model assigns each (from, to)
// message a latency, and nodes act on local (wall-clock) timers instead of
// rounds. Those executions need nothing else: the engine runs one event at
// a time on one thread, and link faults, tracing and parallel stepping
// belong to the synchronous engines.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <queue>
#include <vector>

#include "common/types.hpp"
#include "net/mailbox.hpp"
#include "net/message.hpp"

namespace idonly {

/// Continuous simulated time (arbitrary units).
using Time = double;

/// Outgoing traffic in the async model.
struct AsyncOutgoing {
  std::optional<NodeId> to;  ///< empty → broadcast
  Message msg;
};

/// A process in the async model reacts to message arrivals and timer fires.
class AsyncProcess {
 public:
  explicit AsyncProcess(NodeId id) noexcept : id_(id) {}
  virtual ~AsyncProcess();

  AsyncProcess(const AsyncProcess&) = delete;
  AsyncProcess& operator=(const AsyncProcess&) = delete;

  [[nodiscard]] NodeId id() const noexcept { return id_; }

  /// Called once at time 0; may send and arm a timer.
  virtual void on_start(Time now, std::vector<AsyncOutgoing>& out) = 0;
  virtual void on_message(Time now, const Message& msg, std::vector<AsyncOutgoing>& out) = 0;
  virtual void on_timer(Time now, std::vector<AsyncOutgoing>& out) = 0;

  /// Next requested timer fire time; nullopt when no timer armed. Queried
  /// after every callback.
  [[nodiscard]] virtual std::optional<Time> timer_deadline() const = 0;

  [[nodiscard]] virtual bool decided() const = 0;
  [[nodiscard]] virtual Value decision() const = 0;

 private:
  NodeId id_;
};

/// Delay model: latency assigned to each individual message. Returning a
/// very large value models the adversary holding the message back (legal in
/// an asynchronous system; bounded by Δ in a semi-synchronous one).
using DelayModel = std::function<Time(NodeId from, NodeId to, const Message& msg, Time send_time)>;

class AsyncSimulator {
 public:
  explicit AsyncSimulator(DelayModel delay);

  void add_process(std::unique_ptr<AsyncProcess> process);

  /// Run until the event queue drains or `horizon` simulated time elapses.
  void run(Time horizon);

  [[nodiscard]] Time now() const noexcept { return now_; }
  [[nodiscard]] AsyncProcess* find(NodeId id);
  [[nodiscard]] std::vector<NodeId> ids() const;

 private:
  struct Event {
    Time at;
    std::uint64_t seq;  // FIFO tie-break for determinism
    NodeId to;
    bool is_timer;
    MessageRef msg;  // null for timers; shared across a broadcast's n events
    friend bool operator>(const Event& a, const Event& b) {
      return a.at != b.at ? a.at > b.at : a.seq > b.seq;
    }
  };

  /// Draw latencies and enqueue delivery events for `out`.
  void dispatch_out(NodeId from, const std::vector<AsyncOutgoing>& out);
  void rearm_timer(AsyncProcess& p);

  DelayModel delay_;
  std::map<NodeId, std::unique_ptr<AsyncProcess>> processes_;
  std::map<NodeId, Time> armed_timer_;  // currently scheduled deadline per node
  std::priority_queue<Event, std::vector<Event>, std::greater<>> queue_;
  Time now_ = 0;
  std::uint64_t seq_ = 0;
  bool started_ = false;
};

}  // namespace idonly
