// Protocol event instrumentation.
//
// Core processes emit structured events (acceptance, decisions, coordinator
// changes, chain growth) to an optional, non-owning observer. Production
// deployments hang metrics/logging off this; tests assert on exact event
// streams instead of poking at internals.
#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "common/value.hpp"

namespace idonly {

struct ProtocolEvent {
  enum class Type : std::uint8_t {
    kAccepted,             ///< reliable broadcast: (m, s) accepted (value = m, subject = s)
    kDecided,              ///< consensus: output fixed (value; phase set)
    kOpinionAdopted,       ///< consensus: x_v changed by a quorum or coordinator
    kCoordinatorSelected,  ///< rotor: subject = selected coordinator
    kGoodOpinionAccepted,  ///< rotor: accepted opinion from previous coordinator (subject)
    kChainExtended,        ///< total order: chain grew (phase = new length)
  };

  Type type{};
  NodeId node = 0;          ///< emitting process
  Round round = 0;          ///< local round of the event
  Value value;              ///< payload / opinion when applicable
  NodeId subject = 0;       ///< source / coordinator when applicable
  std::int64_t phase = 0;   ///< phase or auxiliary count

  [[nodiscard]] std::string to_string() const;
};

class ProtocolObserver {
 public:
  virtual ~ProtocolObserver();
  virtual void on_event(const ProtocolEvent& event) = 0;
};

/// Simple collecting observer for tests and tools. NOT thread-safe: it is
/// the right choice only when every event comes from one thread (the
/// simulators step processes sequentially). Anything shared across runtime
/// driver threads must use ConcurrentEventLog below.
class EventLog final : public ProtocolObserver {
 public:
  void on_event(const ProtocolEvent& event) override { events_.push_back(event); }
  [[nodiscard]] const std::vector<ProtocolEvent>& events() const noexcept { return events_; }
  [[nodiscard]] std::vector<ProtocolEvent> of_type(ProtocolEvent::Type type) const;
  void clear() { events_.clear(); }

 private:
  std::vector<ProtocolEvent> events_;
};

/// Mutex-guarded collecting observer for multi-threaded runs: one instance
/// may be shared across RoundDriver threads. Readers get snapshot copies —
/// the internal vector is never exposed by reference, so a concurrent
/// on_event cannot invalidate a reader's view.
class ConcurrentEventLog final : public ProtocolObserver {
 public:
  void on_event(const ProtocolEvent& event) override {
    std::scoped_lock lock(mutex_);
    events_.push_back(event);
  }
  [[nodiscard]] std::vector<ProtocolEvent> events() const {
    std::scoped_lock lock(mutex_);
    return events_;
  }
  [[nodiscard]] std::vector<ProtocolEvent> of_type(ProtocolEvent::Type type) const;
  [[nodiscard]] std::size_t size() const {
    std::scoped_lock lock(mutex_);
    return events_.size();
  }
  void clear() {
    std::scoped_lock lock(mutex_);
    events_.clear();
  }

 private:
  mutable std::mutex mutex_;
  std::vector<ProtocolEvent> events_;
};

}  // namespace idonly
