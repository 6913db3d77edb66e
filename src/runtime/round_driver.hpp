// Wall-clock round driver: runs one Process over a Transport in lock-step
// rounds paced by real time.
//
// Deployment of a synchronous protocol = agreeing on a round clock. All
// drivers share an `epoch` timestamp and a `round_duration`; round r spans
// [epoch + (r-1)·D, epoch + r·D). Every frame carries a ROUND HEADER; the
// receiver buffers by header and hands the process, in its round r, exactly
// the frames tagged r-1 — so scheduling jitter inside a slot can never smear
// one peer's round r+1 traffic into another's round r inbox. Frames arriving
// after their delivery round are dropped and counted (`frames_late()`): with
// D comfortably above latency + jitter that counter stays 0 and the runtime
// realizes the paper's synchronous model; the E6 experiments quantify what
// happens when it does not.
//
// ON THE WIRE the driver COALESCES: all of a round's outgoing messages go
// into one slab datagram (the net/codec.hpp slab: header with shard 0 and
// the round, then broadcast-tagged, length-prefixed codec frames) and a
// single broadcast() ships it — syscalls per round drop from
// one-per-message to one-per-peer. Receive slices slabs into zero-copy
// frame subspans; a datagram that does not parse as a slab counts as one
// dropped frame. A frame whose round header lies beyond max_rounds can never
// be delivered and is dropped on arrival (counted in `frames_dropped()`)
// rather than buffered.
//
// SELF-HEALING (config.adaptive): instead of treating a smeared clock as a
// terminal condition, the driver heals it. When one round sees
// `backoff_late_threshold` or more late frames, the round duration grows by
// `backoff_factor` (bounded by `max_round_duration`) — bounded exponential
// backoff, trading round rate for restored synchrony. After
// `shrink_after_clean_rounds` consecutive clean rounds it shrinks back
// toward the configured base. Re-synchronisation uses the round headers
// already on the wire: when drained frames carry headers AHEAD of the local
// round the driver is the laggard, so it skips its end-of-round sleep and
// catches up (counted in `resyncs()`). Invariant: current duration always
// stays within [round_duration, max_round_duration], and with no late
// frames the adaptive clock is byte-identical to the fixed one.
//
// The driver is also stoppable and observable for the watchdog
// (runtime/watchdog.hpp): `request_stop()` interrupts the end-of-round
// sleep (sliced, ≤5 ms latency) and `heartbeat()` ticks once per executed
// round so a wedged thread — e.g. sleeping toward a misconfigured epoch —
// is distinguishable from a slow one.
//
// Sender identity: frames carry the sender field. The driver stamps its own
// outgoing frames but — unlike the simulator — cannot police incoming ones
// without an authentication layer (see transport.hpp). Runtime tests include
// a forgery probe documenting this boundary. The round header is just as
// unauthenticated: a spoofed header at or below max_rounds is buffered like
// any other.
#pragma once

#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <vector>

#include "common/trace.hpp"
#include "common/types.hpp"
#include "net/codec.hpp"
#include "net/process.hpp"
#include "runtime/transport.hpp"

namespace idonly {

struct RoundDriverConfig {
  std::chrono::steady_clock::time_point epoch;  ///< common round-0 boundary
  std::chrono::milliseconds round_duration{20};
  Round max_rounds = 100;

  // Self-healing round clock (off by default: the fixed schedule below is
  // the paper's model and what the existing runtime tests pin down).
  bool adaptive = false;
  /// Late frames within ONE round that trigger a duration growth.
  std::uint64_t backoff_late_threshold = 3;
  /// Multiplier applied on growth and divided out on shrink; > 1.
  double backoff_factor = 2.0;
  /// Upper bound for the grown duration (bounded backoff).
  std::chrono::milliseconds max_round_duration{200};
  /// Consecutive clean (zero-late) rounds before one shrink step.
  Round shrink_after_clean_rounds = 2;

  /// Optional flight recorder (common/trace.hpp): sends, deliveries, late
  /// frames, and every self-healing clock transition are captured. May be
  /// shared across drivers — the recorder is thread-safe.
  std::shared_ptr<TraceRecorder> recorder;
};

class RoundDriver {
 public:
  RoundDriver(std::unique_ptr<Process> process, std::unique_ptr<Transport> transport,
              RoundDriverConfig config);

  /// Blocks until the process reports done(), max_rounds elapse, or
  /// request_stop() is observed. Returns the number of rounds executed.
  /// Call from a dedicated thread.
  Round run();

  /// Ask a running driver to return at the next stop point (start of round
  /// or inside the sliced end-of-round sleep). Thread-safe, idempotent.
  void request_stop() noexcept { stop_requested_.store(true, std::memory_order_relaxed); }
  [[nodiscard]] bool stop_requested() const noexcept {
    return stop_requested_.load(std::memory_order_relaxed);
  }

  /// Ticks once per executed round; a stuck value while the thread lives
  /// means the driver is wedged (watchdog criterion).
  [[nodiscard]] std::uint64_t heartbeat() const noexcept {
    return heartbeat_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] Process& process() noexcept { return *process_; }
  // All counters below are written by the driver thread and routinely read
  // by other threads (watchdog, chaos soak pollers, benches) while run() is
  // live, so they are atomics — relaxed is enough, they are monotonic
  // statistics with no ordering contract.
  [[nodiscard]] Round rounds_executed() const noexcept {
    return rounds_executed_.load(std::memory_order_relaxed);
  }
  /// Malformed frames (a datagram that is not a slab, a codec reject, or a
  /// round header beyond max_rounds).
  [[nodiscard]] std::uint64_t frames_dropped() const noexcept {
    return frames_dropped_.load(std::memory_order_relaxed);
  }
  /// Frames that arrived after their delivery round — synchrony was violated.
  [[nodiscard]] std::uint64_t frames_late() const noexcept {
    return frames_late_.load(std::memory_order_relaxed);
  }
  /// Late frames observed in the most recently executed round (0 after a
  /// clean round — the "healed" signal the chaos soak asserts on).
  [[nodiscard]] std::uint64_t frames_late_last_round() const noexcept {
    return frames_late_last_round_.load(std::memory_order_relaxed);
  }

  // Recovery accounting (see ChaosCounters in common/metrics.hpp).
  [[nodiscard]] std::uint64_t backoffs() const noexcept {
    return backoffs_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t shrinks() const noexcept {
    return shrinks_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t resyncs() const noexcept {
    return resyncs_.load(std::memory_order_relaxed);
  }
  /// Current adapted duration (== config round_duration when not adaptive
  /// or fully healed). Thread-safe snapshot in milliseconds.
  [[nodiscard]] std::chrono::milliseconds current_round_duration() const noexcept {
    return std::chrono::milliseconds(current_duration_ms_.load(std::memory_order_relaxed));
  }

 private:
  /// Sleep toward `deadline` in ≤5 ms slices, returning early on stop.
  void interruptible_sleep_until(std::chrono::steady_clock::time_point deadline);

  std::unique_ptr<Process> process_;
  std::unique_ptr<Transport> transport_;
  RoundDriverConfig config_;
  std::map<Round, std::vector<Message>> buffered_;  // by sender round header
  ShardSlabWriter slab_;  // reused send buffer: one coalesced datagram per round
  std::atomic<Round> rounds_executed_{0};
  std::atomic<std::uint64_t> frames_dropped_{0};
  std::atomic<std::uint64_t> frames_late_{0};
  std::atomic<std::uint64_t> backoffs_{0};
  std::atomic<std::uint64_t> shrinks_{0};
  std::atomic<std::uint64_t> resyncs_{0};
  std::atomic<std::uint64_t> frames_late_last_round_{0};
  std::atomic<bool> stop_requested_{false};
  std::atomic<std::uint64_t> heartbeat_{0};
  std::atomic<std::int64_t> current_duration_ms_{0};
};

}  // namespace idonly
