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
// happens when it does not. The schedule is fixed: the model is a lock-step
// round with a known bound, and the paper's §9 lemma shows agreement is
// impossible when that bound is unknown, so D is never adapted at run time.
// `run()` is that paced loop around `run_round()`, which does one round's
// work unpaced: tests drive several drivers through `run_round()` in
// lock-step to compare the runtime's deliveries with the sync engine's.
//
// ON THE WIRE the driver COALESCES: all of a round's outgoing messages go
// into one slab datagram (the net/codec.hpp slab: header with shard 0 and
// the round, then broadcast-tagged, length-prefixed codec frames) and a
// single broadcast() ships it — syscalls per round drop from
// one-per-message to one-per-peer. Receive slices slabs into zero-copy
// frame subspans; a datagram that does not parse as a slab counts as one
// dropped frame. A frame whose round header lies beyond max_rounds can never
// be delivered and is dropped on arrival (counted in `frames_dropped()`)
// rather than buffered. Inbox assembly keeps one copy of identical messages
// from one sender, the model's rule, and orders the inbox as the sync engine
// does (on-time before delayed, then by sent round and sender), so what a
// process sends never depends on the order its frames arrived in.
//
// CHAOS (`RoundDriverConfig::chaos`) is judged on receipt, with the sync
// engine's rules: each decodable entry asks the schedule for the verdict of
// LinkEvent{header round, sender, self, per-(round, sender) seq}, in slab
// order and self-links included, so the verdicts — and the canonical trace
// they are recorded into — are the sync engine's bit for bit. A drop
// delivers nothing; a delay of k rounds files the message under header
// round + k, so it is delivered k rounds late; a duplicate adds one on-time
// copy, which dedup kills unless the original is delayed; a corrupt verdict
// flips one entropy-chosen bit of a private copy of the frame before it is
// decoded (the sync engine only records it).
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
#include <utility>
#include <vector>

#include "common/chaos.hpp"
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

  /// Optional flight recorder (common/trace.hpp): sends, deliveries and late
  /// frames are captured. May be shared across drivers — the recorder is
  /// thread-safe.
  std::shared_ptr<TraceRecorder> recorder;

  /// Optional wire faults, judged on receipt (see the header note) and
  /// recorded into `recorder` as link verdicts. May be shared across drivers.
  std::shared_ptr<ChaosSchedule> chaos;
};

class RoundDriver {
 public:
  RoundDriver(std::unique_ptr<Process> process, std::unique_ptr<Transport> transport,
              RoundDriverConfig config);

  /// Blocks until the process reports done() or max_rounds elapse. Returns
  /// the number of rounds executed. Call from a dedicated thread.
  Round run();

  /// Round r without pacing: drain and sort arrivals, deliver the frames
  /// tagged r-1, step the process, send. Returns the process's done().
  bool run_round(Round r);

  [[nodiscard]] Process& process() noexcept { return *process_; }
  // All counters below are written by the driver thread and may be read by
  // other threads while run() is live, so they are atomics — relaxed is
  // enough, they are monotonic statistics with no ordering contract.
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

 private:
  std::unique_ptr<Process> process_;
  std::unique_ptr<Transport> transport_;
  RoundDriverConfig config_;
  struct Filed {
    Round sent = 0;  // the frame's round header
    Message msg;
  };
  std::map<Round, std::vector<Filed>> buffered_;  // by delivery round - 1
  std::map<std::pair<Round, NodeId>, std::uint64_t> link_seq_;  // chaos seq per (round, sender)
  ShardSlabWriter slab_;  // reused send buffer: one coalesced datagram per round
  std::atomic<Round> rounds_executed_{0};
  std::atomic<std::uint64_t> frames_dropped_{0};
  std::atomic<std::uint64_t> frames_late_{0};
};

}  // namespace idonly
