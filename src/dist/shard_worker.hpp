// One shard worker: a script-driven slice of a distributed simulation run.
//
// The worker owns the processes its ShardPlan slice assigns to it, drives
// them through a SyncSimulator that holds only that slice, and speaks the
// coordinator's round protocol (dist/shard_wire.hpp). A round is the
// simulator's own round split at the data plane: begin_round() steps the
// slice and ships its sends as one shard-slab per peer; decode_peer_slab()
// turns each peer's slab into a sender-ascending stream, and merge_round()
// hands those to SyncSimulator::finish_round(), which merges them with the
// local sends on sender id — so a remote broadcast is one deposit into the
// worker's broadcast lane and a chaos fault one mailbox mask, exactly as in
// the single-process engine (DESIGN.md §12). Both halves keep the engine's
// one wrap per run of equal sends: begin_round() encodes each wrap once for
// all its sends and peers, and decode_peer_slab() decodes and wraps each run
// of byte-equal frames once, so a remote two-faced run costs the receiving
// shard per content, not per copy.
//
// The worker reconstructs the ENTIRE run description from the script text
// it inherits at fork — scenario, chaos plan, churn stream — because the
// determinism of the whole scheme rests on every worker deriving identical
// plans from identical inputs:
//
//   * build_processes() constructs EVERY process (all adversaries draw from
//     one shared seed stream) with the harness's make_loop_process, and the
//     worker keeps only its own slice, primed by prime_loop_nodes;
//   * the ChurnDriver runs in every worker, so joiner ids and tracked sets
//     agree everywhere; a joiner is kept only when the plan assigns it here;
//   * the chaos schedule is pure in (seed, link event), so each worker
//     evaluates verdicts for ITS receivers and the union over workers equals
//     the single-process run.
//
// The worker never decides when the run ends — the coordinator owns the
// round loop and the early-exit policy; the worker executes kStep commands
// until kFinish.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/chaos.hpp"
#include "common/trace.hpp"
#include "net/codec.hpp"
#include "dist/shard_plan.hpp"
#include "dist/shard_wire.hpp"
#include "harness/script.hpp"
#include "net/sync_simulator.hpp"

namespace idonly {

/// The worker's engine under its former name; `ShardEngine::Send` is
/// `SyncSimulator::Send`.
using ShardEngine = SyncSimulator;

class ShardWorker {
 public:
  /// Builds the worker's slice of the run described by `init`. Throws
  /// std::invalid_argument on a script parse failure.
  explicit ShardWorker(const ShardInit& init);

  [[nodiscard]] std::uint32_t shard() const noexcept { return shard_; }
  [[nodiscard]] std::uint32_t shards() const noexcept { return shards_; }
  [[nodiscard]] Round round() const noexcept { return engine_.round(); }
  /// This shard's engine slice, read-only (between begin_round() and
  /// merge_round() it lists the round's local sends).
  [[nodiscard]] const ShardEngine& engine() const noexcept { return engine_; }

  /// One outbound cross-shard slab; `bytes` is valid until the next
  /// begin_round() call.
  struct OutboundSlab {
    std::uint32_t dest = 0;
    std::span<const std::byte> bytes;
  };

  /// First half of the next round: apply the round's churn events, run the
  /// engine's begin_round(), and batch the outbound traffic into one slab per
  /// destination shard (empty slabs omitted — absence of traffic is itself
  /// deterministic, so the peer needs no placeholder). Each wrap is encoded
  /// once; the slab bytes are those of ShardSlabWriter::add per send.
  [[nodiscard]] std::vector<OutboundSlab> begin_round();

  /// Second half, step one: decode ONE peer slab into a merge stream. The
  /// boundary merge is order-blind across peer streams, so each slab can be
  /// decoded the moment it arrives (overlapping with the remaining peers'
  /// transfers) and merged once all are in. An entry whose frame is
  /// byte-equal to the previous entry's shares that entry's MessageRef, with
  /// no decode and no wrap: decode() is pure, so it is the same message
  /// (±0.0 encode differently and never share). False on a malformed slab or
  /// frame (error() explains; wire-fault counters record what was rejected)
  /// — the caller must abort the run, as dropping cross-shard traffic would
  /// silently fork determinism.
  [[nodiscard]] bool decode_peer_slab(std::span<const std::byte> bytes,
                                      std::vector<SyncSimulator::Send>& stream);
  /// Second half, step two: run the deterministic boundary merge over every
  /// peer's decoded stream (stream order is irrelevant — the merge orders by
  /// sender id; one shard passes none).
  void merge_round(std::span<const std::vector<SyncSimulator::Send>> streams);

  /// Done flags for the local correct nodes (the coordinator's early-exit
  /// and liveness inputs).
  [[nodiscard]] ShardStatus status();

  /// Final node end states (a leaver's as of its departure), metrics, chaos
  /// counters, and trace rings. The overlap counters are the mesh's; the
  /// protocol loop fills them in.
  [[nodiscard]] ShardResult finalize();

  [[nodiscard]] const std::string& error() const noexcept { return error_; }
  [[nodiscard]] const ScenarioScript& script() const noexcept { return script_; }

 private:
  std::uint32_t shard_ = 0;
  std::uint32_t shards_ = 1;
  ScenarioScript script_;
  Scenario scenario_;
  ShardPlan plan_;
  SyncSimulator engine_;  // this shard's slice only; one thread
  std::shared_ptr<ChaosSchedule> chaos_;
  std::shared_ptr<TraceRecorder> recorder_;
  std::unique_ptr<TraceObserver> observer_;
  std::unique_ptr<ChurnDriver> churn_;
  std::vector<ShardSlabWriter> writers_;  // indexed by destination shard
  std::vector<std::byte> frame_;          // begin_round: the last wrap's encoded frame
  ShardSlabView view_;                    // decode_peer_slab: reused across slabs
  std::vector<std::pair<NodeId, NodeOutcome>> departed_;  // end states of leavers
  FaultCounters wire_faults_;
  std::string error_;
};

/// run_worker_loop's return on any failure it detected itself — after
/// sending kError when the control socket still allowed it. The coordinator
/// tells this exit (and its own SIGKILL) apart from a worker that died.
inline constexpr int kWorkerFailedExit = 1;

/// Child-side protocol loop, called right after fork with the ShardInit the
/// coordinator filled in the child: builds the worker and its mesh, then
/// executes coordinator commands until kFinish (reply kResult, return 0).
/// There is no start-up exchange; a construction failure, or a mesh that
/// does not hold one socket per peer shard, is reported as kError in place
/// of the first kStatus. Any protocol or worker failure sends kError when
/// possible and returns kWorkerFailedExit. Honors ShardInit::crash_at_round
/// by dying abruptly (_exit(13)) before executing that round — the
/// coordinator's crash-detection test hook.
///
/// `peer_fds` (indexed by shard id, -1 for self) are this worker's ends of
/// the mesh socketpairs — one per peer shard, none for a single shard. A
/// kStep runs the WHOLE round — post slabs to peers, drain theirs, merge —
/// and only its kStatus reaches the control socket.
[[nodiscard]] int run_worker_loop(const ShardInit& init, int fd, std::vector<int> peer_fds);

}  // namespace idonly
