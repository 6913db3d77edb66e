// Multi-process distributed simulation: fork N shard workers, drive the
// round protocol, and merge the results into the same ScriptRun a
// single-process run_script() produces.
//
// One data plane (DESIGN.md §12): the coordinator plumbs one AF_UNIX
// socketpair per shard PAIR at fork time and the workers exchange the
// round's slabs peer-to-peer (dist/shard_mesh.hpp); a single shard has no
// pairs and its worker steps and merges with zero peers. The coordinator is
// a pure CONTROL plane — round pacing, the early-exit policy, the crash
// watchdog, and the merged counters; no slab byte transits it. For
// totalorder (round count data-independent) it runs the round loop with
// lookahead 2: kStep r+1 is broadcast before round r's statuses are
// harvested, so workers double-buffer rounds instead of barriering on the
// coordinator. Consensus keeps strict alternation — its early exit depends
// on every round's statuses.
//
// The run itself is the harness's: harness/script.hpp defines
// each round-loop protocol once ("Round-loop protocols") — the workers
// build and prime their processes with its factories, and the coordinator
// asks its stop rule (worker statuses standing in for the processes) and
// hands the merged end states to its verdict and summary line. Only the
// invariant monitor's feed differs: run_script's is online, run_dist's
// replays the initial correct nodes' final decisions. The coordinator's own
// ChurnDriver (engine-agnostic, same seed stream as the workers') tracks
// the evolving set of nodes the expectations quantify over.
//
// Failure handling: a worker that closes its socket (crash) or stops
// answering (wedge) fails the RUN, not the coordinator — every worker is
// SIGKILLed and reaped FIRST, and the result carries `infra_ok = false`
// plus a message naming the shard and the failure mode. The message blames
// the worker that died on its own (not by the SIGKILL, not with the exit
// after a kError it sent), whichever socket reported the failure first: a
// crash shows up on the mesh too, as a survivor's kError naming its dead
// peer, and that report is appended. The wedge budget reuses
// the runtime watchdog's retirement policy (runtime/watchdog.hpp): a silent
// worker is granted WatchdogConfig::max_restarts_per_slot extra polling
// grace periods — restarting a deterministic shard mid-round is
// meaningless, so "restart budget spent" maps to "retire the run". There is
// deliberately no partial-result path: a run missing one shard's traffic
// would be a DIFFERENT run, silently.
//
// Determinism: for the same script and seed, the merged canonical trace
// (flight-recorder link verdicts) is byte-identical to
// `run_script(..., threads=1)` with a recorder — the CI dist-smoke job
// byte-compares the two exports. See DESIGN.md §12 for the argument.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "common/metrics.hpp"
#include "common/trace.hpp"
#include "dist/shard_trace.hpp"
#include "harness/script.hpp"

namespace idonly {

struct DistConfig {
  std::string script_text;
  std::uint32_t shards = 1;
  /// Capture the flight-recorder trace (workers record their own nodes; the
  /// coordinator splices the rings).
  bool want_trace = false;
  /// Read by nothing: every run exchanges slabs over the worker mesh. Kept
  /// only because bench/suite/runs.cpp assigns it (ROADMAP item 6).
  bool mesh = true;
  /// Whole-frame receive budget per worker reply before the worker counts
  /// as wedged (then the watchdog-style grace retries start).
  int wedge_timeout_ms = 60000;
  /// Test hook: worker `crash_shard` dies abruptly before executing round
  /// `crash_at_round` (0 = never). The run must fail cleanly, not hang.
  Round crash_at_round = 0;
  std::uint32_t crash_shard = 0;
};

struct DistRun {
  /// False when the RUN INFRASTRUCTURE failed — a worker crashed, wedged,
  /// or broke protocol. `script` is meaningless in that case.
  bool infra_ok = true;
  std::string infra_error;
  /// The merged run result, same shape and summary format as run_script().
  ScriptRun script;
  /// Merged fleet metrics — message/fanout counters summed across shards,
  /// plus the mesh's overlap counters (rounds_overlapped, recv_stall_ns,
  /// slabs_direct).
  Metrics metrics;
  /// Sharded flight-recorder epilogue (null unless want_trace and
  /// infra_ok): each worker's rings absorbed as one per-shard stream,
  /// exports k-way merged — byte-identical to the recorder-based exports.
  std::shared_ptr<ShardedTrace> trace;
};

/// Execute the scripted run across `config.shards` forked worker processes.
/// Supports the consensus and totalorder protocols, chaos and churn
/// included. Never throws on worker failure — that is an infra_ok=false
/// result; throws only on programmer error (e.g. empty script text).
[[nodiscard]] DistRun run_dist(const DistConfig& config);

}  // namespace idonly
