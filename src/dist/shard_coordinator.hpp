// Multi-process distributed simulation: fork N shard workers, drive the
// round protocol, and merge the results into the same ScriptRun a
// single-process run_script() produces.
//
// One data plane (DESIGN.md §12): the coordinator plumbs one AF_UNIX
// socketpair per shard PAIR at fork time and the workers exchange the
// round's slabs peer-to-peer (dist/shard_mesh.hpp); a single shard has no
// pairs and its worker steps and merges with zero peers. Each forked child
// builds its worker from the script and options it already holds, so the
// first control frame is round 1's kStep — there is no start-up exchange,
// on the control plane or the mesh. The coordinator is a pure CONTROL
// plane — round pacing, the early-exit policy, the crash watchdog, and the
// merged counters; no slab byte transits it. For rb and
// totalorder (round count data-independent) it runs the round loop with
// lookahead 2: kStep r+1 is broadcast before round r's statuses are
// harvested, so workers double-buffer rounds instead of barriering on the
// coordinator. Protocols that stop early keep strict alternation — their
// early exit depends on every round's statuses.
//
// The run itself is the harness's: harness/script.hpp defines every
// protocol's run once ("Round-loop protocols") — the workers build and
// prime their processes with its factories, and the coordinator asks its
// stop rule and round budget (worker statuses standing in for the
// processes) and hands the merged end states to its verdict and summary
// line. Only the
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
// peer, and that report is appended. A worker whose reply has not arrived
// whole within one wedge timeout (DistConfig::wedge_timeout_ms) counts as
// wedged — restarting a deterministic shard mid-round is meaningless, so
// the timeout retires the run. There is deliberately no partial-result
// path: a run missing one shard's traffic would be a DIFFERENT run,
// silently.
//
// Determinism: the coordinator splices every worker's per-node trace rings
// into one TraceRecorder (absorb_ring), so for the same script and seed
// both its exports — raw and canonical — are byte-identical to
// `run_script(..., threads=1)` with a recorder, evicted rings included; the
// CI dist-smoke job byte-compares them. A node that two workers both report
// fails the run (infra_ok = false, naming the worker). See DESIGN.md §12
// for the argument.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "common/metrics.hpp"
#include "common/trace.hpp"
#include "harness/script.hpp"

namespace idonly {

struct DistConfig {
  std::string script_text;
  std::uint32_t shards = 1;
  /// Capture the flight-recorder trace (workers record their own nodes; the
  /// coordinator splices the rings).
  bool want_trace = false;
  /// Read by nothing: every run exchanges slabs over the worker mesh. Kept
  /// only because bench/suite/runs.cpp assigns it (ROADMAP item 8).
  bool mesh = true;
  /// Whole-frame receive budget per worker reply; a worker that has not
  /// sent its whole reply by then counts as wedged.
  int wedge_timeout_ms = 120000;
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
  /// The flight recorder rebuilt from every worker's rings with
  /// TraceRecorder::absorb_ring (null unless want_trace and infra_ok). Its
  /// exports are byte-identical to a single-process recorder's.
  std::shared_ptr<TraceRecorder> trace;
};

/// Execute the scripted run across `config.shards` forked worker processes.
/// Supports every script protocol, chaos and churn included. Never throws
/// on worker failure — that is an infra_ok=false result; throws only on
/// programmer error (e.g. empty script text).
[[nodiscard]] DistRun run_dist(const DistConfig& config);

}  // namespace idonly
