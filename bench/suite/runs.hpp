// Child bodies: what one forked repetition executes. Each body calls the
// library's public entry points only and reports named numbers (child.hpp).
//
// Every body reports "rounds" and "deliveries", the deterministic outputs
// the suite checks against the workload's pin (or against each other at
// other seeds), so a twin that drifts from the real loop is caught.
#pragma once

#include <cstdint>
#include <string>

#include "child.hpp"

namespace bench_suite {

/// The timed run: parse_script + run_script (threads) or run_dist (shards,
/// mesh). Reports infra_ok, all_satisfied, violations and, for dist runs,
/// the fleet's overlap counters.
[[nodiscard]] Values timed_run(const std::string& text, bool dist);

/// The set-up each run pays, timed inside the child as "setup_s".
/// In-process: parse_script + make_scenario + build_processes into a fresh
/// SyncSimulator. Dist: parse_script + the slowest ShardWorker construction.
[[nodiscard]] Values setup_run(const std::string& text, bool dist);

/// In-process traced twin: the harness loop over a SyncSimulator whose
/// processes are wrapped in a timing decorator at the build_processes sink.
/// Reports the harness, net, net.parallel_exec, core, adversary and
/// common.chaos metrics, "bench.step_coverage" and the twin's "wall_s".
[[nodiscard]] Values sync_twin(const std::string& text, unsigned threads);

/// Dist traced twin: `shards` ShardWorkers driven on one thread with the
/// coordinator's loop policy, timing begin_round / decode_peer_slab /
/// merge_round per shard, then a codec pass over the slabs they produced.
/// Reports the dist and net.codec metrics, harness.parse_ms/build_ms and
/// the twin's "wall_s".
[[nodiscard]] Values fleet_twin(const std::string& text, std::uint32_t shards);

/// run_script at one thread, with or without a TraceRecorder attached.
/// Reports "wall_s" and, with the recorder, "records" (kept + evicted).
[[nodiscard]] Values trace_twin(const std::string& text, bool with_recorder);

}  // namespace bench_suite
