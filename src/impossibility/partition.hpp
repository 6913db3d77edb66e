// Realizing the paper's impossibility arguments (§Synchrony is Necessary).
//
// Both lemmas are indistinguishability constructions: partition the network
// into A (inputs 1) and B (inputs 0), keep all cross-partition traffic from
// arriving before each side's decision point, and each side — unable to
// distinguish the run from one where the other side does not exist, because
// it knows neither n nor f — decides its own value. This module builds
// those executions on the synchronous engine, with the cross traffic cut by
// one chaos partition phase over rounds 1..Δ, and measures how often they
// produce disagreement:
//   * asynchronous case: a partition that outlasts the decision round →
//     disagreement certain;
//   * semi-synchronous case: the partition lasts at most Δ rounds, Δ unknown
//     to the nodes; any finite decision round T loses once Δ ≥ T − 1 (the
//     lemma's inductive construction), while a shorter partition is safe —
//     but no node can know Δ, so no safe T exists. The experiment sweeps
//     Δ/T and shows the sharp transition.
//
// The protocol under test is the natural "decide after a quiet window"
// rule — the best a node can do without n or f: broadcast the input every
// round, keep the latest value per sender, decide the majority of everything
// heard at local round T. Because every node re-sends every round, a cut
// frame is indistinguishable from a late one: the first cross value a node
// hears was sent in round Δ + 1 and arrives in round Δ + 2, after a decision
// at T ≤ Δ + 1. Hence the step sits at Δ = T − 1.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"

namespace idonly {

struct PartitionConfig {
  std::size_t n_a = 4;            ///< nodes with input 1
  std::size_t n_b = 4;            ///< nodes with input 0
  Round partition_rounds = 1000;  ///< Δ: cross traffic sent in rounds 1..Δ is cut
  Round decide_round = 10;        ///< the nodes' quiet-window guess T (local round)
};

struct PartitionResult {
  bool all_decided = false;
  bool disagreement = false;
  std::vector<double> decisions_a;  ///< ascending node id
  std::vector<double> decisions_b;
};

/// Deterministic single execution of the partition construction, stepped on
/// `threads` threads (the outcome is the same for every value).
[[nodiscard]] PartitionResult run_partition_execution(const PartitionConfig& config,
                                                      unsigned threads = 1);

/// Randomized semi-synchronous trials: each trial cuts cross traffic for an
/// integer number of rounds drawn uniformly from [⌈0.8Δ⌉, Δ] — near the
/// bound — against decision round T; returns the fraction of trials ending
/// in disagreement. Requires delta ≥ 0 and decide_round ≥ 1.
[[nodiscard]] double semi_sync_disagreement_rate(std::size_t n_a, std::size_t n_b, Round delta,
                                                 Round decide_round, int trials,
                                                 std::uint64_t seed);

}  // namespace idonly
