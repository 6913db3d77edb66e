// Node-id → shard partitioning for the distributed shard engine.
//
// The plan slices the INITIAL sorted id list into contiguous ranges with the
// same lane math the in-process parallel engine uses for its merge lanes
// (slice k covers indices [n*k/S, n*(k+1)/S) — see net/parallel_exec.hpp and
// SyncSimulator::begin_round's lane plan), so a node's shard is a pure
// function of (initial ids, shard count). Churn-admitted joiners draw ids
// ABOVE every initial id (harness ChurnDriver), so any id past the initial
// range maps by modulo — a deterministic spread that every worker computes
// identically.
//
// The assignment rule is NOT part of the determinism argument: cross-shard
// ordering comes from the ascending-sender merge at the receiving shard
// (SyncSimulator::finish_round), which is correct for ANY deterministic
// partition. The plan only has to be identical across workers and balanced
// enough to be useful.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/types.hpp"

namespace idonly {

class ShardPlan {
 public:
  /// Partition `initial_ids` (any order; sorted internally) across `shards`
  /// workers. shards >= 1; shards may exceed the id count (the tail slices
  /// are empty).
  [[nodiscard]] static ShardPlan build(std::span<const NodeId> initial_ids,
                                       std::uint32_t shards);

  [[nodiscard]] std::uint32_t shards() const noexcept { return shards_; }

  /// The owning shard of `id`: initial ids by their contiguous slice,
  /// anything else (churn joiners, adversary-invented targets) by modulo.
  [[nodiscard]] std::uint32_t owner(NodeId id) const noexcept;

  /// The initial ids owned by shard `k`, ascending.
  [[nodiscard]] std::span<const NodeId> initial_slice(std::uint32_t k) const noexcept;

  [[nodiscard]] const std::vector<NodeId>& initial_ids() const noexcept { return ids_; }

 private:
  std::uint32_t shards_ = 1;
  std::vector<NodeId> ids_;          ///< initial ids, sorted
  std::vector<std::size_t> starts_;  ///< shards_+1 slice boundaries into ids_
};

}  // namespace idonly
