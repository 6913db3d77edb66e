// Property-sweep grids inside the paper's resiliency bound.
//
// The protocol sweeps cross sizes × fault counts × adversaries × seeds. A
// point with n ≤ 3f is outside every theorem's scope (the n = 3f boundary
// has its own suite, test_resiliency_boundary.cpp), so the grid leaves it
// out rather than instantiating cells that can only skip.
#pragma once

#include <cstdint>
#include <tuple>
#include <vector>

#include "common/thresholds.hpp"
#include "harness/scenario.hpp"

namespace idonly {

/// (n_correct, f, adversary, seed) — the parameter of every protocol sweep.
using SweepCell = std::tuple<std::size_t, std::size_t, AdversaryKind, std::uint64_t>;

/// The cells of sizes × faults × adversaries × seeds with n_correct + f > 3f,
/// in ::testing::Combine order.
inline std::vector<SweepCell> resilient_cells(const std::vector<std::size_t>& sizes,
                                              const std::vector<std::size_t>& faults,
                                              const std::vector<AdversaryKind>& adversaries,
                                              const std::vector<std::uint64_t>& seeds) {
  std::vector<SweepCell> cells;
  for (std::size_t n_correct : sizes) {
    for (std::size_t f : faults) {
      if (!resilient(n_correct + f, f)) continue;
      for (AdversaryKind kind : adversaries) {
        for (std::uint64_t seed : seeds) cells.emplace_back(n_correct, f, kind, seed);
      }
    }
  }
  return cells;
}

}  // namespace idonly
