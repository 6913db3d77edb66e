// Deterministic random number generation.
//
// Every stochastic choice in the library (adversary behaviour, input
// generation, churn schedules) flows from a single experiment seed so runs
// are exactly reproducible. We implement splitmix64 (for seeding) and
// xoshiro256** (for the stream) rather than depending on <random> engines
// whose streams are not guaranteed identical across standard libraries.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

namespace idonly {

/// splitmix64 step — used to expand a single seed into xoshiro state, to
/// derive independent per-node seeds from (experiment_seed, node_id), and to
/// key every chaos verdict (common/chaos.cpp), where it runs per link.
[[nodiscard]] inline std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// xoshiro256** — fast, high-quality, fully deterministic PRNG.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) noexcept;

  /// Uniform 64-bit word.
  [[nodiscard]] std::uint64_t next() noexcept;

  /// Uniform integer in [0, bound) using Lemire rejection; bound > 0.
  [[nodiscard]] std::uint64_t below(std::uint64_t bound) noexcept;

  /// Uniform double in [0, 1).
  [[nodiscard]] double uniform() noexcept;

  /// Uniform double in [lo, hi).
  [[nodiscard]] double uniform(double lo, double hi) noexcept;

  /// Bernoulli trial with probability p.
  [[nodiscard]] bool chance(double p) noexcept;

  /// Fisher–Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& items) noexcept {
    for (std::size_t i = items.size(); i > 1; --i) {
      using std::swap;
      swap(items[i - 1], items[below(i)]);
    }
  }

  /// Derive an independent child generator (e.g. one per node).
  [[nodiscard]] Rng fork() noexcept;

 private:
  std::array<std::uint64_t, 4> s_{};
};

/// Stable per-node seed derivation so adding nodes to a scenario does not
/// perturb the randomness of existing ones.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t experiment_seed, std::uint64_t stream) noexcept;

}  // namespace idonly
