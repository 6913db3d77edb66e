#include "common/rng.hpp"

namespace idonly {

namespace {
[[nodiscard]] constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
  return (x << k) | (x >> (64 - k));
}
}  // namespace

Rng::Rng(std::uint64_t seed) noexcept {
  // Expand the seed; xoshiro state must not be all-zero, which splitmix64
  // output never is for all four words simultaneously.
  std::uint64_t sm = seed;
  for (auto& word : s_) word = splitmix64(sm);
}

std::uint64_t Rng::next() noexcept {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

std::uint64_t Rng::below(std::uint64_t bound) noexcept {
  // Lemire's nearly-divisionless method with rejection for exact uniformity.
  __uint128_t m = static_cast<__uint128_t>(next()) * bound;
  auto lo = static_cast<std::uint64_t>(m);
  if (lo < bound) {
    const std::uint64_t threshold = -bound % bound;
    while (lo < threshold) {
      m = static_cast<__uint128_t>(next()) * bound;
      lo = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

double Rng::uniform() noexcept {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) noexcept { return lo + (hi - lo) * uniform(); }

bool Rng::chance(double p) noexcept { return uniform() < p; }

Rng Rng::fork() noexcept { return Rng{next()}; }

std::uint64_t derive_seed(std::uint64_t experiment_seed, std::uint64_t stream) noexcept {
  std::uint64_t sm = experiment_seed ^ (0xd1b54a32d192ed03ULL * (stream + 1));
  (void)splitmix64(sm);
  return splitmix64(sm);
}

}  // namespace idonly
