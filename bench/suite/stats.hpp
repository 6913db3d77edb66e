// Order statistics for repetition samples. Quartiles follow Python's
// statistics.quantiles(data, n=4) (the default "exclusive" method), so the
// C++ report and compare.py agree on every number.
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

namespace bench_suite {

struct Summary {
  double median = 0;
  double q1 = 0;
  double q3 = 0;
  double min = 0;
  double max = 0;
  std::size_t n = 0;
};

inline Summary summarize(std::vector<double> samples) {
  Summary s;
  s.n = samples.size();
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  s.min = samples.front();
  s.max = samples.back();
  s.median = n % 2 == 1 ? samples[n / 2] : (samples[n / 2 - 1] + samples[n / 2]) / 2.0;
  if (n == 1) {
    s.q1 = s.q3 = samples.front();
    return s;
  }
  // Python: j = clamp(i*m // 4, 1, n-1); delta = i*m - 4*j, which may fall
  // outside [0, 4] near the ends (linear extrapolation).
  const auto quartile = [&](long long i) {
    const auto count = static_cast<long long>(n);
    const long long m = count + 1;
    const long long j = std::clamp(i * m / 4, 1LL, count - 1);
    const auto delta = static_cast<double>(i * m - j * 4);
    const auto at = [&](long long k) { return samples[static_cast<std::size_t>(k)]; };
    return (at(j - 1) * (4.0 - delta) + at(j) * delta) / 4.0;
  };
  s.q1 = quartile(1);
  s.q3 = quartile(3);
  return s;
}

}  // namespace bench_suite
