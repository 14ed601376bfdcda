// Sample statistics shared by every workload: nearest-rank percentiles,
// the choice of the tail percentile, and the seeded generator the
// workloads draw their inputs from.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

namespace pb {

/// Nearest-rank percentile: the element of 1-based rank ceil(q * N) in the
/// ascending order, clamped to [1, N]. Empty input reports 0.
inline double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double n = static_cast<double>(v.size());
  // The epsilon keeps q * N that is an integer in exact arithmetic (0.9 * 200)
  // from rounding up a rank through its binary representation.
  const auto rank = static_cast<std::size_t>(std::ceil(q * n - 1e-9));
  return v[std::min(std::max<std::size_t>(rank, 1), v.size()) - 1];
}

inline double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

/// Samples that lie strictly beyond the nearest-rank q-percentile of N.
inline std::size_t samples_beyond(std::size_t n, double q) {
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(n) - 1e-9));
  return n - std::min(std::max<std::size_t>(rank, 1), n);
}

/// The highest whole percentile (50..99) that leaves at least `beyond`
/// samples above it at N samples; 0 when even the median does not.
inline int tail_percentile_for(std::size_t n, std::size_t beyond = 10) {
  for (int p = 99; p >= 50; --p) {
    if (samples_beyond(n, p / 100.0) >= beyond) return p;
  }
  return 0;
}

/// splitmix64: the benchmark's only source of randomness, so one seed
/// fixes every input and every arrival.
inline std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

inline double uniform01(std::uint64_t& state) {
  return static_cast<double>(splitmix64(state) >> 11) * 0x1.0p-53;
}

}  // namespace pb
