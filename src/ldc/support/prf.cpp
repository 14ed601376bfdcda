#include "ldc/support/prf.hpp"

#include <algorithm>
#include <cassert>

namespace ldc {
namespace {

constexpr std::uint64_t kGamma = 0x9e3779b97f4a7c15ULL;

constexpr std::uint64_t mix64(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

std::uint64_t SplitMix64::next() {
  state_ += kGamma;
  return mix64(state_);
}

std::uint64_t SplitMix64::next_below(std::uint64_t bound) {
  assert(bound > 0);
  // 128-bit multiply-shift reduction.
  return static_cast<std::uint64_t>(
      (static_cast<__uint128_t>(next()) * bound) >> 64);
}

double SplitMix64::next_double() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

std::uint64_t Prf::at(std::uint64_t index) const {
  return mix64(mix64(key_ + kGamma) ^ (index * kGamma + 0x243f6a8885a308d3ULL));
}

std::uint64_t Prf::at_below(std::uint64_t index, std::uint64_t bound) const {
  assert(bound > 0);
  return static_cast<std::uint64_t>(
      (static_cast<__uint128_t>(at(index)) * bound) >> 64);
}

std::uint64_t hash_combine(std::uint64_t a, std::uint64_t b) {
  return mix64(a ^ (b + kGamma + (a << 6) + (a >> 2)));
}

std::uint64_t fingerprint(std::span<const std::uint64_t> values) {
  std::uint64_t h = 0x51ed270b0a4725a6ULL;
  for (std::uint64_t v : values) h = hash_combine(h, v);
  return hash_combine(h, values.size());
}

std::uint64_t fingerprint(std::span<const std::uint32_t> values) {
  std::uint64_t h = 0x7b1699a3bd9dd6d1ULL;
  for (std::uint32_t v : values) h = hash_combine(h, v);
  return hash_combine(h, values.size());
}

void sample_distinct(const Prf& prf, std::uint64_t index0,
                     std::uint64_t universe, std::size_t k,
                     std::vector<std::uint64_t>& out) {
  assert(k <= universe);
  out.clear();
  if (k * 2 >= universe) {
    // Dense: a deterministic partial Fisher-Yates over the index array
    // (the whole array when k == universe: no swap moves anything).
    out.resize(universe);
    for (std::uint64_t i = 0; i < universe; ++i) out[i] = i;
    if (k < universe) {
      for (std::size_t i = 0; i < k; ++i) {
        const std::uint64_t j = i + prf.at_below(index0 + i, universe - i);
        std::swap(out[i], out[j]);
      }
      out.resize(k);
    }
  } else {
    // Sparse: the first k distinct draws of the stream. Each pass draws
    // only as many values as are still missing, so the distinct count
    // never passes k and the set is exactly those first k.
    std::uint64_t i = index0;
    while (out.size() < k) {
      for (std::size_t missing = k - out.size(); missing != 0; --missing) {
        out.push_back(prf.at_below(i++, universe));
      }
      std::sort(out.begin(), out.end());
      out.erase(std::unique(out.begin(), out.end()), out.end());
    }
  }
  std::sort(out.begin(), out.end());
}

std::vector<std::uint64_t> sample_distinct(const Prf& prf,
                                           std::uint64_t index0,
                                           std::uint64_t universe,
                                           std::size_t k) {
  std::vector<std::uint64_t> out;
  sample_distinct(prf, index0, universe, k, out);
  return out;
}

}  // namespace ldc
