// Deterministic pseudo-random primitives.
//
// The library is deterministic end to end: every "random" choice is a pure
// function of an explicit 64-bit seed. Two primitives are provided:
//
//  * SplitMix64 — a tiny, fast sequential generator used for graph and
//    instance generation (workloads).
//  * Prf — a keyed pseudo-random function used by the MT20-style candidate
//    machinery, where the paper's zero-round argument requires that a node's
//    output be a pure function of its *type* (initial color, color list).
//    Prf(key).at(i) is stateless random access, so two nodes of equal type
//    compute identical candidate families without communication.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace ldc {

/// splitmix64 (Steele, Lea, Flood) — sequential deterministic generator.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next();

  /// Uniform value in [0, bound); bound > 0. Uses rejection-free Lemire
  /// reduction (slight bias < 2^-32 is irrelevant for workload generation).
  std::uint64_t next_below(std::uint64_t bound);

  /// Uniform double in [0, 1).
  double next_double();

 private:
  std::uint64_t state_;
};

/// Stateless keyed PRF: value = mix(key, index).
class Prf {
 public:
  explicit Prf(std::uint64_t key) : key_(key) {}

  std::uint64_t at(std::uint64_t index) const;

  /// PRF output reduced to [0, bound); bound > 0.
  std::uint64_t at_below(std::uint64_t index, std::uint64_t bound) const;

  std::uint64_t key() const { return key_; }

 private:
  std::uint64_t key_;
};

/// Combines two 64-bit values into a new PRF key (order-sensitive).
std::uint64_t hash_combine(std::uint64_t a, std::uint64_t b);

/// Deterministic 64-bit fingerprint of a sequence (used to key candidate
/// families by a node's color list, i.e. its "type" in the paper's sense).
std::uint64_t fingerprint(std::span<const std::uint64_t> values);
std::uint64_t fingerprint(std::span<const std::uint32_t> values);

/// Deterministically samples `k` distinct indices from [0, universe) using
/// the PRF stream starting at `index0`, into `out` (overwritten; its
/// capacity is kept, so a caller that reuses one buffer stops
/// allocating). Requires k <= universe. Output is sorted. Cost O(k log k)
/// expected.
void sample_distinct(const Prf& prf, std::uint64_t index0,
                     std::uint64_t universe, std::size_t k,
                     std::vector<std::uint64_t>& out);

/// sample_distinct into a fresh vector.
std::vector<std::uint64_t> sample_distinct(const Prf& prf,
                                           std::uint64_t index0,
                                           std::uint64_t universe,
                                           std::size_t k);

}  // namespace ldc
