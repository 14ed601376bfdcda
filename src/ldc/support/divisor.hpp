// Division by a run-time constant without a divide instruction.
//
// A hardware 64-bit divide costs tens of cycles, and the hot loops of
// Linial's colour reduction (base-q digit splits, reductions mod q) and of
// KW's block arithmetic (φ mod 2B, φ / 2B) divide millions of times by one
// modulus that is fixed for the whole round. A Divisor pays one 128-bit
// division up front for c = ceil(2^128 / d), then divides with two
// 64x64->128-bit multiplies (Lemire, Kaser and Kurz, "Faster remainder by
// direct computation", 2019): floor(n / d) = floor(c * n / 2^128). That is
// exact for every 64-bit n whenever c / 2^128 - 1/d < 1 / (d * 2^64),
// which holds for every d in [1, 2^64) because c * d - 2^128 < d <= 2^64.
// The remainder is n - floor(n / d) * d.
#pragma once

#include <cstdint>
#include <stdexcept>

namespace ldc {

class Divisor {
 public:
  /// d >= 1; d == 0 throws std::invalid_argument.
  explicit Divisor(std::uint64_t d) : d_(d) {
    if (d == 0) throw std::invalid_argument("Divisor: divisor must be >= 1");
    // c - 1 = floor((2^128 - 1) / d) fits 128 bits even for d = 1, where
    // c itself is 2^128; div() adds the missing n back.
    const u128 c1 = ~u128{0} / d;
    lo_ = static_cast<std::uint64_t>(c1);
    hi_ = static_cast<std::uint64_t>(c1 >> 64);
  }

  /// floor(n / d).
  std::uint64_t div(std::uint64_t n) const {
    // c * n = (c - 1) * n + n, as (hi_ * 2^64 + lo_) * n + n. Neither
    // partial sum wraps: each is at most (2^64 - 1) * 2^64.
    const u128 low = static_cast<u128>(lo_) * n + n;
    const u128 high = static_cast<u128>(hi_) * n + (low >> 64);
    return static_cast<std::uint64_t>(high >> 64);
  }

  /// n mod d.
  std::uint64_t mod(std::uint64_t n) const { return n - div(n) * d_; }

 private:
  using u128 = unsigned __int128;

  std::uint64_t d_;
  std::uint64_t lo_ = 0;  ///< low and high words of c - 1
  std::uint64_t hi_ = 0;
};

}  // namespace ldc
