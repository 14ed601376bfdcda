#include "ldc/support/math.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <stdexcept>

#include "ldc/support/divisor.hpp"

namespace ldc {
namespace {

TEST(Math, Ilog2) {
  EXPECT_EQ(ilog2(1), 0);
  EXPECT_EQ(ilog2(2), 1);
  EXPECT_EQ(ilog2(3), 1);
  EXPECT_EQ(ilog2(4), 2);
  EXPECT_EQ(ilog2(1023), 9);
  EXPECT_EQ(ilog2(1024), 10);
  EXPECT_EQ(ilog2(~0ULL), 63);
}

TEST(Math, CeilLog2) {
  EXPECT_EQ(ceil_log2(1), 0);
  EXPECT_EQ(ceil_log2(2), 1);
  EXPECT_EQ(ceil_log2(3), 2);
  EXPECT_EQ(ceil_log2(4), 2);
  EXPECT_EQ(ceil_log2(5), 3);
  EXPECT_EQ(ceil_log2(1ULL << 40), 40);
  EXPECT_EQ(ceil_log2((1ULL << 40) + 1), 41);
}

TEST(Math, CeilDiv) {
  EXPECT_EQ(ceil_div(0, 5), 0u);
  EXPECT_EQ(ceil_div(1, 5), 1u);
  EXPECT_EQ(ceil_div(5, 5), 1u);
  EXPECT_EQ(ceil_div(6, 5), 2u);
}

TEST(Math, NextPow2) {
  EXPECT_EQ(next_pow2(1), 1u);
  EXPECT_EQ(next_pow2(2), 2u);
  EXPECT_EQ(next_pow2(3), 4u);
  EXPECT_EQ(next_pow2(1000), 1024u);
}

TEST(Math, LogStar) {
  EXPECT_EQ(log_star(1), 0);
  EXPECT_EQ(log_star(2), 1);
  EXPECT_EQ(log_star(4), 2);
  EXPECT_EQ(log_star(16), 3);
  EXPECT_EQ(log_star(65536), 4);
  // 2^64-1 -> 63 -> 5 -> 2 -> 1: four applications of floor(log2).
  EXPECT_EQ(log_star(~0ULL), 4);
}

TEST(Math, SatPow) {
  EXPECT_EQ(sat_pow(2, 10), 1024u);
  EXPECT_EQ(sat_pow(10, 0), 1u);
  EXPECT_EQ(sat_pow(2, 64), std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(sat_pow(1ULL << 32, 3), std::numeric_limits<std::uint64_t>::max());
}

TEST(Math, SatMul) {
  EXPECT_EQ(sat_mul(3, 4), 12u);
  EXPECT_EQ(sat_mul(1ULL << 40, 1ULL << 40),
            std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(sat_mul(0, ~0ULL), 0u);
}

TEST(Math, DivisorMatchesHardwareDivision) {
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  // 1 (where ceil(2^128 / d) itself needs 129 bits), small moduli, KW's
  // 2B at Delta = 16, the largest prime below 2^32 (Linial's largest q),
  // and two divisors at the top of the range.
  for (const std::uint64_t d :
       {std::uint64_t{1}, std::uint64_t{2}, std::uint64_t{3},
        std::uint64_t{34}, std::uint64_t{4294967291},
        (std::uint64_t{1} << 63) + 1, kMax}) {
    const Divisor div(d);
    // d + 1 wraps to 0 at d = 2^64 - 1, which is covered anyway.
    for (const std::uint64_t n :
         {std::uint64_t{0}, d - 1, d, d + 1, (std::uint64_t{1} << 32) - 1,
          (std::uint64_t{1} << 32) + 1, kMax}) {
      EXPECT_EQ(div.div(n), n / d) << n << " / " << d;
      EXPECT_EQ(div.mod(n), n % d) << n << " % " << d;
    }
  }
}

TEST(Math, DivisorMatchesHardwareDivisionOnRandomPairs) {
  // Divisors of every width, numerators of every width, and the numerators
  // next to multiples of d where a rounding error would first show.
  std::uint64_t state = 0x9E3779B97F4A7C15ull;
  auto next = [&state] {
    state += 0x9E3779B97F4A7C15ull;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  };
  for (int i = 0; i < 20000; ++i) {
    const unsigned shift = static_cast<unsigned>(i % 64);
    const std::uint64_t d = std::max<std::uint64_t>(1, next() >> shift);
    const Divisor div(d);
    const std::uint64_t k = next() / d;  // a multiple of d that fits
    for (const std::uint64_t n :
         {next() >> (i % 61), k * d, k * d - 1, k * d + (d - 1)}) {
      ASSERT_EQ(div.div(n), n / d) << n << " / " << d;
      ASSERT_EQ(div.mod(n), n % d) << n << " % " << d;
    }
  }
}

TEST(Math, DivisorRejectsZero) {
  EXPECT_THROW(Divisor(0), std::invalid_argument);
}

}  // namespace
}  // namespace ldc
