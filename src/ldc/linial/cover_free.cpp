#include "ldc/linial/cover_free.hpp"

#include <array>
#include <cassert>
#include <limits>
#include <stdexcept>

#include "ldc/support/math.hpp"
#include "ldc/support/primes.hpp"

namespace ldc::linial {
namespace {

// Largest q whose square still fits in 64 bits: families beyond this name
// output colors no uint64 palette can hold.
constexpr std::uint64_t kMaxQ = 0xFFFFFFFFull;  // floor(sqrt(2^64 - 1))

// Cap on pow-table entries (q * (deg+1)); above it RsEvalTable falls back
// to Horner so one huge first round cannot allocate an outsized table.
constexpr std::uint64_t kMaxPowEntries = std::uint64_t{1} << 22;

}  // namespace

std::uint64_t RsFamily::output_space() const {
  return checked_mul(q, q, "RsFamily::output_space: q^2 overflows uint64");
}

std::uint64_t RsFamily::evaluate(std::uint64_t color, std::uint64_t x) const {
  assert(color < input_space);
  // Coefficients are the base-q digits of `color`.
  std::array<std::uint64_t, 64> digits{};
  const unsigned k = deg + 1;
  for (unsigned i = 0; i < k; ++i) {
    digits[i] = color % q;
    color /= q;
  }
  return poly_eval({digits.data(), k}, x, q);
}

std::uint64_t RsFamily::element(std::uint64_t color, std::uint64_t x) const {
  assert(x < q);
  return x * q + evaluate(color, x);
}

RsEvalTable::RsEvalTable(const RsFamily& fam) : fam_(fam), q_(fam.q) {
  // eval's 64-bit Horner needs q^2 to fit, as every element x*q + p does.
  if (fam_.q > kMaxQ) {
    throw std::invalid_argument("RsEvalTable: q^2 overflows uint64");
  }
  const std::uint64_t k = fam_.deg + 1;
  if (sat_mul(fam_.q, k) > kMaxPowEntries) {
    return;  // Horner fallback; digit caching still applies
  }
  pow_.resize(static_cast<std::size_t>(fam_.q * k));
  for (std::uint64_t x = 0; x < fam_.q; ++x) {
    std::uint64_t* row = &pow_[x * k];
    row[0] = fam_.q == 1 ? 0 : 1;  // x^0 mod q
    for (std::uint64_t j = 1; j < k; ++j) row[j] = q_.mod(row[j - 1] * x);
  }
}

void RsEvalTable::digits_of(std::uint64_t color, std::uint64_t* out) const {
  const unsigned k = fam_.deg + 1;
  for (unsigned i = 0; i < k; ++i) {
    const std::uint64_t rest = q_.div(color);
    out[i] = color - rest * fam_.q;
    color = rest;
  }
}

std::uint64_t RsEvalTable::eval(const std::uint64_t* digits,
                                std::uint64_t x) const {
  const unsigned k = fam_.deg + 1;
  if (!pow_.empty()) {
    // The table exists only for q * k <= kMaxPowEntries = 2^22, where the
    // k products, each below q^2, sum to less than q * (q * k) <= 2^44:
    // one reduction at the end.
    const std::uint64_t* row = &pow_[x * k];
    std::uint64_t acc = 0;
    for (unsigned j = 0; j < k; ++j) acc += digits[j] * row[j];
    return q_.mod(acc);
  }
  // Horner in 64 bits, as q <= kMaxQ < 2^32: acc * x + digit is at most
  // (q - 1)^2 + (q - 1) < q^2.
  std::uint64_t acc = 0;
  for (unsigned j = k; j-- > 0;) acc = q_.mod(acc * x + digits[j]);
  return acc;
}

std::uint64_t kth_root_ceil(std::uint64_t m, unsigned k) {
  assert(k >= 1 && m >= 1);
  if (k == 1) return m;
  std::uint64_t lo = 1, hi = 1;
  while (sat_pow(hi, k) < m) hi *= 2;
  while (lo < hi) {
    const std::uint64_t mid = lo + (hi - lo) / 2;
    if (sat_pow(mid, k) >= m) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return lo;
}

RsFamily choose_family(std::uint64_t m, std::uint64_t D, std::uint32_t d) {
  if (m == 0 || D == 0) throw std::invalid_argument("choose_family: m,D >= 1");
  RsFamily best;
  std::uint64_t best_out = std::numeric_limits<std::uint64_t>::max();
  bool found = false;
  for (std::uint32_t deg = 1; deg < 64; ++deg) {
    // q > D*deg/(d+1)  <=>  q >= floor(D*deg/(d+1)) + 1. D*deg can exceed
    // 64 bits for adversarial D, so the bound is computed in 128 bits — a
    // wrapped q_conflict here used to yield a tiny q that violates the
    // defect guarantee silently.
    const unsigned __int128 conflict_floor =
        static_cast<unsigned __int128>(D) * deg / (d + 1);
    if (conflict_floor >= kMaxQ) break;  // grows with deg: no deg beyond fits
    const std::uint64_t q_conflict =
        static_cast<std::uint64_t>(conflict_floor) + 1;
    const std::uint64_t q_capacity = kth_root_ceil(m, deg + 1);
    if (q_capacity <= kMaxQ) {
      const std::uint64_t q = next_prime(std::max(q_conflict, q_capacity));
      if (q <= kMaxQ) {  // prime gap cannot push past the cap in practice
        const std::uint64_t out = q * q;  // exact: q^2 <= kMaxQ^2 < 2^64
        if (out < best_out) {
          best = RsFamily{q, deg, m};
          best_out = out;
          found = true;
        }
      }
    }
    // Once capacity stops binding, larger deg only increases q_conflict.
    if (q_capacity <= q_conflict) break;
  }
  if (!found) {
    throw std::overflow_error(
        "choose_family: no representable family — q^2 would overflow uint64 "
        "for every admissible degree (m or D too large)");
  }
  return best;
}

}  // namespace ldc::linial
