// Reed-Solomon cover-free families.
//
// The classic construction behind Linial's O(log* n) coloring [Lin87] and
// its defective variant [Kuh09]: identify each of m input colors with a
// polynomial of degree `deg` over GF(q) (possible when q^(deg+1) >= m), and
// let the set of input color c be { (x, p_c(x)) : x in GF(q) } inside the
// output space [q^2]. Two distinct polynomials agree on at most `deg`
// points, so a node with at most D conflicting neighbors finds an
// evaluation point x where at most floor(D*deg/q) neighbors agree — i.e. a
// d-defective choice whenever q > D*deg/(d+1).
#pragma once

#include <cstdint>
#include <vector>

#include "ldc/support/divisor.hpp"

namespace ldc::linial {

/// One Reed-Solomon family: parameters are shared globally (all nodes
/// compute the same family from (m, D, d)).
struct RsFamily {
  std::uint64_t q = 0;        ///< prime field size
  std::uint32_t deg = 1;      ///< polynomial degree
  std::uint64_t input_space = 0;   ///< m: colors representable

  /// q^2; throws std::overflow_error if the output space does not fit in
  /// 64 bits (such a family names colors no palette can hold).
  std::uint64_t output_space() const;

  /// The family element of input color `color` at evaluation point `x`:
  /// the output color x*q + p_color(x).
  std::uint64_t element(std::uint64_t color, std::uint64_t x) const;

  /// p_color(x) only (the value part of the pair).
  std::uint64_t evaluate(std::uint64_t color, std::uint64_t x) const;
};

/// Per-round evaluation tables for one family. RsFamily::evaluate redoes
/// the base-q digit split of `color` (deg+1 divisions) on every (color, x)
/// call — inside a round loop that is q * |conflicts| division chains per
/// node. An RsEvalTable hoists the per-color work out of the x loop
/// (digits_of, once per color) and pre-tabulates x^j mod q for every
/// (x, j), so eval() is a dot product of table lookups and one final
/// reduction. Every split and reduction multiplies by q's precomputed
/// reciprocal (a Divisor) instead of dividing.
///
/// Build one per round (it depends only on the family, which is shared by
/// all nodes); eval results are bit-identical to RsFamily::evaluate.
class RsEvalTable {
 public:
  /// fam.q must lie in [1, 2^32 - 1], as every family choose_family
  /// returns does; otherwise std::invalid_argument.
  explicit RsEvalTable(const RsFamily& fam);

  const RsFamily& family() const { return fam_; }

  /// Writes the base-q digits of `color` (the polynomial's coefficients)
  /// to out[0 .. deg]; out must hold deg+1 entries.
  void digits_of(std::uint64_t color, std::uint64_t* out) const;

  /// p_color(0): the constant digit, color mod q, with no digit split.
  std::uint64_t at_zero(std::uint64_t color) const { return q_.mod(color); }

  /// p(x) for the polynomial with coefficient vector `digits` (length
  /// deg+1, each digit < q), x < q.
  std::uint64_t eval(const std::uint64_t* digits, std::uint64_t x) const;

 private:
  RsFamily fam_;
  Divisor q_;
  std::vector<std::uint64_t> pow_; ///< pow_[x*(deg+1) + j] = x^j mod q;
                                   ///< empty => Horner fallback, when
                                   ///< q * (deg+1) > 2^22
};

/// Smallest integer r with r^k >= m (integer k-th root, rounded up).
std::uint64_t kth_root_ceil(std::uint64_t m, unsigned k);

/// Picks the family minimizing the output space q^2 subject to
///   q^(deg+1) >= m     (every input color is a distinct polynomial)
///   q > D*deg/(d+1)    (a d-defective evaluation point always exists
///                       against <= D conflicting neighbors)
/// over deg = 1..63. m >= 1, D >= 1. All candidate arithmetic is
/// overflow-checked: degrees whose required q would make q^2 wrap 64 bits
/// are rejected, and if no degree admits a representable family the call
/// throws std::overflow_error instead of returning a wrapped (invalid)
/// family.
RsFamily choose_family(std::uint64_t m, std::uint64_t D, std::uint32_t d);

}  // namespace ldc::linial
