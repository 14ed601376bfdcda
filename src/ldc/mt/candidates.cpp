#include "ldc/mt/candidates.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "ldc/support/math.hpp"
#include "ldc/support/prf.hpp"

namespace ldc::mt {

std::uint32_t tau_formula(std::uint32_t h, std::uint64_t color_space,
                          std::uint64_t m) {
  const double llc =
      std::log2(std::max(2.0, std::log2(static_cast<double>(
                                  std::max<std::uint64_t>(2, color_space)))));
  const double llm =
      std::log2(std::max(2.0, std::log2(static_cast<double>(
                                  std::max<std::uint64_t>(2, m)))));
  return static_cast<std::uint32_t>(
      std::ceil(8.0 * h + 2.0 * llc + 2.0 * llm + 16.0));
}

std::uint32_t effective_tau(const CandidateParams& p, std::uint32_t h,
                            std::uint64_t color_space, std::uint64_t m) {
  if (p.tau != 0) return p.tau;
  return std::min(p.tau_cap, tau_formula(h, color_space, m));
}

CandidateFamily::CandidateFamily(std::uint64_t key,
                                 std::span<const Color> list,
                                 std::uint32_t set_size,
                                 std::uint32_t kprime)
    : set_size_(set_size), kprime_(kprime) {
  assert(std::is_sorted(list.begin(), list.end()));
  if (set_size_ > list.size()) {
    set_size_ = static_cast<std::uint32_t>(list.size());
    degraded_ = true;
  }
  if (kprime_ == 0) kprime_ = 1;
  storage_.reserve(static_cast<std::size_t>(set_size_) * kprime_);
  const Prf prf(key);
  static thread_local std::vector<std::uint64_t> idx;
  for (std::uint32_t j = 0; j < kprime_; ++j) {
    sample_distinct(prf, static_cast<std::uint64_t>(j) << 32, list.size(),
                    set_size_, idx);
    for (auto i : idx) storage_.push_back(list[i]);
  }
}

std::uint64_t type_key(std::uint64_t initial_color,
                       std::span<const Color> restricted_list) {
  return hash_combine(initial_color, fingerprint(restricted_list));
}

std::vector<Color> best_residue_sublist(std::span<const Color> list,
                                        std::uint32_t g,
                                        std::uint32_t* residue_out) {
  const std::uint32_t mod = 2 * g + 1;
  if (mod == 1) {
    if (residue_out != nullptr) *residue_out = 0;
    return {list.begin(), list.end()};
  }
  std::vector<std::uint32_t> counts(mod, 0);
  for (Color c : list) ++counts[c % mod];
  const std::uint32_t best = static_cast<std::uint32_t>(
      std::max_element(counts.begin(), counts.end()) - counts.begin());
  std::vector<Color> out;
  out.reserve(counts[best]);
  for (Color c : list) {
    if (c % mod == best) out.push_back(c);
  }
  if (residue_out != nullptr) *residue_out = best;
  return out;
}

}  // namespace ldc::mt
