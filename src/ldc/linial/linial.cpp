#include "ldc/linial/linial.hpp"

#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "ldc/linial/cover_free.hpp"

namespace ldc::linial {
namespace {

std::uint64_t conflict_bound(const Graph& g, const Options& opt) {
  if (opt.orientation != nullptr) return opt.orientation->max_beta();
  return std::max<std::uint64_t>(1, g.max_degree());
}

/// Throws std::overflow_error unless every colour below `palette` fits a
/// Color.
void check_fits_color(std::uint64_t palette) {
  if (palette - 1 > std::numeric_limits<Color>::max()) {
    throw std::overflow_error(
        "linial: a palette of " + std::to_string(palette) +
        " colours does not fit the 32-bit Color type");
  }
}

/// One reduction round from the proper `palette`-colouring phi, whose
/// colours are Colors or, in color()'s first round, the 64-bit ids, into
/// next. Returns the new palette.
template <typename In>
std::uint64_t reduce_into(Network& net, const std::vector<In>& phi,
                          std::uint64_t palette, std::uint32_t defect,
                          const Options& opt, Coloring& next) {
  const Graph& g = net.graph();
  const RsFamily fam = choose_family(palette, conflict_bound(g, opt), defect);
  check_fits_color(fam.output_space());
  // Per-round GF(q) tables: digits split once per color, x^j mod q looked
  // up instead of recomputed per (color, x) pair.
  const RsEvalTable tab(fam);
  const unsigned k = fam.deg + 1;

  // Round: everyone broadcasts its current color (O(log palette) bits) —
  // one bounded word per node, a word round.
  std::vector<std::uint64_t> words(g.n());
  net.run_node_programs(
      [&](NodeId v) { words[v] = phi[v]; });
  const WordMail inboxes = net.exchange_broadcast_word(words, palette - 1);

  next.resize(g.n());
  net.run_node_programs([&](NodeId v) {
    // The conflicting neighbours' colours, then (only if needed) their
    // digits behind the node's own: per-thread buffers, reused.
    static thread_local std::vector<std::uint64_t> conflicts;
    static thread_local std::vector<std::uint64_t> digits;
    conflicts.clear();
    for (const auto [u, word] : inboxes[v]) {
      if (opt.orientation != nullptr &&
          !opt.orientation->has_out_edge(v, u)) {
        continue;
      }
      const std::uint64_t c = word;
      // A fixed-width decode can yield values >= palette only when the
      // payload was corrupted in transit (fault injection); such claims
      // name no real color, so they cannot constrain the choice — ignore
      // them rather than index the family out of range. A neighbor
      // claiming the node's own color never agrees anywhere (c != phi[v]
      // is x-independent), so it is filtered here instead of per x.
      if (c < palette && c != phi[v]) conflicts.push_back(c);
    }
    // Pick the evaluation point with the fewest agreements (the first
    // such x); the family parameters guarantee the minimum is <= defect
    // when the input coloring is proper w.r.t. the conflict set. x = 0
    // is scored first from the constant digits, c mod q, alone: only
    // when some conflict agrees there are the digits split and x >= 1
    // scanned.
    std::uint64_t best_x = 0;
    std::uint64_t best_value = tab.at_zero(phi[v]);
    std::uint64_t best_agree = 0;
    for (const std::uint64_t c : conflicts) {
      if (tab.at_zero(c) == best_value) ++best_agree;
    }
    if (best_agree > 0) {
      digits.resize((conflicts.size() + 1) * k);
      tab.digits_of(phi[v], digits.data());
      for (std::size_t i = 0; i < conflicts.size(); ++i) {
        tab.digits_of(conflicts[i], &digits[(i + 1) * k]);
      }
      for (std::uint64_t x = 1; x < fam.q && best_agree > 0; ++x) {
        const std::uint64_t mine = tab.eval(digits.data(), x);
        std::uint64_t agree = 0;
        for (std::size_t i = 1; i <= conflicts.size(); ++i) {
          if (tab.eval(&digits[i * k], x) == mine) ++agree;
        }
        if (agree < best_agree) {
          best_agree = agree;
          best_x = x;
          best_value = mine;
        }
      }
    }
    if (best_agree > defect) {
      throw std::logic_error(
          "linial::reduce_once: no admissible evaluation point; input "
          "coloring was not proper w.r.t. the conflict sets");
    }
    // The family element (best_x, p_phi[v](best_x)).
    next[v] = static_cast<Color>(best_x * fam.q + best_value);
  });
  return fam.output_space();
}

}  // namespace

std::uint64_t reduce_once(Network& net, Coloring& phi, std::uint64_t palette,
                          std::uint32_t defect, const Options& opt) {
  Coloring next;
  const std::uint64_t out = reduce_into(net, phi, palette, defect, opt, next);
  phi = std::move(next);
  return out;
}

std::uint64_t reduce_once(Network& net, const std::vector<std::uint64_t>& phi,
                          Coloring& next, std::uint64_t palette,
                          std::uint32_t defect, const Options& opt) {
  return reduce_into(net, phi, palette, defect, opt, next);
}

Result color_from(Network& net, Coloring phi, std::uint64_t palette,
                  const Options& opt) {
  Result res;
  for (std::uint32_t round = 0; round < opt.max_rounds; ++round) {
    const std::uint64_t bound = conflict_bound(net.graph(), opt);
    const RsFamily fam = choose_family(palette, bound, 0);
    if (fam.output_space() >= palette) break;  // fixpoint reached
    palette = reduce_once(net, phi, palette, 0, opt);
  }
  res.phi = std::move(phi);
  res.palette = palette;
  return res;
}

std::uint64_t id_palette(const Graph& g) {
  if (g.max_id() == std::numeric_limits<std::uint64_t>::max()) {
    throw std::overflow_error(
        "linial: an id of 2^64 - 1 makes the id palette 2^64, beyond the "
        "64-bit id space");
  }
  return g.max_id() + 1;
}

Result color(Network& net, const Options& opt) {
  const Graph& g = net.graph();
  // The ids are a proper (max_id + 1)-colouring of 64-bit colours, so the
  // first round runs on them whole; its output space fits a Color.
  const std::uint64_t palette = id_palette(g);
  std::vector<std::uint64_t> ids(g.n());
  net.run_node_programs([&](NodeId v) { ids[v] = g.id(v); });
  Coloring phi;
  if (opt.max_rounds == 0 ||
      choose_family(palette, conflict_bound(g, opt), 0).output_space() >=
          palette) {
    // No round runs: the ids themselves are the result.
    check_fits_color(palette);
    phi.assign(ids.begin(), ids.end());
    return Result{std::move(phi), palette};
  }
  Options rest = opt;
  --rest.max_rounds;
  const std::uint64_t reduced = reduce_into(net, ids, palette, 0, opt, phi);
  return color_from(net, std::move(phi), reduced, rest);
}

}  // namespace ldc::linial
