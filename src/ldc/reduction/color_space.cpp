#include "ldc/reduction/color_space.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "ldc/graph/induced_orientation.hpp"
#include "ldc/repair/repair.hpp"
#include "ldc/graph/subgraph.hpp"
#include "ldc/linial/cover_free.hpp"
#include "ldc/support/math.hpp"

namespace ldc::reduction {
namespace {

void merge_child_stats(oldc::OldcStats& into, const oldc::OldcStats& from) {
  into.h = std::max(into.h, from.h);
  into.tau = std::max(into.tau, from.tau);
  into.p1_relaxed += from.p1_relaxed;
  into.degraded += from.degraded;
  into.repaired = into.repaired || from.repaired;
}

Result solve_rec(Network& net, const LdcInstance& inst,
                 const Orientation& orientation, const Coloring& initial,
                 std::uint64_t m, const Options& opt, const OldcSolver& base,
                 std::uint32_t depth) {
  Result res;
  if (opt.p <= 1 || inst.color_space <= opt.p || depth >= opt.max_depth) {
    auto out = base(net, inst, orientation, initial, m);
    res.phi = std::move(out.phi);
    res.stats = out.stats;
    res.levels = 1;
    return res;
  }

  const std::uint32_t n = inst.n();
  const std::uint64_t bs = ceil_div(inst.color_space, opt.p);
  const std::uint64_t blocks = ceil_div(inst.color_space, bs);

  // --- Auxiliary instance over the block space.
  LdcInstance aux;
  aux.graph = inst.graph;
  aux.color_space = blocks;
  aux.lists.resize(n);
  // Per node and block: the weight sum_x (d_v(x)+1)^(1+nu), in one
  // buffer reused node after node.
  std::vector<double> weight(blocks);
  for (NodeId v = 0; v < n; ++v) {
    std::fill(weight.begin(), weight.end(), 0.0);
    const auto& l = inst.lists[v];
    for (std::size_t i = 0; i < l.size(); ++i) {
      weight[l.colors[i] / bs] +=
          std::pow(static_cast<double>(l.defects[i]) + 1.0, opt.one_plus_nu);
    }
    ColorList& al = aux.lists[v];
    const auto used = static_cast<std::size_t>(std::count_if(
        weight.begin(), weight.end(), [](double w) { return w > 0.0; }));
    al.colors.reserve(used);
    al.defects.reserve(used);
    for (std::uint64_t b = 0; b < blocks; ++b) {
      if (weight[b] <= 0.0) continue;
      al.colors.push_back(static_cast<Color>(b));
      // beta_{v,i} = floor(W_i^(1/(1+nu))) - 1, capped by beta_v
      // (Theorem 1.2 with kappa normalized to 1; see DESIGN.md §4).
      const double raw = std::pow(weight[b], 1.0 / opt.one_plus_nu);
      const std::uint32_t cap = orientation.beta(v);
      al.defects.push_back(std::min<std::uint32_t>(
          cap, static_cast<std::uint32_t>(std::max(0.0, raw - 1.0))));
    }
    if (al.colors.empty()) {
      throw std::invalid_argument("reduce_and_solve: node with empty list");
    }
  }

  auto aux_out = base(net, aux, orientation, initial, m);
  merge_child_stats(res.stats, aux_out.stats);

  // --- Recurse per block on induced subgraphs (parallel in the model).
  res.phi.assign(n, kUncolored);
  RunMetrics parallel;  // rounds = max across blocks; traffic summed
  std::uint64_t child_rounds_max = 0;
  std::uint32_t child_levels_max = 0;
  std::vector<NodeId> members;
  for (std::uint64_t b = 0; b < blocks; ++b) {
    members.clear();
    for (NodeId v = 0; v < n; ++v) {
      if (aux_out.phi[v] == b) members.push_back(v);
    }
    if (members.empty()) continue;
    const Subgraph sub = induced_subgraph(*inst.graph, members);
    const Orientation sub_orient = induced_orientation(orientation, sub);
    LdcInstance sub_inst;
    sub_inst.graph = &sub.graph;
    sub_inst.color_space = std::min(bs, inst.color_space - b * bs);
    sub_inst.lists.resize(sub.graph.n());
    Coloring sub_initial(sub.graph.n());
    for (NodeId i = 0; i < sub.graph.n(); ++i) {
      const NodeId v = sub.to_parent[i];
      sub_initial[i] = initial[v];
      const auto& l = inst.lists[v];
      ColorList& sl = sub_inst.lists[i];
      const auto in_block = static_cast<std::size_t>(
          std::count_if(l.colors.begin(), l.colors.end(),
                        [&](Color c) { return c / bs == b; }));
      sl.colors.reserve(in_block);
      sl.defects.reserve(in_block);
      for (std::size_t x = 0; x < l.size(); ++x) {
        if (l.colors[x] / bs == b) {
          sl.colors.push_back(static_cast<Color>(l.colors[x] - b * bs));
          sl.defects.push_back(l.defects[x]);
        }
      }
      if (sl.colors.empty()) {
        // Cannot happen through the aux solve (aux lists contain only
        // nonempty blocks); defensive fallback if a repair pass moved v.
        for (std::uint64_t c = 0; c < sub_inst.color_space; ++c) {
          sub_inst.lists[i].colors.push_back(static_cast<Color>(c));
          sub_inst.lists[i].defects.push_back(orientation.beta(v));
        }
      }
    }
    Network sub_net(sub.graph, net);
    Result child;
    bool block_ok = true;
    try {
      child = solve_rec(sub_net, sub_inst, sub_orient, sub_initial, m, opt,
                        base, depth + 1);
    } catch (const InfeasibleError&) {
      // The aux assignment starved this block; its nodes stay uncolored
      // and the final repair pass below fixes them against the full lists.
      block_ok = false;
      ++res.stats.p1_relaxed;
    }
    if (block_ok) {
      for (NodeId i = 0; i < sub.graph.n(); ++i) {
        if (child.phi[i] != kUncolored) {
          res.phi[sub.to_parent[i]] =
              static_cast<Color>(child.phi[i] + b * bs);
        }
      }
    }
    // Parallel accounting: blocks run simultaneously on the real network.
    RunMetrics cm = sub_net.metrics();
    child_rounds_max = std::max(child_rounds_max, cm.rounds);
    cm.rounds = 0;
    parallel.merge(cm);
    merge_child_stats(res.stats, child.stats);
    child_levels_max = std::max(child_levels_max, child.levels);
  }
  parallel.rounds = child_rounds_max;
  net.absorb(parallel);
  res.levels = 1 + child_levels_max;

  // Any node left uncolored by a starved block is repaired against the
  // full instance (valid colors stay put; only violated/uncolored move).
  bool incomplete = false;
  for (NodeId v = 0; v < n; ++v) {
    if (res.phi[v] == kUncolored) {
      incomplete = true;
      break;
    }
  }
  if (incomplete) {
    repair::Options ropt;
    ropt.orientation = &orientation;
    auto rep = repair::repair(net, inst, res.phi, ropt);
    if (!rep.success) {
      throw InfeasibleError("reduce_and_solve: final repair failed");
    }
    res.phi = std::move(rep.phi);
    res.stats.repaired = true;
  }
  return res;
}

}  // namespace

Result reduce_and_solve(Network& net, const LdcInstance& inst,
                        const Orientation& orientation,
                        const Coloring& initial, std::uint64_t m,
                        const Options& opt, const OldcSolver& base) {
  return solve_rec(net, inst, orientation, initial, m, opt, base, 0);
}

std::uint64_t subspace_count_for_depth(std::uint64_t color_space,
                                       std::uint32_t r) {
  if (r <= 1) return color_space;
  return linial::kth_root_ceil(color_space, r);
}

}  // namespace ldc::reduction
