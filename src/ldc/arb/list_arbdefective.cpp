#include "ldc/arb/list_arbdefective.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "ldc/arb/beg_arbdefective.hpp"
#include "ldc/coloring/validate.hpp"
#include "ldc/graph/induced_orientation.hpp"
#include "ldc/graph/subgraph.hpp"
#include "ldc/oldc/two_phase.hpp"
#include "ldc/repair/repair.hpp"
#include "ldc/runtime/class_rounds.hpp"
#include "ldc/support/prf.hpp"
#include "ldc/support/math.hpp"

namespace ldc::arb {
namespace {

// a_v(x) bookkeeping: colored neighbors per list color, every node's
// counters in one array, v's at [at[v], at[v] + |L_v|).
struct ColoredCounts {
  std::vector<std::uint64_t> at;
  std::vector<std::uint32_t> count;

  explicit ColoredCounts(const LdcInstance& inst) : at(inst.n() + 1, 0) {
    for (NodeId v = 0; v < inst.n(); ++v) {
      at[v + 1] = at[v] + inst.lists[v].size();
    }
    count.assign(at.back(), 0);
  }

  std::uint32_t* of(NodeId v) { return count.data() + at[v]; }
  const std::uint32_t* of(NodeId v) const { return count.data() + at[v]; }

  /// Colors of v's list whose defect budget is not yet exhausted.
  std::size_t residual_size(const LdcInstance& inst, NodeId v) const {
    const auto& l = inst.lists[v];
    std::size_t sz = 0;
    for (std::size_t i = 0; i < l.size(); ++i) {
      if (of(v)[i] <= l.defects[i]) ++sz;
    }
    return sz;
  }

  /// Residual list of v: those colors, with the residual budgets.
  ColorList residual_list(const LdcInstance& inst, NodeId v) const {
    ColorList out;
    const auto& l = inst.lists[v];
    const std::size_t sz = residual_size(inst, v);
    out.colors.reserve(sz);
    out.defects.reserve(sz);
    for (std::size_t i = 0; i < l.size(); ++i) {
      if (of(v)[i] <= l.defects[i]) {
        out.colors.push_back(l.colors[i]);
        out.defects.push_back(l.defects[i] - of(v)[i]);
      }
    }
    return out;
  }
};

}  // namespace

OldcSolver two_phase_solver(mt::CandidateParams params) {
  return [params](Network& net, const LdcInstance& inst,
                  const Orientation& orientation, const Coloring& initial,
                  std::uint64_t m) {
    oldc::TwoPhaseInput in;
    in.inst = &inst;
    in.orientation = &orientation;
    in.initial = &initial;
    in.m = m;
    in.params = params;
    const auto two = oldc::solve_two_phase(net, in);
    oldc::OldcResult res;
    res.phi = two.phi;
    res.stats = two.stats;
    res.valid = two.valid;
    return res;
  };
}

Theorem13Result solve_list_arbdefective(Network& net,
                                        const LdcInstance& inst,
                                        const Coloring& initial,
                                        std::uint64_t m,
                                        const OldcSolver& solver,
                                        const Theorem13Options& opt) {
  const Graph& g = *inst.graph;
  const std::uint32_t n = g.n();
  Theorem13Result res;
  res.out.colors.assign(n, kUncolored);
  Coloring& phi = res.out.colors;

  ColoredCounts av(inst);

  // Final orientation assembled incrementally; timestamps order batches.
  std::vector<std::vector<NodeId>> final_out(n);
  for (NodeId v = 0; v < n; ++v) final_out[v].reserve(g.degree(v));
  std::vector<std::uint32_t> stamp(n, ~0u);
  std::uint32_t batch = 0;

  const double exp_ratio =
      (opt.one_plus_nu - 1.0) / opt.one_plus_nu;  // nu / (1+nu)

  // Colors a set of nodes `now` (ascending; they just received phi
  // values): orient their edges toward earlier-colored neighbors, stamp
  // them, and update their neighbors' a_v counters. Announcing the colors
  // costs one word round with `now` as its senders, and only their
  // neighbors decode.
  ClassRounds commits(net);
  auto commit_batch = [&](const std::vector<NodeId>& now) {
    for (NodeId v : now) {
      for (NodeId u : g.neighbors(v)) {
        if (phi[u] != kUncolored && stamp[u] < batch) {
          final_out[v].push_back(u);
        }
      }
      stamp[v] = batch;
      commits.words()[v] = phi[v];
    }
    commits.exchange(now, inst.color_space - 1,
                     [&](NodeId v, WordMail::Lane lane) {
                       for (const auto [u, word] : lane) {
                         (void)u;
                         const Color c = static_cast<Color>(word);
                         const std::size_t i = inst.lists[v].find(c);
                         if (i != inst.lists[v].size()) ++av.of(v)[i];
                       }
                     });
    ++batch;
  };

  // The repair tail: finishes the remaining low-degree subgraph.
  auto run_tail = [&](const std::vector<NodeId>& members) {
    if (members.empty()) return;
    const Subgraph sub = induced_subgraph(g, members);
    LdcInstance tail;
    tail.graph = &sub.graph;
    tail.color_space = inst.color_space;
    tail.lists.resize(sub.graph.n());
    for (NodeId i = 0; i < sub.graph.n(); ++i) {
      tail.lists[i] = av.residual_list(inst, sub.to_parent[i]);
      if (tail.lists[i].colors.empty()) {
        throw std::runtime_error(
            "solve_list_arbdefective: residual list empty (instance "
            "condition violated)");
      }
    }
    Network sub_net(sub.graph, net);
    repair::Options ropt;
    ropt.seed = hash_combine(opt.seed, 0x7a11);
    auto rep = repair::repair(sub_net, tail,
                              Coloring(sub.graph.n(), kUncolored), ropt);
    if (!rep.success) {
      throw std::runtime_error("solve_list_arbdefective: tail failed");
    }
    net.absorb(sub_net.metrics(), "t13/tail");
    std::vector<NodeId> now;
    for (NodeId i = 0; i < sub.graph.n(); ++i) {
      phi[sub.to_parent[i]] = rep.phi[i];
      now.push_back(sub.to_parent[i]);
    }
    // Intra-tail edges: the repair guarantee is the *undirected* defect
    // bound, which dominates any orientation; orient by id.
    for (NodeId i = 0; i < sub.graph.n(); ++i) {
      const NodeId v = sub.to_parent[i];
      for (NodeId j : sub.graph.neighbors(i)) {
        const NodeId u = sub.to_parent[j];
        if (g.id(v) > g.id(u)) final_out[v].push_back(u);
      }
    }
    commit_batch(now);
  };

  // --- Degree-halving stages.
  for (std::uint32_t stage = 0; stage < opt.max_stages; ++stage) {
    std::vector<NodeId> members;
    for (NodeId v = 0; v < n; ++v) {
      if (phi[v] == kUncolored) members.push_back(v);
    }
    if (members.empty()) break;
    const Subgraph sub = induced_subgraph(g, members);
    const std::uint32_t delta_s = std::max(1u, sub.graph.max_degree());
    if (delta_s <= opt.tail_degree) {
      run_tail(members);
      break;
    }
    ++res.stats.stages;

    // Residual list sizes bound Lambda_s.
    std::size_t lambda_s = 1;
    for (NodeId v : members) {
      lambda_s = std::max(lambda_s, av.residual_size(inst, v));
    }
    // q = q_factor * Lambda^(nu/(1+nu)), delta ~ 2*Delta_s/q, ensuring
    // q*(delta+1) > 2*Delta_s for fast arbdefective commits.
    std::uint32_t q = static_cast<std::uint32_t>(std::ceil(
        opt.q_factor * std::pow(static_cast<double>(lambda_s), exp_ratio)));
    q = std::clamp<std::uint32_t>(q, 1, delta_s + 1);
    const std::uint32_t delta =
        static_cast<std::uint32_t>(ceil_div(2ULL * delta_s, q));

    // Stage arbdefective coloring on the uncolored subgraph.
    Network arb_net(sub.graph, net);
    ArbdefectiveOptions aopt;
    aopt.colors = q;
    aopt.defect = delta;
    aopt.seed = hash_combine(opt.seed, stage);
    const auto psi = arbdefective_color(arb_net, aopt);
    net.absorb(arb_net.metrics(), "t13/arbdef");

    // Iterate over the stage's color classes.
    bool progress = false;
    for (std::uint32_t cls = 0; cls < q; ++cls) {
      std::vector<NodeId> vi;         // class members (subgraph ids)
      for (NodeId i = 0; i < sub.graph.n(); ++i) {
        const NodeId v = sub.to_parent[i];
        if (phi[v] != kUncolored || psi.phi[i] != cls) continue;
        // Only nodes that still have >= Delta_s/2 uncolored neighbors are
        // colored now; the rest wait for the next stage.
        std::uint32_t udeg = 0;
        for (NodeId u : g.neighbors(v)) {
          if (phi[u] == kUncolored) ++udeg;
        }
        if (2ULL * udeg >= delta_s) vi.push_back(i);
      }
      if (vi.empty()) continue;
      ++res.stats.class_iterations;

      // Class subgraph with the stage orientation restricted to it.
      std::vector<NodeId> vi_parent;
      vi_parent.reserve(vi.size());
      for (NodeId i : vi) vi_parent.push_back(sub.to_parent[i]);
      const Subgraph cls_sub = induced_subgraph(g, vi_parent);
      // Build the orientation on cls_sub from psi's orientation on sub.
      std::vector<std::vector<NodeId>> cls_out(cls_sub.graph.n());
      for (NodeId a = 0; a < cls_sub.graph.n(); ++a) {
        const NodeId pa = cls_sub.to_parent[a];
        const NodeId sa = sub.from_parent[pa];
        cls_out[a].reserve(psi.orientation.outdeg(sa));
        for (NodeId sb : psi.orientation.out(sa)) {
          const NodeId pb = sub.to_parent[sb];
          const NodeId b = cls_sub.from_parent[pb];
          if (b != g.n()) cls_out[a].push_back(b);
        }
      }
      const Orientation cls_orient(cls_sub.graph, std::move(cls_out));

      LdcInstance cls_inst;
      cls_inst.graph = &cls_sub.graph;
      cls_inst.color_space = inst.color_space;
      cls_inst.lists.resize(cls_sub.graph.n());
      Coloring cls_initial(cls_sub.graph.n());
      for (NodeId a = 0; a < cls_sub.graph.n(); ++a) {
        const NodeId v = cls_sub.to_parent[a];
        cls_inst.lists[a] = av.residual_list(inst, v);
        cls_initial[a] = initial[v];
        if (cls_inst.lists[a].colors.empty()) {
          throw std::runtime_error(
              "solve_list_arbdefective: residual list empty");
        }
      }

      Network cls_net(cls_sub.graph, net);
      oldc::OldcResult out;
      try {
        out = solver(cls_net, cls_inst, cls_orient, cls_initial, m);
      } catch (const InfeasibleError&) {
        // The class's sub-instance missed the solver's margins; its nodes
        // simply wait for a later stage (their degree keeps shrinking) or
        // the tail.
        net.absorb(cls_net.metrics(), "t13/classes");
        ++res.stats.infeasible_classes;
        continue;
      }
      net.absorb(cls_net.metrics(), "t13/classes");
      if (out.stats.repaired) ++res.stats.repaired_classes;

      // Record results; intra-class edges take the stage orientation.
      std::vector<NodeId> now;
      for (NodeId a = 0; a < cls_sub.graph.n(); ++a) {
        const NodeId v = cls_sub.to_parent[a];
        if (out.phi[a] == kUncolored) continue;
        phi[v] = out.phi[a];
        now.push_back(v);
        // Only edges whose far endpoint was also colored in this batch
        // take the stage orientation; edges toward deferred nodes are
        // oriented when those nodes eventually color (later -> earlier).
        for (NodeId b : cls_orient.out(a)) {
          if (out.phi[b] != kUncolored) {
            final_out[v].push_back(cls_sub.to_parent[b]);
          }
        }
      }
      commit_batch(now);
      progress = true;
    }
    if (!progress) {
      // No class made progress (e.g. stage arbdefective coloring failed to
      // commit anybody useful) — finish with the tail.
      std::vector<NodeId> rest;
      for (NodeId v = 0; v < n; ++v) {
        if (phi[v] == kUncolored) rest.push_back(v);
      }
      run_tail(rest);
      break;
    }
  }
  // Anything left after max_stages goes to the tail.
  {
    std::vector<NodeId> rest;
    for (NodeId v = 0; v < n; ++v) {
      if (phi[v] == kUncolored) rest.push_back(v);
    }
    run_tail(rest);
  }

  res.out.orientation = Orientation(g, std::move(final_out));
  res.valid = static_cast<bool>(validate_arbdefective(inst, res.out));
  return res;
}

}  // namespace ldc::arb
