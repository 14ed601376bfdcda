#include "ldc/service/algorithms.hpp"

#include <algorithm>
#include <mutex>
#include <stdexcept>

#include "ldc/baselines/greedy.hpp"
#include "ldc/baselines/kw_reduction.hpp"
#include "ldc/baselines/luby.hpp"
#include "ldc/coloring/instance_gen.hpp"
#include "ldc/coloring/validate.hpp"
#include "ldc/d1lc/congest_colorer.hpp"
#include "ldc/linial/linial.hpp"

namespace ldc::service {
namespace {

/// Fills the outcome fields every network-driven body shares.
JobOutcome finish(const Graph& g, const Network& net, const Coloring& phi,
                  bool valid, std::uint64_t palette) {
  JobOutcome out;
  out.valid = valid;
  out.n = g.n();
  out.colors = colors_used(phi);
  out.palette = palette;
  out.rounds = net.metrics().rounds;
  out.messages = net.metrics().messages;
  out.total_bits = net.metrics().total_bits;
  out.color_digest = coloring_digest(phi);
  return out;
}

/// The (Delta+1)-list instance every built-in proper-coloring body solves.
LdcInstance standard_instance(const Graph& g) {
  return delta_plus_one_instance(g);
}

void register_builtins(AlgorithmRegistry& r) {
  r.add({
      "greedy",
      "sequential first-fit on the (Delta+1) instance (ground truth)",
      [](const Graph& g, const Job&, const ExecContext& exec) {
        exec.check();
        const LdcInstance inst = standard_instance(g);
        const auto phi = baselines::greedy_list_coloring(inst);
        exec.check();
        JobOutcome out;
        out.n = g.n();
        out.palette = g.max_degree() + 1;
        if (phi.has_value()) {
          out.valid = validate_proper(g, *phi).ok &&
                      validate_membership(inst, *phi).ok;
          out.colors = colors_used(*phi);
          out.color_digest = coloring_digest(*phi);
        }
        return out;
      },
  });
  r.add({
      "luby",
      "randomized Luby/Johansson list coloring (seeded)",
      [](const Graph& g, const Job& job, const ExecContext& exec) {
        const LdcInstance inst = standard_instance(g);
        Network net(g);
        exec.configure(net);
        baselines::LubyOptions opt;
        opt.seed = job.seed;
        const auto res = baselines::luby_list_coloring(net, inst, opt);
        const bool valid = res.success && validate_ldc(inst, res.phi).ok;
        return finish(g, net, res.phi, valid, g.max_degree() + 1);
      },
  });
  r.add({
      "linial",
      "Linial's O(Delta^2)-coloring from the IDs (log* n rounds)",
      [](const Graph& g, const Job&, const ExecContext& exec) {
        Network net(g);
        exec.configure(net);
        const auto res = linial::color(net);
        const bool valid = validate_proper(g, res.phi).ok;
        return finish(g, net, res.phi, valid, res.palette);
      },
  });
  r.add({
      "kw",
      "Linial then Kuhn-Wattenhofer reduction to Delta+1 colors",
      [](const Graph& g, const Job&, const ExecContext& exec) {
        Network net(g);
        exec.configure(net);
        const auto res = baselines::linial_then_kw(net);
        const bool valid = validate_proper(g, res.phi).ok;
        return finish(g, net, res.phi, valid, res.palette);
      },
  });
  r.add({
      "d1lc",
      "Theorem 1.4 pipeline: deterministic (degree+1)-list coloring",
      [](const Graph& g, const Job& job, const ExecContext& exec) {
        // param "reduction_levels" tunes the Corollary 4.2 recursion; the
        // default mirrors the pipeline's own default.
        const LdcInstance inst = standard_instance(g);
        Network net(g);
        exec.configure(net);
        d1lc::PipelineOptions opt;
        opt.reduction_levels = static_cast<std::uint32_t>(
            job.param_or("reduction_levels", opt.reduction_levels));
        const auto res = d1lc::color(net, inst, opt);
        const bool valid = res.valid && validate_proper(g, res.phi).ok;
        return finish(g, net, res.phi, valid, res.initial_palette);
      },
  });
}

}  // namespace

void ExecContext::configure(Network& net) const {
  if (cancel != nullptr) {
    const CancelToken* token = cancel;
    net.set_round_callback([token](std::uint64_t) { token->check(); });
  }
}

AlgorithmRegistry& AlgorithmRegistry::instance() {
  static AlgorithmRegistry* registry = [] {
    auto* r = new AlgorithmRegistry();
    register_builtins(*r);
    return r;
  }();
  return *registry;
}

void AlgorithmRegistry::add(AlgorithmInfo info) {
  if (info.name.empty()) {
    throw std::invalid_argument("AlgorithmRegistry: empty name");
  }
  if (!info.run) {
    throw std::invalid_argument("AlgorithmRegistry: missing run callback");
  }
  if (find(info.name) != nullptr) {
    throw std::invalid_argument("AlgorithmRegistry: duplicate '" +
                                info.name + "'");
  }
  algorithms_.push_back(std::move(info));
}

const AlgorithmInfo* AlgorithmRegistry::find(std::string_view name) const {
  for (const auto& a : algorithms_) {
    if (a.name == name) return &a;
  }
  return nullptr;
}

std::vector<const AlgorithmInfo*> AlgorithmRegistry::all() const {
  std::vector<const AlgorithmInfo*> out;
  out.reserve(algorithms_.size());
  for (const auto& a : algorithms_) out.push_back(&a);
  std::sort(out.begin(), out.end(),
            [](const AlgorithmInfo* a, const AlgorithmInfo* b) {
              return a->name < b->name;
            });
  return out;
}

std::uint64_t coloring_digest(const std::vector<Color>& phi) {
  return fnv1a64(phi.data(), phi.size() * sizeof(Color));
}

}  // namespace ldc::service
