// Shared helpers for the experiment bodies registered with the harness
// (src/ldc/harness). Each experiment emits ResultTables whose rows
// EXPERIMENTS.md quotes and the structured sink serializes.
#pragma once

#include <cstdint>
#include <iostream>
#include <utility>

#include "ldc/coloring/instance_gen.hpp"
#include "ldc/coloring/validate.hpp"
#include "ldc/graph/generators.hpp"
#include "ldc/harness/experiment.hpp"
#include "ldc/harness/registry.hpp"
#include "ldc/linial/linial.hpp"
#include "ldc/oldc/multi_defect.hpp"
#include "ldc/oldc/two_phase.hpp"
#include "ldc/reduction/color_space.hpp"
#include "ldc/runtime/network.hpp"
#include "ldc/service/service.hpp"
#include "ldc/support/tables.hpp"

namespace ldc::bench {

/// Order-sensitive digest of an emitted result stream (model-exact
/// fields only), comparable across runs and machines. Shared by the
/// service experiments (E16 scripted sessions, E17 concurrent sessions).
inline std::uint64_t stream_digest(
    const std::vector<service::JobResult>& rs) {
  std::string s;
  for (const auto& r : rs) {
    s += std::to_string(r.id) + ":" + r.status + ":" +
         (r.cached ? "1" : "0") + ":" + std::to_string(r.digest) + ":" +
         std::to_string(r.outcome.color_digest) + "|";
  }
  return service::fnv1a64(s.data(), s.size());
}

/// FNV-1a 64 of raw bytes — for digesting whole protocol streams, whose
/// lines already contain only model-exact fields.
inline std::uint64_t bytes_digest(const std::string& s) {
  return service::fnv1a64(s.data(), s.size());
}

/// Random d-regular graph with scrambled CONGEST-style identifiers. A
/// d-regular graph exists only when n*d is even, so an odd request is
/// rounded up to n+1 vertices — the returned graph is authoritative:
/// callers must report g.n() in tables/JSONL, never the requested n.
inline Graph regular_graph(std::uint32_t n, std::uint32_t d,
                           std::uint64_t seed) {
  const std::uint32_t actual =
      ((static_cast<std::uint64_t>(n) * d) % 2 != 0) ? n + 1 : n;
  Graph g = gen::random_regular(actual, d, seed);
  gen::scramble_ids(g, std::uint64_t{1} << 24, seed + 101);
  return g;
}

/// Scrambles a generated graph's ids into a CONGEST-style `id_bits` space
/// (the setup step every non-regular family repeated inline).
inline Graph scrambled(Graph g, std::uint64_t seed,
                       std::uint64_t id_bits = 24) {
  gen::scramble_ids(g, std::uint64_t{1} << id_bits, seed);
  return g;
}

/// "ok"/"VIOLATION" cell from a validation result.
inline std::string verdict(const ValidationResult& r) {
  return r.ok ? "ok" : "VIOLATION(" + std::to_string(r.violations.size()) +
                           ")";
}

/// One `bits`-bit payload replicated to every node, ready for
/// Network::exchange_broadcast — the "copy one writer's message per
/// neighbor" setup the micro-benches repeated inline.
inline std::vector<BitWriter> uniform_broadcast(std::size_t n,
                                                std::uint64_t value,
                                                int bits) {
  BitWriter w;
  w.write(value, bits);
  return std::vector<BitWriter>(n, w);
}

/// One closed-loop run of the standard "(Delta+1) instance -> prepared
/// network -> algorithm -> record" cycle that E11/E12 (and now E16)
/// repeated inline. `body(net, g, inst)` runs the algorithm; the helper
/// owns instance construction, ctx.prepare (trace/fault wiring) and
/// ctx.record under `label`. Returns the body's result paired with the
/// run's record: the simulator's metrics and per-round rows.
template <typename Body>
auto closed_loop(harness::ExperimentContext& ctx, const Graph& g,
                 const std::string& label, Body&& body) {
  const LdcInstance inst = delta_plus_one_instance(g);
  Network net(g);
  ctx.prepare(net);
  auto result = std::forward<Body>(body)(net, g, inst);
  return std::pair<decltype(result), const harness::MetricRecord&>(
      std::move(result), ctx.record(label, net));
}

/// Random weighted oriented LDC instance — the common setup of every
/// OLDC-flavoured experiment (E3/E4/E10/E13, A1/A4).
inline LdcInstance weighted_oriented_instance(
    const Graph& g, const Orientation& orient, std::uint64_t color_space,
    double kappa, std::uint32_t max_defect, std::uint64_t seed,
    double one_plus_nu = 2.0) {
  RandomLdcParams p;
  p.color_space = color_space;
  p.one_plus_nu = one_plus_nu;
  p.kappa = kappa;
  p.max_defect = max_defect;
  p.seed = seed;
  return random_weighted_oriented_instance(g, orient, p);
}

/// Linial bootstrap followed by the two-phase OLDC solver on the same
/// network — the shared body of E3, E10b, E13 and A1. `linial_rounds` is
/// the network's round count when the solver starts.
struct TwoPhaseRun {
  oldc::TwoPhaseResult res;
  std::uint64_t linial_rounds = 0;
};

inline TwoPhaseRun two_phase_after_linial(
    Network& net, const LdcInstance& inst, const Orientation& orient,
    const mt::CandidateParams& params = {}) {
  const auto lin = linial::color(net);
  oldc::TwoPhaseInput in;
  in.inst = &inst;
  in.orientation = &orient;
  in.initial = &lin.phi;
  in.m = lin.palette;
  in.params = params;
  TwoPhaseRun run;
  run.linial_rounds = net.metrics().rounds;
  run.res = oldc::solve_two_phase(net, in);
  return run;
}

/// Multi-defect base solver for the color space reduction experiments
/// (E4, A4). Captures the candidate parameters by value so the returned
/// solver has no dangling references.
inline reduction::OldcSolver multi_defect_solver(
    mt::CandidateParams params = {}) {
  return [params](Network& net, const LdcInstance& i, const Orientation& o,
                  const Coloring& init, std::uint64_t m) {
    oldc::MultiDefectInput in;
    in.inst = &i;
    in.orientation = &o;
    in.initial = &init;
    in.m = m;
    in.params = params;
    return oldc::solve_multi_defect(net, in);
  };
}

}  // namespace ldc::bench
