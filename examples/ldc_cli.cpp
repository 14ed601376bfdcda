// ldc_cli — command-line driver for the library.
//
//   ldc_cli gen   --gen <spec> [--seed S] [--ids BITS] --out FILE
//   ldc_cli color [--graph FILE | --gen <spec>] [--algo NAME]
//                 [--space K] [--reduction R] [--seed S] [--dot FILE]
//   ldc_cli edge  [--graph FILE | --gen <spec>]
//
// Graph specs: regular:<n>,<d>  gnp:<n>,<p>  ring:<n>  torus:<w>,<h>
//              clique:<n>  tree:<n>  power:<n>,<alpha>,<avg>
// Algorithms:  pipeline (default, Theorem 1.4), local (no reduction),
//              luby, oneclass, kw, repair
//
// Prints the validation verdict, round count, message statistics and a
// quality summary; optionally writes a colored DOT file.
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "ldc/baselines/color_reduction.hpp"
#include "ldc/baselines/kw_reduction.hpp"
#include "ldc/baselines/luby.hpp"
#include "ldc/coloring/instance_gen.hpp"
#include "ldc/coloring/instance_io.hpp"
#include "ldc/coloring/stats.hpp"
#include "ldc/coloring/validate.hpp"
#include "ldc/d1lc/congest_colorer.hpp"
#include "ldc/d1lc/edge_color.hpp"
#include "ldc/d1lc/fhk_local.hpp"
#include "ldc/graph/generators.hpp"
#include "ldc/graph/io.hpp"
#include "ldc/repair/repair.hpp"

namespace {

using namespace ldc;

[[noreturn]] void usage(const std::string& why = "") {
  if (!why.empty()) std::cerr << "error: " << why << "\n";
  std::cerr <<
      "usage:\n"
      "  ldc_cli gen   --gen SPEC [--seed S] [--ids BITS] --out FILE\n"
      "  ldc_cli color [--graph FILE | --gen SPEC] [--algo NAME]\n"
      "                [--instance FILE]\n"
      "                [--space K] [--reduction R] [--seed S] [--dot FILE]\n"
      "  ldc_cli edge  [--graph FILE | --gen SPEC]\n"
      "specs: regular:n,d gnp:n,p ring:n torus:w,h clique:n tree:n "
      "power:n,alpha,avg\n"
      "algos: pipeline local luby oneclass kw repair\n";
  std::exit(2);
}

std::map<std::string, std::string> parse_flags(int argc, char** argv,
                                               int first) {
  std::map<std::string, std::string> flags;
  for (int i = first; i < argc; ++i) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) usage("unexpected argument " + key);
    if (i + 1 >= argc) usage("missing value for " + key);
    flags[key.substr(2)] = argv[++i];
  }
  return flags;
}

std::vector<double> split_numbers(const std::string& s) {
  std::vector<double> out;
  std::stringstream ss(s);
  std::string item;
  while (std::getline(ss, item, ',')) out.push_back(std::stod(item));
  return out;
}

Graph make_graph(const std::string& spec, std::uint64_t seed) {
  const auto colon = spec.find(':');
  const std::string kind = spec.substr(0, colon);
  const auto args = colon == std::string::npos
                        ? std::vector<double>{}
                        : split_numbers(spec.substr(colon + 1));
  auto need = [&](std::size_t k) {
    if (args.size() != k) usage("spec " + kind + " needs " +
                                std::to_string(k) + " arguments");
  };
  if (kind == "regular") {
    need(2);
    return gen::random_regular(static_cast<std::uint32_t>(args[0]),
                               static_cast<std::uint32_t>(args[1]), seed);
  }
  if (kind == "gnp") {
    need(2);
    return gen::gnp(static_cast<std::uint32_t>(args[0]), args[1], seed);
  }
  if (kind == "ring") {
    need(1);
    return gen::ring(static_cast<std::uint32_t>(args[0]));
  }
  if (kind == "torus") {
    need(2);
    return gen::torus(static_cast<std::uint32_t>(args[0]),
                      static_cast<std::uint32_t>(args[1]));
  }
  if (kind == "clique") {
    need(1);
    return gen::clique(static_cast<std::uint32_t>(args[0]));
  }
  if (kind == "tree") {
    need(1);
    return gen::random_tree(static_cast<std::uint32_t>(args[0]), seed);
  }
  if (kind == "power") {
    need(3);
    return gen::power_law(static_cast<std::uint32_t>(args[0]), args[1],
                          args[2], seed);
  }
  usage("unknown graph spec " + kind);
}

Graph obtain_graph(const std::map<std::string, std::string>& flags,
                   std::uint64_t seed) {
  if (flags.count("graph")) return io::load_edge_list(flags.at("graph"));
  if (flags.count("gen")) return make_graph(flags.at("gen"), seed);
  usage("need --graph or --gen");
}

int cmd_gen(const std::map<std::string, std::string>& flags) {
  const std::uint64_t seed =
      flags.count("seed") ? std::stoull(flags.at("seed")) : 1;
  Graph g = obtain_graph(flags, seed);
  if (flags.count("ids")) {
    const auto bits = std::stoul(flags.at("ids"));
    gen::scramble_ids(g, 1ULL << bits, seed + 1);
  }
  if (!flags.count("out")) usage("gen needs --out");
  io::save_edge_list(flags.at("out"), g);
  std::cout << "wrote " << flags.at("out") << ": n=" << g.n()
            << " m=" << g.m() << " Delta=" << g.max_degree() << "\n";
  return 0;
}

int cmd_color(const std::map<std::string, std::string>& flags) {
  const std::uint64_t seed =
      flags.count("seed") ? std::stoull(flags.at("seed")) : 1;
  const Graph g = obtain_graph(flags, seed);
  const std::uint64_t space =
      flags.count("space") ? std::stoull(flags.at("space"))
                           : g.max_degree() + 1;
  const LdcInstance inst =
      flags.count("instance")
          ? io::load_instance(flags.at("instance"), g)
          : (space == g.max_degree() + 1)
                ? delta_plus_one_instance(g)
                : degree_plus_one_instance(g, space, seed + 2);
  const std::string algo =
      flags.count("algo") ? flags.at("algo") : "pipeline";

  Network net(g);
  Coloring phi;
  if (algo == "pipeline" || algo == "local") {
    d1lc::PipelineOptions opt;
    if (algo == "local") opt.reduction_levels = 0;
    if (flags.count("reduction")) {
      opt.reduction_levels = std::stoul(flags.at("reduction"));
    }
    phi = d1lc::color(net, inst, opt).phi;
  } else if (algo == "luby") {
    phi = baselines::luby_list_coloring(net, inst).phi;
  } else if (algo == "oneclass") {
    phi = baselines::linial_then_reduce(net, inst).phi;
  } else if (algo == "kw") {
    phi = baselines::linial_then_kw(net).phi;
  } else if (algo == "repair") {
    phi = repair::repair(net, inst, Coloring(g.n(), kUncolored)).phi;
  } else {
    usage("unknown algorithm " + algo);
  }

  const auto check = validate_ldc(inst, phi);
  const auto stats = coloring_stats(inst, phi);
  std::cout << "graph: n=" << g.n() << " m=" << g.m()
            << " Delta=" << g.max_degree() << "\n";
  std::cout << "algo=" << algo << " valid=" << check.ok
            << " rounds=" << net.metrics().rounds
            << " colors=" << stats.colors_used
            << "\n";
  std::cout << "traffic: " << net.metrics().messages << " msgs, max "
            << net.metrics().max_message_bits << " bits, total "
            << net.metrics().total_bits << " bits\n";
  if (flags.count("dot")) {
    std::ofstream f(flags.at("dot"));
    io::write_dot(f, g, &phi);
    std::cout << "wrote " << flags.at("dot") << "\n";
  }
  return check.ok ? 0 : 1;
}

int cmd_edge(const std::map<std::string, std::string>& flags) {
  const std::uint64_t seed =
      flags.count("seed") ? std::stoull(flags.at("seed")) : 1;
  const Graph g = obtain_graph(flags, seed);
  const auto res = d1lc::edge_color(g);
  std::cout << "edges=" << res.edges.size() << " slots<=" << res.palette
            << " valid=" << res.valid << " rounds=" << res.metrics.rounds
            << "\n";
  return res.valid ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage();
  const std::string cmd = argv[1];
  const auto flags = parse_flags(argc, argv, 2);
  if (cmd == "gen") return cmd_gen(flags);
  if (cmd == "color") return cmd_color(flags);
  if (cmd == "edge") return cmd_edge(flags);
  usage("unknown command " + cmd);
}
