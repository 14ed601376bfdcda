// Cross-engine equivalence suite: the multi-threaded round engine
// (kSharded, K shard threads running the shard-round kernel) must be
// bit-for-bit equivalent to the serial one (the same kernel over one range
// [0, n)). For every registered colorer on a seeded mix of graphs, and for
// thread counts {1, 2, 4, 7}, the colors, the model-exact RunMetrics
// fields, and the full trace transcript (digest + per-round fields +
// marks) must equal the serial run's. This is what lets EXPERIMENTS.md
// keep making *exact* round/bit claims while the simulator runs on however
// many cores the host has. Single rounds — message and word rounds, with
// and without sender lists and fault plans — are checked on every engine
// against the round oracle (round_reference.hpp), not against another
// engine. tests/test_sharded.cpp pins the shard-specific contracts (ghost
// halos, cut traffic, LDC_SHARDS) at K in {1, 2, 7}.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "ldc/arb/beg_arbdefective.hpp"
#include "ldc/baselines/kw_reduction.hpp"
#include "ldc/baselines/luby.hpp"
#include "ldc/coloring/instance_gen.hpp"
#include "ldc/dist/coordinator.hpp"
#include "ldc/graph/generators.hpp"
#include "ldc/graph/partition.hpp"
#include "ldc/linial/defective_linial.hpp"
#include "ldc/linial/linial.hpp"
#include "ldc/oldc/single_defect.hpp"
#include "ldc/resilient/drivers.hpp"
#include "ldc/runtime/network.hpp"
#include "ldc/storage/corpus.hpp"
#include "ldc/support/prf.hpp"
#include "round_reference.hpp"
#include "survivor_lists.hpp"

namespace ldc {
namespace {

struct EngineRun {
  Coloring phi;
  RunMetrics metrics;
  std::uint64_t trace_digest = 0;
  std::vector<Trace::Round> rounds;
};

/// A registered colorer: runs an algorithm on `net` and returns the colors.
using Colorer = std::function<Coloring(Network&)>;

struct NamedColorer {
  std::string name;
  Colorer run;
};

struct NamedGraph {
  std::string name;
  Graph g;
};

EngineRun run_with_threads(const Graph& g, std::size_t threads,
                           const Colorer& algo) {
  Network net(g);
  if (threads > 0) net.set_engine(Network::Engine::kSharded, threads);
  Trace trace;
  net.attach_trace(&trace);
  EngineRun out;
  out.phi = algo(net);
  out.metrics = net.metrics();
  out.trace_digest = trace.digest();
  out.rounds = trace.rounds();
  return out;
}

void expect_equivalent(const EngineRun& serial, const EngineRun& parallel,
                       const std::string& label) {
  EXPECT_EQ(serial.phi, parallel.phi) << label << ": colors differ";
  EXPECT_TRUE(serial.metrics.same_communication(parallel.metrics))
      << label << ": metrics differ: serial {" << serial.metrics
      << "} parallel {" << parallel.metrics << "}";
  EXPECT_EQ(serial.trace_digest, parallel.trace_digest)
      << label << ": trace digests differ";
  ASSERT_EQ(serial.rounds.size(), parallel.rounds.size())
      << label << ": transcript length differs";
  for (std::size_t i = 0; i < serial.rounds.size(); ++i) {
    const auto& a = serial.rounds[i];
    const auto& b = parallel.rounds[i];
    EXPECT_EQ(a.messages, b.messages) << label << " round " << i;
    EXPECT_EQ(a.bits, b.bits) << label << " round " << i;
    EXPECT_EQ(a.max_message_bits, b.max_message_bits)
        << label << " round " << i;
    EXPECT_EQ(a.mark, b.mark) << label << " round " << i;
    EXPECT_EQ(a.faults.dropped, b.faults.dropped)
        << label << " round " << i;
    EXPECT_EQ(a.faults.corrupted, b.faults.corrupted)
        << label << " round " << i;
    EXPECT_EQ(a.faults.crashes, b.faults.crashes)
        << label << " round " << i;
    EXPECT_EQ(a.faults.sleeps, b.faults.sleeps) << label << " round " << i;
  }
}

std::vector<NamedGraph> graph_mix() {
  std::vector<NamedGraph> graphs;
  {
    Graph g = gen::gnp(60, 0.2, 11);
    gen::scramble_ids(g, 1 << 20, 3);
    graphs.push_back({"gnp60", std::move(g)});
  }
  {
    Graph g = gen::random_regular(72, 8, 7);
    gen::scramble_ids(g, 1 << 16, 5);
    graphs.push_back({"reg72", std::move(g)});
  }
  graphs.push_back({"ring49", gen::ring(49)});
  {
    Graph g = gen::random_tree(64, 13);
    gen::scramble_ids(g, 1 << 18, 9);
    graphs.push_back({"tree64", std::move(g)});
  }
  graphs.push_back({"clique12", gen::clique(12)});
  return graphs;
}

// Every registered colorer, deterministic given (graph, fixed seeds).
// Each owns whatever auxiliary state (orientations, instances) it needs;
// state derived from the network run itself is computed inside `run`.
std::vector<NamedColorer> colorer_mix(const Graph& g) {
  std::vector<NamedColorer> cs;
  cs.push_back({"linial", [](Network& net) {
                  return linial::color(net).phi;
                }});
  cs.push_back({"defective-linial-d2", [](Network& net) {
                  return linial::defective_color(net, 2).phi;
                }});
  cs.push_back({"luby", [&g](Network& net) {
                  const LdcInstance inst = delta_plus_one_instance(g);
                  baselines::LubyOptions opt;
                  opt.seed = 42;
                  return baselines::luby_list_coloring(net, inst, opt).phi;
                }});
  cs.push_back({"linial+kw", [](Network& net) {
                  return baselines::linial_then_kw(net).phi;
                }});
  cs.push_back({"oldc-single-defect", [&g](Network& net) {
                  // Oriented instance with healthy list/defect margins so
                  // the run exercises types, P1, and all P0 classes.
                  const Orientation orient = Orientation::by_decreasing_id(g);
                  const std::uint64_t space = 512;
                  const Prf prf(99);
                  oldc::SingleDefectInput in;
                  std::vector<std::vector<Color>> lists(g.n());
                  for (NodeId v = 0; v < g.n(); ++v) {
                    auto picks = sample_distinct(
                        prf, static_cast<std::uint64_t>(v) << 40, space, 48);
                    lists[v].assign(picks.begin(), picks.end());
                  }
                  const auto lin = linial::color(net);
                  in.graph = &net.graph();
                  in.orientation = &orient;
                  in.color_space = space;
                  in.lists = std::move(lists);
                  in.defects.assign(g.n(), 2);
                  in.initial = &lin.phi;
                  in.m = lin.palette;
                  in.params.kprime = 12;
                  in.params.tau_cap = 6;
                  return oldc::solve_single_defect(net, in).phi;
                }});
  cs.push_back({"beg-arbdefective", [&g](Network& net) {
                  arb::ArbdefectiveOptions opt;
                  opt.defect = 2;
                  opt.colors = g.max_degree() / 3 + 1;  // q(d+1) > Delta
                  return arb::arbdefective_color(net, opt).phi;
                }});
  return cs;
}

TEST(ParallelEquivalence, EveryColorerEveryGraphEveryThreadCount) {
  for (const auto& ng : graph_mix()) {
    for (const auto& colorer : colorer_mix(ng.g)) {
      const EngineRun serial = run_with_threads(ng.g, 0, colorer.run);
      for (std::size_t threads : {1u, 2u, 4u, 7u}) {
        const EngineRun parallel =
            run_with_threads(ng.g, threads, colorer.run);
        expect_equivalent(serial, parallel,
                          colorer.name + " on " + ng.name + " @" +
                              std::to_string(threads) + "t");
      }
    }
  }
}

// Named fault plans for the sweep; rates are deliberately aggressive so
// every fault process actually fires on the small test graphs.
std::vector<std::pair<std::string, FaultPlan>> fault_plan_mix() {
  std::vector<std::pair<std::string, FaultPlan>> plans;
  {
    FaultPlan p;
    p.seed = 0xfa01;
    p.drop_rate = 0.15;
    plans.push_back({"drop15", p});
  }
  {
    FaultPlan p;
    p.seed = 0xfa02;
    p.corrupt_rate = 0.20;
    plans.push_back({"corrupt20", p});
  }
  {
    FaultPlan p;
    p.seed = 0xfa03;
    p.crash_rate = 0.03;
    p.sleep_rate = 0.10;
    p.max_crashes = 5;
    plans.push_back({"crash-sleep", p});
  }
  {
    FaultPlan p;
    p.seed = 0xfa04;
    p.drop_rate = 0.05;
    p.corrupt_rate = 0.05;
    p.crash_rate = 0.01;
    p.sleep_rate = 0.05;
    p.max_crashes = 4;
    plans.push_back({"mixed", p});
  }
  return plans;
}

struct FaultyRun {
  std::vector<std::uint64_t> inbox_flat;  ///< flat_deliveries() per round
  RunMetrics metrics;
  std::uint64_t trace_digest = 0;
  std::vector<Trace::Round> rounds;
};

/// A 40-bit payload per sender for each of six rounds.
std::vector<BitWriter> faulty_round_payloads(NodeId n, std::uint64_t r) {
  std::vector<BitWriter> msgs(n);
  for (NodeId u = 0; u < n; ++u) msgs[u].write(hash_combine(r, u), 40);
  return msgs;
}

// Six broadcast rounds under a fault plan, flattening every delivered
// payload so drop/corrupt/crash/sleep effects are byte-observable.
FaultyRun run_faulty_rounds(const Graph& g, std::size_t threads,
                            const FaultPlan& plan) {
  Network net(g);
  if (threads > 0) net.set_engine(Network::Engine::kSharded, threads);
  Trace trace;
  net.attach_trace(&trace);
  net.attach_faults(&plan);
  FaultyRun out;
  for (std::uint64_t r = 0; r < 6; ++r) {
    const auto flat = flat_deliveries(
        net.exchange_broadcast(faulty_round_payloads(g.n(), r)));
    out.inbox_flat.insert(out.inbox_flat.end(), flat.begin(), flat.end());
  }
  out.metrics = net.metrics();
  out.trace_digest = trace.digest();
  out.rounds = trace.rounds();
  return out;
}

// Every engine resolves a fault plan's drop/corrupt/crash/sleep decisions
// exactly as the round oracle does: the same deliveries, payload bits
// included, the same counters round by round, and so the same digest.
TEST(ParallelEquivalence, FaultPlansMatchAcrossEngines) {
  for (const auto& ng : graph_mix()) {
    for (const auto& [plan_name, plan] : fault_plan_mix()) {
      RoundReference ref(ng.g, &plan);
      std::vector<std::uint64_t> want;
      for (std::uint64_t r = 0; r < 6; ++r) {
        const auto flat = flat_deliveries(
            ref.broadcast(faulty_round_payloads(ng.g.n(), r)));
        want.insert(want.end(), flat.begin(), flat.end());
      }
      // The sweep must exercise real faults, not vacuous plans.
      EXPECT_GT(ref.metrics().messages_dropped +
                    ref.metrics().messages_corrupted +
                    ref.metrics().node_crashes + ref.metrics().node_sleeps,
                0u)
          << plan_name << " on " << ng.name;
      std::uint64_t serial_digest = 0;
      for (std::size_t threads : {0u, 1u, 2u, 4u, 7u}) {
        const FaultyRun got = run_faulty_rounds(ng.g, threads, plan);
        const std::string label =
            plan_name + " on " + ng.name + " @" + std::to_string(threads) +
            "t";
        EXPECT_EQ(want, got.inbox_flat)
            << label << ": delivered payloads differ";
        expect_reference_accounting(ref, got.metrics, got.rounds, label);
        if (threads == 0) serial_digest = got.trace_digest;
        EXPECT_EQ(serial_digest, got.trace_digest)
            << label << ": trace digests differ";
      }
    }
  }
}

TEST(ParallelEquivalence, ResilientRecoveryMatchesAcrossEngines) {
  // End-to-end: colorer under faults + validation + repair must stay
  // engine-independent, including the recovery cost report.
  Graph g = gen::gnp(48, 0.15, 33);
  gen::scramble_ids(g, 1 << 18, 3);
  repair::ResilientOptions opt;
  opt.plan.seed = 0xabcd;
  opt.plan.drop_rate = 0.10;
  opt.plan.corrupt_rate = 0.10;
  opt.plan.sleep_rate = 0.05;
  auto run = [&](std::size_t threads) {
    Network net(g);
    if (threads > 0) net.set_engine(Network::Engine::kSharded, threads);
    Trace trace;
    net.attach_trace(&trace);
    const auto res = resilient::resilient_linial(net, opt);
    return std::make_tuple(res.run.phi, res.run.valid,
                           count_marked(trace.rounds(), "resilient/repair"),
                           res.run.moved_nodes,
                           res.run.metrics, trace.digest());
  };
  const auto serial = run(0);
  EXPECT_TRUE(std::get<1>(serial));
  for (std::size_t threads : {2u, 4u, 7u}) {
    const auto parallel = run(threads);
    EXPECT_EQ(std::get<0>(serial), std::get<0>(parallel)) << threads;
    EXPECT_EQ(std::get<1>(serial), std::get<1>(parallel)) << threads;
    EXPECT_EQ(std::get<2>(serial), std::get<2>(parallel)) << threads;
    EXPECT_EQ(std::get<3>(serial), std::get<3>(parallel)) << threads;
    EXPECT_TRUE(std::get<4>(serial).same_communication(std::get<4>(parallel)))
        << threads;
    EXPECT_EQ(std::get<5>(serial), std::get<5>(parallel)) << threads;
  }
}

// A broadcast round delivers exactly what the round oracle
// (round_reference.hpp) says — with and without a sender list, with and
// without faults, under every engine: inboxes and receivers, payload bits
// and counters round by round.
TEST(ParallelEquivalence, BroadcastMatchesTheRoundOracle) {
  const Graph g = gen::gnp(48, 0.25, 33);
  std::vector<BitWriter> msgs(g.n());
  for (NodeId v = 0; v < g.n(); ++v) msgs[v].write(hash_combine(0xb0, v), 36);
  std::vector<NodeId> mask;
  for (NodeId v = 0; v < g.n(); ++v) {
    if (v % 3 != 0) mask.push_back(v);
  }
  FaultPlan plan;
  plan.seed = 0xfa07;
  plan.drop_rate = 0.08;
  plan.corrupt_rate = 0.08;
  plan.sleep_rate = 0.05;

  struct Flat {
    std::vector<std::uint64_t> slots;
    std::vector<NodeId> receivers;
    RunMetrics metrics;
    std::vector<Trace::Round> rows;
    std::uint64_t trace_digest = 0;
  };
  auto run = [&](std::size_t threads, SenderList senders,
                 const FaultPlan* faults) {
    Network net(g);
    if (threads > 0) net.set_engine(Network::Engine::kSharded, threads);
    Trace trace;
    net.attach_trace(&trace);
    if (faults != nullptr) net.attach_faults(faults);
    Flat out;
    std::function<void()> prev;
    for (int round = 0; round < 3; ++round) {
      const RoundMail in = net.exchange_broadcast(msgs, senders);
      record_receivers(in, out.receivers, prev);
      const auto flat = flat_deliveries(in);
      out.slots.insert(out.slots.end(), flat.begin(), flat.end());
    }
    out.metrics = net.metrics();
    out.rows = trace.rounds();
    out.trace_digest = trace.digest();
    return out;
  };

  std::vector<std::pair<std::string, SenderList>> masks = {
      {"all", std::nullopt}, {"masked", mask}};
  const auto pass_masks = survivor_pass_lists(g.n());
  for (const auto& [name, m] : pass_masks) masks.emplace_back(name, m);
  const FaultPlan* plans[] = {nullptr, &plan};
  for (const auto& [mask_name, senders] : masks) {
    for (const FaultPlan* faults : plans) {
      RoundReference ref(g, faults);
      Flat want;
      for (int round = 0; round < 3; ++round) {
        const ReferenceRound& rd = ref.broadcast(msgs, senders);
        record_receivers(rd, want.receivers);
        const auto flat = flat_deliveries(rd);
        want.slots.insert(want.slots.end(), flat.begin(), flat.end());
      }
      std::uint64_t serial_digest = 0;
      for (std::size_t threads : {0u, 2u, 7u}) {
        const Flat got = run(threads, senders, faults);
        const std::string label = mask_name +
                                  (faults != nullptr ? "+faults" : "") +
                                  " @" + std::to_string(threads) + "t";
        EXPECT_EQ(want.slots, got.slots) << label << ": deliveries differ";
        EXPECT_EQ(want.receivers, got.receivers)
            << label << ": receivers differ";
        expect_reference_accounting(ref, got.metrics, got.rows, label);
        if (threads == 0) serial_digest = got.trace_digest;
        EXPECT_EQ(serial_digest, got.trace_digest)
            << label << ": trace digests differ";
      }
    }
  }
}

// The fused word-broadcast path (one bounded word per sender, no payload
// writer) is observably identical to the broadcast path carrying the same
// write_bounded payload, and both deliver what the round oracle says:
// same decoded values per (receiver, sender), same accounting, same trace
// digest — with and without a sender list, with and without faults,
// across engines. write_bounded lays the value out LSB-first, so payload
// bit k is value bit k and a corrupted word decodes to exactly the
// corrupted payload's value.
TEST(ParallelEquivalence, FusedWordBroadcastMatchesBroadcastAndTheRoundOracle) {
  const Graph g = gen::gnp(48, 0.25, 34);
  const std::uint64_t bound = 499;
  std::vector<std::uint64_t> words(g.n());
  std::vector<BitWriter> msgs(g.n());
  for (NodeId v = 0; v < g.n(); ++v) {
    words[v] = hash_combine(0xb1, v) % (bound + 1);
    msgs[v].write_bounded(words[v], bound);
  }
  std::vector<NodeId> mask;
  for (NodeId v = 0; v < g.n(); ++v) {
    if (v % 3 != 0) mask.push_back(v);
  }
  FaultPlan plan;
  plan.seed = 0xfa08;
  plan.drop_rate = 0.08;
  plan.corrupt_rate = 0.12;
  plan.sleep_rate = 0.05;

  struct Flat {
    std::vector<std::uint64_t> slots;
    std::vector<NodeId> receivers;
    RunMetrics metrics;
    std::vector<Trace::Round> rows;
    std::uint64_t trace_digest = 0;
  };
  auto run = [&](std::size_t threads, SenderList senders,
                 const FaultPlan* faults, bool fused) {
    Network net(g);
    if (threads > 0) net.set_engine(Network::Engine::kSharded, threads);
    Trace trace;
    net.attach_trace(&trace);
    if (faults != nullptr) net.attach_faults(faults);
    Flat out;
    std::function<void()> prev;
    for (int round = 0; round < 3; ++round) {
      if (fused) {
        const WordMail in = net.exchange_broadcast_word(words, bound, senders);
        record_receivers(in, out.receivers, prev);
        const auto flat = flat_lanes(in);
        out.slots.insert(out.slots.end(), flat.begin(), flat.end());
        continue;
      }
      const RoundMail in = net.exchange_broadcast(msgs, senders);
      record_receivers(in, out.receivers, prev);
      for (NodeId v = 0; v < g.n(); ++v) {
        for (auto [sender, r] : in[v]) {
          out.slots.push_back(
              hash_combine((static_cast<std::uint64_t>(v) << 32) | sender,
                           r.read_bounded(bound)));
        }
      }
    }
    out.metrics = net.metrics();
    out.rows = trace.rounds();
    out.trace_digest = trace.digest();
    return out;
  };

  std::vector<std::pair<std::string, SenderList>> masks = {
      {"all", std::nullopt}, {"masked", mask}};
  const auto pass_masks = survivor_pass_lists(g.n());
  for (const auto& [name, m] : pass_masks) masks.emplace_back(name, m);
  const FaultPlan* plans[] = {nullptr, &plan};
  for (const auto& [mask_name, senders] : masks) {
    for (const FaultPlan* faults : plans) {
      RoundReference ref(g, faults);
      Flat want;
      for (int round = 0; round < 3; ++round) {
        const ReferenceRound& rd = ref.broadcast_word(words, bound, senders);
        record_receivers(rd, want.receivers);
        const auto flat = flat_lanes(rd);
        want.slots.insert(want.slots.end(), flat.begin(), flat.end());
      }
      for (std::size_t threads : {0u, 1u, 7u}) {
        const Flat broadcast = run(threads, senders, faults, false);
        for (const bool fused : {false, true}) {
          const Flat got = fused ? run(threads, senders, faults, true)
                                 : broadcast;
          const std::string label =
              std::string(fused ? "fused" : "broadcast") + "/" + mask_name +
              (faults != nullptr ? "+faults" : "") + " @" +
              std::to_string(threads) + "t";
          EXPECT_EQ(want.slots, got.slots) << label << ": deliveries differ";
          EXPECT_EQ(want.receivers, got.receivers)
              << label << ": receivers differ";
          expect_reference_accounting(ref, got.metrics, got.rows, label);
          EXPECT_EQ(broadcast.trace_digest, got.trace_digest)
              << label << ": trace digests differ";
        }
      }
    }
  }
}

// A WordMail is a view into the network's round arena; touching it after
// the next exchange begins must fail loudly instead of silently reading
// reused storage.
TEST(ParallelEquivalence, StaleWordMailAccessThrows) {
  const Graph g = gen::ring(8);
  Network net(g);
  const std::vector<std::uint64_t> words(g.n(), 3);
  const WordMail first = net.exchange_broadcast_word(words, 7);
  (void)first[0];  // fresh: fine
  (void)net.exchange_broadcast_word(words, 7);
  EXPECT_THROW((void)first[0], std::logic_error);
}

TEST(ParallelEquivalence, CongestAccountingMatchesAcrossEngines) {
  // Non-strict CONGEST budget: violation counts must merge exactly.
  const Graph g = gen::random_regular(50, 6, 17);
  auto run = [&](std::size_t threads) {
    Network net(g, /*budget_bits=*/10);
    if (threads > 0) net.set_engine(Network::Engine::kSharded, threads);
    std::vector<BitWriter> msgs(g.n());
    for (NodeId v = 0; v < g.n(); ++v) {
      BitWriter w;
      w.write(v, v % 2 == 0 ? 8 : 16);  // odd nodes violate the budget
      msgs[v] = w;
    }
    net.exchange_broadcast(msgs);
    return net.metrics();
  };
  const RunMetrics m0 = run(0);
  EXPECT_GT(m0.congest_violations, 0u);
  for (std::size_t threads : {2u, 4u, 7u}) {
    EXPECT_TRUE(m0.same_communication(run(threads)))
        << threads << " threads";
  }
}

TEST(ParallelEquivalence, StrictViolationThrowsOnBothEngines) {
  const Graph g = gen::path(4);
  for (std::size_t threads : {0u, 2u, 7u}) {
    Network net(g, /*budget_bits=*/4, /*strict=*/true);
    if (threads > 0) net.set_engine(Network::Engine::kSharded, threads);
    BitWriter w;
    w.write(0, 9);
    EXPECT_THROW(net.exchange_broadcast(std::vector<BitWriter>(4, w)),
                 CongestViolation)
        << threads << " threads";
  }
}

TEST(ParallelEquivalence, WallClockIsRecordedButNotInDigest) {
  const Graph g = gen::ring(32);
  Network net(g);
  net.set_engine(Network::Engine::kSharded, 3);
  Trace trace;
  net.attach_trace(&trace);
  linial::color(net);
  EXPECT_GT(net.metrics().wall_ns, 0u);
  std::uint64_t total = 0;
  for (const auto& r : trace.rounds()) total += r.wall_ns;
  EXPECT_EQ(total, net.metrics().wall_ns);
}

TEST(ParallelEquivalence, RunNodeProgramsComputesEveryNodeOnce) {
  const Graph g = gen::ring(101);
  std::vector<NodeId> every_third;
  for (NodeId v = 0; v < g.n(); v += 3) every_third.push_back(v);
  for (std::size_t threads : {0u, 1u, 2u, 4u, 7u}) {
    // Listed inputs: nothing, one node on a shard boundary (the first
    // node of the last shard), and every third node.
    const std::size_t k = std::max<std::size_t>(threads, 1);
    const std::vector<std::pair<std::string, std::vector<NodeId>>> lists = {
        {"empty", {}},
        {"boundary", {Partition::degree_balanced(g, k).begin(k - 1)}},
        {"every-third", every_third}};
    Network net(g);
    if (threads > 0) net.set_engine(Network::Engine::kSharded, threads);
    std::vector<std::uint32_t> hits(g.n(), 0);
    net.run_node_programs([&](NodeId v) { ++hits[v]; });
    for (NodeId v = 0; v < g.n(); ++v) {
      ASSERT_EQ(hits[v], 1u) << "node " << v << " @" << threads;
    }
    for (const auto& [name, list] : lists) {
      std::vector<std::uint32_t> listed(g.n(), 0);
      net.run_node_programs(list, [&](NodeId v) { ++listed[v]; });
      for (NodeId v = 0; v < g.n(); ++v) {
        const bool in = std::binary_search(list.begin(), list.end(), v);
        ASSERT_EQ(listed[v], in ? 1u : 0u)
            << name << " node " << v << " @" << threads;
      }
    }
    const std::vector<NodeId> unsorted = {5, 3};
    const std::vector<NodeId> repeated = {3, 3};
    const std::vector<NodeId> too_big = {2, g.n()};
    for (const auto* bad : {&unsorted, &repeated, &too_big}) {
      bool ran = false;
      EXPECT_THROW(net.run_node_programs(*bad, [&](NodeId) { ran = true; }),
                   std::invalid_argument)
          << "@" << threads;
      EXPECT_FALSE(ran) << "@" << threads;
    }
  }
}

// The masked broadcasts' sender-list contract, on every engine: a list
// that is unsorted, repeats an id or names an id >= n throws
// std::invalid_argument before the round opens — metrics unchanged, the
// round callback never called — and an empty list is one counted round
// that delivers nothing.
TEST(ParallelEquivalence, SenderListContractOnEveryEngine) {
  const Graph g = gen::gnp(40, 0.2, 35);
  const std::string corpus =
      testing::TempDir() + "sender_list_contract.ldcg";
  {
    storage::CorpusWriter w(corpus, g.n(), /*with_ids=*/false);
    for (NodeId v = 0; v < g.n(); ++v) w.add_vertex(g.neighbors(v));
    w.close();
  }
  dist::CoordinatorOptions copt;
  copt.workers = 2;
  dist::Coordinator coord(corpus, copt);

  BitWriter w;
  w.write(5, 3);
  const std::vector<BitWriter> msgs(g.n(), w);
  const std::vector<std::uint64_t> words(g.n(), 5);
  const std::vector<NodeId> some = {1, 7, 30};
  const std::vector<std::pair<std::string, std::vector<NodeId>>> bad = {
      {"unsorted", {7, 1}}, {"repeated", {1, 1}}, {"out-of-range", {1, g.n()}}};
  const std::vector<std::pair<std::string, std::function<void(Network&)>>>
      engines = {
          {"serial", [](Network&) {}},
          {"sharded@2",
           [](Network& net) { net.set_engine(Network::Engine::kSharded, 2); }},
          {"sharded@7",
           [](Network& net) { net.set_engine(Network::Engine::kSharded, 7); }},
          {"dist@2", [&](Network& net) { net.attach_dist(&coord); }},
      };
  for (const auto& [engine, apply] : engines) {
    Network net(engine == "dist@2" ? coord.corpus_graph() : g);
    apply(net);
    std::uint64_t calls = 0;
    net.set_round_callback([&](std::uint64_t) { ++calls; });
    (void)net.exchange_broadcast(msgs, some);  // metrics worth keeping
    const RunMetrics before = net.metrics();
    for (const auto& [name, list] : bad) {
      EXPECT_THROW((void)net.exchange_broadcast(msgs, list),
                   std::invalid_argument)
          << engine << "/" << name;
      EXPECT_THROW((void)net.exchange_broadcast_word(words, 7, list),
                   std::invalid_argument)
          << engine << "/" << name;
    }
    EXPECT_EQ(calls, 1u) << engine;
    EXPECT_TRUE(net.metrics().same_communication(before))
        << engine << ": {" << net.metrics() << "} vs {" << before << "}";

    const std::vector<NodeId> none;
    const RoundMail mail = net.exchange_broadcast(msgs, none);
    for (NodeId v = 0; v < g.n(); ++v) {
      EXPECT_TRUE(mail[v].empty()) << engine << " node " << v;
    }
    const WordMail lanes = net.exchange_broadcast_word(words, 7, none);
    for (NodeId v = 0; v < g.n(); ++v) {
      EXPECT_TRUE(lanes[v].empty()) << engine << " node " << v;
    }
    EXPECT_EQ(calls, 3u) << engine;
    EXPECT_EQ(net.metrics().rounds, before.rounds + 2) << engine;
    EXPECT_EQ(net.metrics().messages, before.messages) << engine;
    EXPECT_EQ(net.metrics().total_bits, before.total_bits) << engine;
  }
  std::remove(corpus.c_str());
}

}  // namespace
}  // namespace ldc
