// Sharded-engine equivalence and shard-boundary correctness.
//
// Engine::kSharded must be bit-for-bit equivalent to kSerial: same
// colors, same model-exact RunMetrics, same trace transcript, same fault
// decisions — for every registered colorer, across shard counts
// {1, 2, 7}, with and without masks and fault plans; single rounds are
// checked against the round oracle (round_reference.hpp). On top of the
// cross-engine sweeps this file pins the shard-specific contracts:
// ghost-halo reads are snapshots of the round just exchanged (mutating
// the caller's words afterwards must not leak in), a view survives an
// engine switch, LDC_SHARDS is parsed strictly (garbage throws instead
// of silently reshaping the run), and cross_shard_traffic() counts
// exactly the messages that crossed a partition boundary. It also pins
// the ShardCrew itself: LDC_THREADS' lax fallback, the lowest-lane
// rethrow, and a clean throw when a worker thread cannot start.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "ldc/arb/beg_arbdefective.hpp"
#include "ldc/baselines/kw_reduction.hpp"
#include "ldc/baselines/luby.hpp"
#include "ldc/coloring/instance_gen.hpp"
#include "ldc/graph/generators.hpp"
#include "ldc/graph/partition.hpp"
#include "ldc/linial/defective_linial.hpp"
#include "ldc/linial/linial.hpp"
#include "ldc/oldc/single_defect.hpp"
#include "ldc/resilient/drivers.hpp"
#include "ldc/runtime/network.hpp"
#include "ldc/runtime/shard.hpp"
#include "ldc/support/prf.hpp"
#include "round_reference.hpp"
#include "survivor_lists.hpp"
#include "thread_start_limit.hpp"

namespace ldc {
namespace {

// An engine selection applied to a fresh Network. "serial" is the
// reference; the sweeps compare every other variant against it.
struct EngineSel {
  std::string name;
  std::function<void(Network&)> apply;
};

std::vector<EngineSel> engine_mix() {
  std::vector<EngineSel> es;
  es.push_back({"serial", [](Network&) {}});
  for (std::size_t k : {1u, 2u, 4u, 7u}) {
    es.push_back({"sharded@" + std::to_string(k), [k](Network& net) {
                    net.set_engine(Network::Engine::kSharded, k);
                  }});
  }
  return es;
}

struct EngineRun {
  Coloring phi;
  RunMetrics metrics;
  std::uint64_t trace_digest = 0;
  std::vector<Trace::Round> rounds;
};

using Colorer = std::function<Coloring(Network&)>;

struct NamedColorer {
  std::string name;
  Colorer run;
};

struct NamedGraph {
  std::string name;
  Graph g;
};

EngineRun run_with_engine(const Graph& g, const EngineSel& sel,
                          const Colorer& algo) {
  Network net(g);
  sel.apply(net);
  Trace trace;
  net.attach_trace(&trace);
  EngineRun out;
  out.phi = algo(net);
  out.metrics = net.metrics();
  out.trace_digest = trace.digest();
  out.rounds = trace.rounds();
  return out;
}

void expect_equivalent(const EngineRun& serial, const EngineRun& other,
                       const std::string& label) {
  EXPECT_EQ(serial.phi, other.phi) << label << ": colors differ";
  EXPECT_TRUE(serial.metrics.same_communication(other.metrics))
      << label << ": metrics differ: serial {" << serial.metrics
      << "} other {" << other.metrics << "}";
  EXPECT_EQ(serial.trace_digest, other.trace_digest)
      << label << ": trace digests differ";
  ASSERT_EQ(serial.rounds.size(), other.rounds.size())
      << label << ": transcript length differs";
  for (std::size_t i = 0; i < serial.rounds.size(); ++i) {
    const auto& a = serial.rounds[i];
    const auto& b = other.rounds[i];
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

// Every registered colorer, deterministic given (graph, fixed seeds);
// mirrors tests/test_parallel_equivalence.cpp.
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

TEST(Sharded, EveryColorerEveryGraphEveryShardCount) {
  const EngineSel serial{"serial", [](Network&) {}};
  for (const auto& ng : graph_mix()) {
    for (const auto& colorer : colorer_mix(ng.g)) {
      const EngineRun ref = run_with_engine(ng.g, serial, colorer.run);
      for (std::size_t shards : {1u, 2u, 7u}) {
        const EngineSel sel{
            "sharded@" + std::to_string(shards), [shards](Network& net) {
              net.set_engine(Network::Engine::kSharded, shards);
            }};
        const EngineRun got = run_with_engine(ng.g, sel, colorer.run);
        expect_equivalent(ref, got, colorer.name + " on " + ng.name +
                                        " @" + sel.name);
      }
    }
  }
}

// Named fault plans; rates aggressive enough that every fault process
// fires on the small test graphs.
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
FaultyRun run_faulty_rounds(const Graph& g, const EngineSel& sel,
                            const FaultPlan& plan) {
  Network net(g);
  sel.apply(net);
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

// The fault-model contract across the engines: every drop/corrupt/crash/
// sleep PRF decision must pick the bits the round oracle picks under
// kSerial and kSharded at every K — delivered payloads, fault counters,
// and trace digests all byte-equal. The third engine, kDist, is held to
// the same plans by Dist.FaultPlansMatchSerial.
TEST(Sharded, FaultPlansMatchAcrossAllThreeEngines) {
  const auto engines = engine_mix();
  for (const auto& ng : graph_mix()) {
    for (const auto& [plan_name, plan] : fault_plan_mix()) {
      RoundReference ref(ng.g, &plan);
      std::vector<std::uint64_t> want;
      for (std::uint64_t r = 0; r < 6; ++r) {
        const auto flat = flat_deliveries(
            ref.broadcast(faulty_round_payloads(ng.g.n(), r)));
        want.insert(want.end(), flat.begin(), flat.end());
      }
      EXPECT_GT(ref.metrics().messages_dropped +
                    ref.metrics().messages_corrupted +
                    ref.metrics().node_crashes + ref.metrics().node_sleeps,
                0u)
          << plan_name << " on " << ng.name;
      std::uint64_t serial_digest = 0;
      for (const EngineSel& sel : engines) {
        const FaultyRun got = run_faulty_rounds(ng.g, sel, plan);
        const std::string label = plan_name + " on " + ng.name + " @" +
                                  sel.name;
        EXPECT_EQ(want, got.inbox_flat)
            << label << ": delivered payloads differ";
        expect_reference_accounting(ref, got.metrics, got.rounds, label);
        if (sel.name == "serial") serial_digest = got.trace_digest;
        EXPECT_EQ(serial_digest, got.trace_digest)
            << label << ": trace digests differ";
      }
    }
  }
}

// The broadcast and the fused word path under kSharded deliver what the
// round oracle says — with and without a sender list, with and without
// faults, across shard counts.
TEST(Sharded, BroadcastAndWordPathsMatchSerialReference) {
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
  };
  auto run = [&](std::size_t shards, SenderList senders,
                 const FaultPlan* faults, bool fused) {
    Network net(g);
    if (shards > 0) net.set_engine(Network::Engine::kSharded, shards);
    Trace trace;
    net.attach_trace(&trace);
    if (faults != nullptr) net.attach_faults(faults);
    Flat out;
    std::function<void()> prev;
    for (int round = 0; round < 3; ++round) {
      std::vector<std::uint64_t> flat;
      if (fused) {
        const WordMail in = net.exchange_broadcast_word(words, bound, senders);
        record_receivers(in, out.receivers, prev);
        flat = flat_lanes(in);
      } else {
        const RoundMail in = net.exchange_broadcast(msgs, senders);
        record_receivers(in, out.receivers, prev);
        flat = flat_deliveries(in);
      }
      out.slots.insert(out.slots.end(), flat.begin(), flat.end());
    }
    out.metrics = net.metrics();
    out.rows = trace.rounds();
    return out;
  };

  std::vector<std::pair<std::string, SenderList>> masks = {
      {"all", std::nullopt}, {"masked", mask}};
  const auto pass_masks = survivor_pass_lists(g.n());
  for (const auto& [name, m] : pass_masks) masks.emplace_back(name, m);
  const FaultPlan* plans[] = {nullptr, &plan};
  for (const auto& [mask_name, senders] : masks) {
    for (const FaultPlan* faults : plans) {
      for (const bool fused : {false, true}) {
        RoundReference ref(g, faults);
        Flat want;
        for (int round = 0; round < 3; ++round) {
          const ReferenceRound& rd = ref.broadcast(msgs, senders);
          record_receivers(rd, want.receivers);
          const auto flat = fused ? flat_lanes(rd) : flat_deliveries(rd);
          want.slots.insert(want.slots.end(), flat.begin(), flat.end());
        }
        for (std::size_t shards : {1u, 2u, 7u}) {
          const Flat got = run(shards, senders, faults, fused);
          const std::string label =
              std::string(fused ? "fused" : "broadcast") + "/" + mask_name +
              (faults != nullptr ? "+faults" : "") + " @" +
              std::to_string(shards) + "s";
          EXPECT_EQ(want.slots, got.slots) << label << ": deliveries differ";
          EXPECT_EQ(want.receivers, got.receivers)
              << label << ": receivers differ";
          expect_reference_accounting(ref, got.metrics, got.rows, label);
        }
      }
    }
  }

  // Bound 0: every word is 0 bits wide, so a corrupted copy has no pool
  // word to copy; its lane still reads 0.
  FaultPlan corrupt;
  corrupt.seed = 0xb0;
  corrupt.corrupt_rate = 0.5;
  const std::vector<std::uint64_t> zeros(g.n(), 0);
  for (std::size_t shards : {0u, 2u, 7u}) {
    Network net(g);
    if (shards > 0) net.set_engine(Network::Engine::kSharded, shards);
    net.attach_faults(&corrupt);
    const WordMail in = net.exchange_broadcast_word(zeros, 0);
    for (NodeId v = 0; v < g.n(); ++v) {
      for (const auto [sender, word] : in[v]) {
        EXPECT_EQ(word, 0u) << sender << " -> " << v << " @" << shards;
      }
    }
    EXPECT_GT(net.metrics().messages_corrupted, 0u) << shards;
  }
}

// End-to-end resilient run (colorer + validation + repair under faults):
// the recovery cost report must be shard-count independent too.
TEST(Sharded, ResilientRecoveryMatchesSerial) {
  Graph g = gen::gnp(48, 0.15, 33);
  gen::scramble_ids(g, 1 << 18, 3);
  repair::ResilientOptions opt;
  opt.plan.seed = 0xabcd;
  opt.plan.drop_rate = 0.10;
  opt.plan.corrupt_rate = 0.10;
  opt.plan.sleep_rate = 0.05;
  auto run = [&](std::size_t shards) {
    Network net(g);
    if (shards > 0) net.set_engine(Network::Engine::kSharded, shards);
    Trace trace;
    net.attach_trace(&trace);
    const auto res = resilient::resilient_linial(net, opt);
    return std::make_tuple(res.run.phi, res.run.valid,
                           count_marked(trace.rounds(), "resilient/repair"),
                           res.run.moved_nodes,
                           res.run.metrics, trace.digest());
  };
  const auto ref = run(0);
  EXPECT_TRUE(std::get<1>(ref));
  for (std::size_t shards : {2u, 7u}) {
    const auto got = run(shards);
    EXPECT_EQ(std::get<0>(ref), std::get<0>(got)) << shards;
    EXPECT_EQ(std::get<1>(ref), std::get<1>(got)) << shards;
    EXPECT_EQ(std::get<2>(ref), std::get<2>(got)) << shards;
    EXPECT_EQ(std::get<3>(ref), std::get<3>(got)) << shards;
    EXPECT_TRUE(std::get<4>(ref).same_communication(std::get<4>(got)))
        << shards;
    EXPECT_EQ(std::get<5>(ref), std::get<5>(got)) << shards;
  }
}

// A dense WordMail lane under kSharded reads each sender's word where the
// round posted it, in the arena's word pool, whether the sender is in the
// lane's shard or across the cut. Mutating the caller's word vector after
// the exchange must not leak into the view (a ghost read reflects the
// previous round only), and the next exchange invalidates the view
// entirely.
TEST(Sharded, GhostHaloReadsAreRoundSnapshots) {
  const Graph g = gen::ring(16);  // degree-balanced split: [0,8) | [8,16)
  Network net(g);
  net.set_engine(Network::Engine::kSharded, 2);
  std::vector<std::uint64_t> words(g.n());
  for (NodeId v = 0; v < g.n(); ++v) words[v] = 100 + v;
  const WordMail in = net.exchange_broadcast_word(words, 255);

  // Boundary inboxes before mutation: each sees one owned neighbor and
  // one cross-shard ghost neighbor.
  auto expect_lane = [&](NodeId v, NodeId s0, std::uint64_t w0, NodeId s1,
                         std::uint64_t w1) {
    const auto lane = in[v];
    ASSERT_EQ(lane.size(), 2u) << "receiver " << v;
    EXPECT_EQ(lane[0].sender, s0) << "receiver " << v;
    EXPECT_EQ(lane[0].value, w0) << "receiver " << v;
    EXPECT_EQ(lane[1].sender, s1) << "receiver " << v;
    EXPECT_EQ(lane[1].value, w1) << "receiver " << v;
  };
  expect_lane(7, 6, 106, 8, 108);    // 8 is a ghost of shard 0
  expect_lane(8, 7, 107, 9, 109);    // 7 is a ghost of shard 1
  expect_lane(0, 1, 101, 15, 115);   // 15 is a ghost of shard 0

  // Mutate every word the boundary lanes touch: the snapshot must hold.
  for (NodeId v : {6u, 7u, 8u, 9u, 1u, 15u}) words[v] = 0;
  expect_lane(7, 6, 106, 8, 108);
  expect_lane(8, 7, 107, 9, 109);
  expect_lane(0, 1, 101, 15, 115);

  // The next round sees the new words; the old view dies loudly.
  const WordMail next = net.exchange_broadcast_word(words, 255);
  EXPECT_THROW((void)in[7], std::logic_error);
  const auto lane = next[7];
  ASSERT_EQ(lane.size(), 2u);
  EXPECT_EQ(lane[0].value, 0u);
  EXPECT_EQ(lane[1].value, 0u);
}

// Views read the Network's one round arena, which no engine switch
// touches: a dense RoundMail and a dense WordMail taken under kSharded,
// whose rows are the graph's adjacency over the posted entries, keep
// returning their round's inboxes after set_engine(kSerial) and after a
// shard-count change, since no exchange ran in between.
TEST(Sharded, ViewsOutliveAnEngineSwitch) {
  const Graph g = gen::gnp(40, 0.2, 41);
  const std::uint64_t bound = 1000;
  std::vector<std::uint64_t> words(g.n());
  std::vector<BitWriter> msgs(g.n());
  for (NodeId v = 0; v < g.n(); ++v) {
    words[v] = hash_combine(0x5e, v) % (bound + 1);
    BitWriter w;
    w.write_bounded(words[v], bound);
    msgs[v] = w;
  }
  using Delivery = std::tuple<NodeId, NodeId, std::uint64_t>;
  auto flat_mail = [&](const RoundMail& in) {
    std::vector<Delivery> out;
    for (NodeId v = 0; v < g.n(); ++v) {
      for (auto [sender, r] : in[v]) {
        out.emplace_back(v, sender, r.read_bounded(bound));
      }
    }
    return out;
  };
  auto flat_words = [&](const WordMail& in) {
    std::vector<Delivery> out;
    for (NodeId v = 0; v < g.n(); ++v) {
      for (const auto [sender, word] : in[v]) {
        out.emplace_back(v, sender, word);
      }
    }
    return out;
  };
  Network ref(g);
  const std::vector<Delivery> want_mail =
      flat_mail(ref.exchange_broadcast(msgs));
  const std::vector<Delivery> want_words =
      flat_words(ref.exchange_broadcast_word(words, bound));
  ASSERT_FALSE(want_mail.empty());

  const std::pair<const char*, std::function<void(Network&)>> switches[] = {
      {"to serial",
       [](Network& net) { net.set_engine(Network::Engine::kSerial); }},
      {"to 7 shards",
       [](Network& net) { net.set_engine(Network::Engine::kSharded, 7); }},
  };
  for (const auto& [name, switch_engine] : switches) {
    Network net(g);
    net.set_engine(Network::Engine::kSharded, 4);
    const RoundMail mail = net.exchange_broadcast(msgs);
    switch_engine(net);
    EXPECT_EQ(flat_mail(mail), want_mail) << "RoundMail " << name;

    Network wnet(g);
    wnet.set_engine(Network::Engine::kSharded, 4);
    const WordMail lanes = wnet.exchange_broadcast_word(words, bound);
    switch_engine(wnet);
    EXPECT_EQ(flat_words(lanes), want_words) << "WordMail " << name;
  }
}

TEST(Sharded, CongestAccountingMatchesSerial) {
  const Graph g = gen::random_regular(50, 6, 17);
  auto run = [&](std::size_t shards) {
    Network net(g, /*budget_bits=*/10);
    if (shards > 0) net.set_engine(Network::Engine::kSharded, shards);
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
  for (std::size_t shards : {2u, 4u, 7u}) {
    EXPECT_TRUE(m0.same_communication(run(shards))) << shards << " shards";
  }
}

TEST(Sharded, StrictViolationThrows) {
  const Graph g = gen::path(4);
  for (std::size_t shards : {2u, 4u}) {
    Network net(g, /*budget_bits=*/4, /*strict=*/true);
    net.set_engine(Network::Engine::kSharded, shards);
    BitWriter w;
    w.write(0, 9);
    EXPECT_THROW(
        net.exchange_broadcast(std::vector<BitWriter>(4, w)),
        CongestViolation)
        << shards << " shards";
  }
}

TEST(Sharded, RunNodeProgramsComputesEveryNodeOnce) {
  const Graph g = gen::ring(101);
  for (std::size_t shards : {1u, 2u, 7u}) {
    Network net(g);
    net.set_engine(Network::Engine::kSharded, shards);
    std::vector<std::uint32_t> hits(g.n(), 0);
    net.run_node_programs([&](NodeId v) { ++hits[v]; });
    for (NodeId v = 0; v < g.n(); ++v) {
      ASSERT_EQ(hits[v], 1u) << "node " << v << " @" << shards;
    }
  }
}

// Cross-shard traffic counters are engine-private observability: they
// must count exactly the boundary-crossing deliveries, stay out of
// RunMetrics, and read as zero under the other engines.
TEST(Sharded, CrossShardTrafficCountsTheCut) {
  const Graph g = gen::ring(16);  // split [0,8) | [8,16): cut edges 7-8, 15-0
  {
    // A listed broadcast of 40-bit messages, every node listed, so the
    // ranges fill slots: 4 directed messages cross the cut per round.
    Network net(g);
    net.set_engine(Network::Engine::kSharded, 2);
    std::vector<BitWriter> msgs(g.n());
    for (NodeId u = 0; u < g.n(); ++u) msgs[u].write(u, 40);
    const std::vector<NodeId> every = every_node(g.n());
    net.exchange_broadcast(msgs, every);
    EXPECT_EQ(net.cross_shard_traffic().messages, 4u);
    EXPECT_EQ(net.cross_shard_traffic().bits, 4u * 40u);
    net.exchange_broadcast(msgs, every);  // cumulative
    EXPECT_EQ(net.cross_shard_traffic().messages, 8u);
  }
  {
    // A dense word round: each cut sender's word once per neighbour across
    // the cut, i.e. the ghost adjacency entries times the word width
    // (bound 7 -> 3 bits).
    Network net(g);
    net.set_engine(Network::Engine::kSharded, 2);
    const std::vector<std::uint64_t> words(g.n(), 5);
    net.exchange_broadcast_word(words, 7);
    EXPECT_EQ(net.cross_shard_traffic().messages, 4u);
    EXPECT_EQ(net.cross_shard_traffic().bits, 4u * 3u);
  }
  {
    // Broadcast fast path, all live: same four boundary deliveries.
    Network net(g);
    net.set_engine(Network::Engine::kSharded, 2);
    std::vector<BitWriter> msgs(g.n());
    for (NodeId v = 0; v < g.n(); ++v) {
      BitWriter w;
      w.write(v, 10);
      msgs[v] = w;
    }
    net.exchange_broadcast(msgs);
    EXPECT_EQ(net.cross_shard_traffic().messages, 4u);
    EXPECT_EQ(net.cross_shard_traffic().bits, 4u * 10u);
    // RunMetrics must not know about any of this.
    EXPECT_EQ(net.metrics().messages, 32u);
  }
  {
    // A dense round (no sender list, no faults) fills no slot and prices
    // its cut from the partition: each cut sender's payload once per
    // neighbour across the cut. The same round with every node listed
    // fills slots. Both deliver the same inboxes and count the same cut,
    // for mixed payload widths and for words.
    const Graph h = gen::gnp(60, 0.2, 11);
    const std::vector<BitWriter> msgs = mixed_width_payloads(h.n());
    std::vector<std::uint64_t> words(h.n());
    for (NodeId v = 0; v < h.n(); ++v) words[v] = hash_combine(0x77, v) % 500;
    const std::vector<NodeId> every = every_node(h.n());
    for (const std::size_t shards : {std::size_t{2}, std::size_t{7}}) {
      for (const bool word_round : {false, true}) {
        auto run = [&](SenderList senders) {
          Network net(h);
          net.set_engine(Network::Engine::kSharded, shards);
          const std::vector<std::uint64_t> flat =
              word_round
                  ? flat_lanes(net.exchange_broadcast_word(words, 499, senders))
                  : flat_deliveries(net.exchange_broadcast(msgs, senders));
          EXPECT_EQ(net.arena().dense(), !senders.has_value());
          return std::make_pair(flat, net.cross_shard_traffic());
        };
        const std::string label = std::string(word_round ? "words" : "msgs") +
                                  " @" + std::to_string(shards);
        const auto dense = run(std::nullopt);
        const auto listed = run(every);
        EXPECT_EQ(dense.first, listed.first) << label;
        EXPECT_GT(dense.second.messages, 0u) << label;
        EXPECT_EQ(dense.second.messages, listed.second.messages) << label;
        EXPECT_EQ(dense.second.bits, listed.second.bits) << label;
      }
    }
  }
  {
    Network serial(g);
    EXPECT_EQ(serial.cross_shard_traffic().messages, 0u);
    EXPECT_EQ(serial.cross_shard_traffic().bits, 0u);
  }
}

TEST(Sharded, EngineSelectionAndClamping) {
  const Graph g = gen::ring(8);
  Network net(g);
  net.set_engine(Network::Engine::kSharded, 3);
  EXPECT_EQ(net.engine(), Network::Engine::kSharded);
  EXPECT_EQ(net.threads(), 3u);
  net.set_engine(Network::Engine::kSharded, 100);  // clamped to n
  EXPECT_EQ(net.threads(), 8u);
  net.set_engine(Network::Engine::kSharded, 1);  // serial code path
  EXPECT_EQ(net.threads(), 1u);
  net.set_engine(Network::Engine::kSerial);
  EXPECT_EQ(net.threads(), 1u);
}

TEST(Sharded, DefaultThreadCountHonorsEnv) {
  ASSERT_EQ(setenv("LDC_THREADS", "5", 1), 0);
  EXPECT_EQ(ShardCrew::default_thread_count(), 5u);
  ASSERT_EQ(setenv("LDC_THREADS", "not-a-number", 1), 0);
  EXPECT_GE(ShardCrew::default_thread_count(), 1u);  // falls back to hw
  ASSERT_EQ(setenv("LDC_THREADS", "0", 1), 0);
  EXPECT_GE(ShardCrew::default_thread_count(), 1u);  // 0 is invalid too
  ASSERT_EQ(unsetenv("LDC_THREADS"), 0);
  EXPECT_GE(ShardCrew::default_thread_count(), 1u);
}

TEST(Sharded, DefaultThreadCountRejectsMalformedEnv) {
  // Every malformed value must resolve to the hardware-concurrency default,
  // never to a garbage worker count (strtol's partial parses, negatives,
  // overflow saturation, and absurdly large counts included).
  const unsigned hw = std::thread::hardware_concurrency();
  const std::size_t fallback = hw == 0 ? 1 : hw;
  const char* bad[] = {
      "",      " ",          "-1",  "-0",         "3threads",
      "0x10",  "2.5",        "+ 4", "99999999999999999999",  // > LONG_MAX
      "-9223372036854775808000",                             // < LONG_MIN
      "1e3",   "eight",      "4 ",
      "5000",                                  // beyond the 4096 sanity cap
  };
  for (const char* v : bad) {
    ASSERT_EQ(setenv("LDC_THREADS", v, 1), 0);
    EXPECT_EQ(ShardCrew::default_thread_count(), fallback)
        << "LDC_THREADS=\"" << v << "\"";
  }
  // Boundary values that are valid must still be honored (a parse check
  // only: no crew of 4096 threads is built).
  ASSERT_EQ(setenv("LDC_THREADS", "1", 1), 0);
  EXPECT_EQ(ShardCrew::default_thread_count(), 1u);
  ASSERT_EQ(setenv("LDC_THREADS", "4096", 1), 0);
  EXPECT_EQ(ShardCrew::default_thread_count(), 4096u);
  ASSERT_EQ(unsetenv("LDC_THREADS"), 0);
}

// LDC_SHARDS is parsed strictly, unlike LDC_THREADS' silent fallback: a
// typo must fail loudly instead of silently reshaping the execution.
TEST(Sharded, LdcShardsEnvStrictParsing) {
  const Graph g = gen::ring(12);
  auto resolve = [&]() {
    Network net(g);
    net.set_engine(Network::Engine::kSharded, 0);
    return net.threads();
  };
  for (const char* bad :
       {"banana", "0", "-3", "3x", "1025", "99999999999999999999"}) {
    ASSERT_EQ(setenv("LDC_SHARDS", bad, 1), 0);
    try {
      resolve();
      ADD_FAILURE() << "LDC_SHARDS=" << bad
                    << ": expected std::invalid_argument";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("LDC_SHARDS"), std::string::npos)
          << bad;
    }
  }
  ASSERT_EQ(setenv("LDC_SHARDS", "3", 1), 0);
  EXPECT_EQ(resolve(), 3u);
  ASSERT_EQ(setenv("LDC_SHARDS", "", 1), 0);
  EXPECT_NO_THROW(resolve());  // empty == unset: hardware fallback
  unsetenv("LDC_SHARDS");
}

// When several lanes throw, the lowest lane's exception surfaces: the
// lowest-sender order of a serial loop.
TEST(Sharded, CrewRethrowsTheLowestLane) {
  ShardCrew crew(4);
  try {
    crew.run([&](std::size_t k) {
      if (k == 1) throw std::runtime_error("lane 1");
      if (k == 2) throw std::logic_error("lane 2");
    });
    ADD_FAILURE() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "lane 1");
  }
}

// A throwing job still runs every other lane to the end, and the crew
// takes the next jobs as usual.
TEST(Sharded, CrewUsableAfterException) {
  ShardCrew crew(6);
  std::atomic<int> survivors{0};
  EXPECT_THROW(crew.run([&](std::size_t k) {
                 if (k % 2 == 0) throw std::runtime_error("even lane");
                 survivors.fetch_add(1);
               }),
               std::runtime_error);
  EXPECT_EQ(survivors.load(), 3);  // the non-throwing lanes still ran

  std::atomic<int> after{0};
  for (int i = 0; i < 8; ++i) {
    crew.run([&](std::size_t) { after.fetch_add(1); });
  }
  EXPECT_EQ(after.load(), 48);
}

// A crew whose threads cannot all start must stop and join the ones that
// did, then throw: a joinable std::thread destroyed during the unwind
// would call std::terminate instead. The child caps its address space so
// that only about three of the sixteen thread stacks fit.
TEST(ShardCrewDeathTest, FailedThreadStartThrows) {
  if (!kCanLimitThreadStarts) {
    GTEST_SKIP() << "sanitizer shadow memory defeats RLIMIT_AS";
  }
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_EXIT(
      {
        leave_room_for_thread_stacks(3);
        try {
          ShardCrew crew(16);
        } catch (...) {
          std::_Exit(0);
        }
        std::_Exit(1);  // every thread started: the cap did not bite
      },
      ::testing::ExitedWithCode(0), "");
}

// ------------------------------------------------- partition topology --

TEST(Sharded, PartitionContiguousCoversAndLocates) {
  const Partition p = Partition::contiguous(10, 3);
  ASSERT_EQ(p.shards(), 3u);
  EXPECT_EQ(p.n(), 10u);
  const std::vector<NodeId> want = {0, 4, 7, 10};
  EXPECT_EQ(p.starts(), want);
  for (NodeId v = 0; v < 10; ++v) {
    const std::size_t k = p.shard_of(v);
    EXPECT_GE(v, p.begin(k)) << v;
    EXPECT_LT(v, p.end(k)) << v;
  }
  // More shards than vertices: clamped to one vertex per shard.
  const Partition q = Partition::contiguous(3, 7);
  EXPECT_EQ(q.shards(), 3u);
  for (std::size_t k = 0; k < q.shards(); ++k) {
    EXPECT_EQ(q.end(k) - q.begin(k), 1u) << k;
  }
}

TEST(Sharded, PartitionDegreeBalancedInvariants) {
  const Graph g = gen::gnp(64, 0.1, 3);
  const std::size_t k = 4;
  const Partition p = Partition::degree_balanced(g, k);
  ASSERT_EQ(p.shards(), k);
  EXPECT_EQ(p.starts().front(), 0u);
  EXPECT_EQ(p.starts().back(), g.n());
  std::vector<std::uint64_t> prefix(g.n() + 1, 0);
  for (NodeId v = 0; v < g.n(); ++v) prefix[v + 1] = prefix[v] + g.degree(v);
  for (std::size_t i = 0; i < k; ++i) {
    EXPECT_LT(p.begin(i), p.end(i)) << "shard " << i << " empty";
    if (i > 0) {
      // Boundary sits at the first prefix reaching the ideal target.
      const std::uint64_t target = prefix.back() * i / k;
      EXPECT_GE(prefix[p.begin(i)], target) << i;
      EXPECT_LT(prefix[p.begin(i)] - target, g.max_degree()) << i;
    }
  }
}

TEST(Sharded, ShardTopologyLocalViewMatchesGlobalRows) {
  const Graph g = gen::gnp(30, 0.2, 9);
  ShardTopology t;
  t.build(g, 10, 20);
  EXPECT_EQ(t.owned(), 10u);
  for (std::size_t i = 1; i < t.ghosts.size(); ++i) {
    EXPECT_LT(t.ghosts[i - 1], t.ghosts[i]) << "ghosts not sorted/unique";
  }
  for (const NodeId u : t.ghosts) {
    EXPECT_TRUE(u < 10 || u >= 20) << "owned vertex in the halo: " << u;
  }
  // Every out-of-range neighbour of an owned vertex is a ghost, the
  // ghost edges are exactly those adjacency entries, and the cut senders
  // are the owned vertices that have any, ascending, with their counts.
  std::uint64_t ghost_edges = 0;
  std::vector<CutSender> cut;
  for (NodeId v = 10; v < 20; ++v) {
    std::uint32_t across = 0;
    for (const NodeId u : g.neighbors(v)) {
      if (u >= 10 && u < 20) continue;
      ++ghost_edges;
      ++across;
      EXPECT_TRUE(std::binary_search(t.ghosts.begin(), t.ghosts.end(), u))
          << "neighbour " << u << " of " << v << " missing from the halo";
    }
    if (across != 0) cut.push_back(CutSender{v, across});
  }
  EXPECT_EQ(t.ghost_edges, ghost_edges);
  const std::vector<CutSender> got = cut_senders(g, 10, 20);
  ASSERT_EQ(got.size(), cut.size());
  for (std::size_t i = 0; i < cut.size(); ++i) {
    EXPECT_EQ(got[i].v, cut[i].v) << i;
    EXPECT_EQ(got[i].cut_degree, cut[i].cut_degree) << i;
  }
}

}  // namespace
}  // namespace ldc
