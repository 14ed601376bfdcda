// Distributed-engine equivalence, robustness, and strict-knob contracts.
//
// Engine::kDist runs every communication round in K `ldc_shard` worker
// *processes* talking to a dist::Coordinator over sockets; this file pins
// the contract ISSUE 10 states: colors, model-exact RunMetrics, trace
// digests, and fault decisions byte-identical to kSerial and kSharded
// for every worker count × fault plan × sender list — plus the parts
// only a multi-process engine has: the attach handshake rejects a worker
// whose corpus content digest differs, a SIGKILLed worker surfaces as a
// typed WorkerError naming the shard and round (well inside the
// heartbeat window, with no orphan processes left behind), a SIGSTOPped
// worker trips the heartbeat timeout, a round's CONGEST violation or bad
// sender list throws its own type before any frame leaves, and a bad
// coordinator option (a worker count outside [1, 64], a zero timeout)
// throws std::invalid_argument, never a silent fallback.
#include <gtest/gtest.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include <fcntl.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include "ldc/arb/beg_arbdefective.hpp"
#include "ldc/baselines/kw_reduction.hpp"
#include "ldc/baselines/luby.hpp"
#include "ldc/coloring/instance_gen.hpp"
#include "ldc/dist/coordinator.hpp"
#include "ldc/dist/wire.hpp"
#include "ldc/graph/generators.hpp"
#include "ldc/coloring/validate.hpp"
#include "ldc/linial/defective_linial.hpp"
#include "ldc/linial/linial.hpp"
#include "ldc/repair/repair.hpp"
#include "ldc/resilient/drivers.hpp"
#include "ldc/runtime/network.hpp"
#include "ldc/storage/corpus.hpp"
#include "ldc/support/prf.hpp"
#include "arbdefective_reference.hpp"
#include "kw_reference.hpp"
#include "repair_reference.hpp"
#include "round_reference.hpp"
#include "survivor_lists.hpp"

namespace ldc {
namespace {

using dist::AttachError;
using dist::Coordinator;
using dist::CoordinatorOptions;
using dist::WorkerError;

/// Unique corpus path under the test temp dir, removed on destruction.
class TempCorpus {
 public:
  explicit TempCorpus(const std::string& tag)
      : path_(testing::TempDir() + "dist_corpus_" + tag + ".ldcg") {
    std::remove(path_.c_str());
  }
  ~TempCorpus() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// Streams an in-RAM graph through the corpus writer (identity ids — the
/// workers mmap this file, so every engine must run over the same view).
void write_graph(const Graph& g, const std::string& path) {
  storage::CorpusWriter w(path, g.n(), /*with_ids=*/false);
  for (NodeId v = 0; v < g.n(); ++v) w.add_vertex(g.neighbors(v));
  w.close();
}

/// write_graph() keeping g's ids, which the corpus stores as 64 bits.
void write_graph_with_ids(const Graph& g, const std::string& path) {
  storage::CorpusWriter w(path, g.n(), /*with_ids=*/true);
  for (NodeId v = 0; v < g.n(); ++v) w.add_vertex(g.neighbors(v), g.id(v));
  w.close();
}

/// Path of the built ldc_shard binary, resolved the same way the
/// coordinator's spawn mode does (test binaries live in build/tests/,
/// ldc_shard in build/src/).
std::string shard_binary() {
  if (const char* env = std::getenv("LDC_SHARD_BIN");
      env != nullptr && *env != '\0') {
    return env;
  }
  char buf[4096];
  const ssize_t len = ::readlink("/proc/self/exe", buf, sizeof buf - 1);
  if (len <= 0) return "ldc_shard";
  buf[len] = '\0';
  std::string dir(buf);
  dir = dir.substr(0, dir.find_last_of('/'));
  for (const std::string& cand :
       {dir + "/ldc_shard", dir + "/../src/ldc_shard"}) {
    if (::access(cand.c_str(), X_OK) == 0) return cand;
  }
  return "ldc_shard";
}

// An engine selection applied to a fresh Network; "serial" is the
// reference. The dist selection attaches a live Coordinator, so the same
// worker processes serve every run the sweep binds to them.
struct EngineSel {
  std::string name;
  std::function<void(Network&)> apply;
};

EngineSel dist_sel(Coordinator& coord) {
  return {"dist@" + std::to_string(coord.shards()),
          [&coord](Network& net) { net.attach_dist(&coord); }};
}

struct EngineRun {
  Coloring phi;
  RunMetrics metrics;
  std::uint64_t trace_digest = 0;
  std::vector<Trace::Round> rounds;
};

using Colorer = std::function<Coloring(Network&)>;

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
    EXPECT_EQ(a.faults.dropped, b.faults.dropped) << label << " round " << i;
    EXPECT_EQ(a.faults.corrupted, b.faults.corrupted)
        << label << " round " << i;
    EXPECT_EQ(a.faults.crashes, b.faults.crashes) << label << " round " << i;
  }
}

struct NamedColorer {
  std::string name;
  Colorer run;
};

// Colorer coverage across the mail lanes: linial (fused word rounds),
// defective linial (masked message broadcasts), Luby (message broadcasts
// under randomness), linial+kw (long masked word pipelines).
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
  return cs;
}

TEST(Dist, EveryColorerEveryWorkerCountMatchesSerialAndSharded) {
  struct NamedGraph {
    std::string name;
    Graph g;
  };
  std::vector<NamedGraph> graphs;
  graphs.push_back({"gnp60", gen::gnp(60, 0.2, 11)});
  graphs.push_back({"ring49", gen::ring(49)});
  const EngineSel serial{"serial", [](Network&) {}};
  for (const auto& ng : graphs) {
    TempCorpus tc("equiv_" + ng.name);
    write_graph(ng.g, tc.path());
    for (std::size_t workers : {1u, 2u, 4u}) {
      CoordinatorOptions opt;
      opt.workers = workers;
      Coordinator coord(tc.path(), opt);
      ASSERT_EQ(coord.shards(), workers);
      // One coordinator (same worker processes) serves every colorer:
      // re-binding must fully reset the distributed state.
      for (const auto& colorer : colorer_mix(ng.g)) {
        const EngineRun ref = run_with_engine(ng.g, serial, colorer.run);
        const EngineSel sharded{
            "sharded@" + std::to_string(workers), [workers](Network& net) {
              net.set_engine(Network::Engine::kSharded, workers);
            }};
        const EngineRun in_proc =
            run_with_engine(ng.g, sharded, colorer.run);
        const EngineRun got =
            run_with_engine(coord.corpus_graph(), dist_sel(coord),
                            colorer.run);
        const std::string label =
            colorer.name + " on " + ng.name + " @dist" +
            std::to_string(workers);
        expect_equivalent(ref, got, label);
        expect_equivalent(in_proc, got, label + " (vs sharded)");
      }
    }
  }
}

// Named fault plans; rates aggressive enough that every fault process
// fires on the small test graphs (same seeds as tests/test_sharded.cpp).
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
  out.rounds = trace.rounds();
  return out;
}

// The fault context crosses the wire once per round (coordinator-resolved
// down bitmap + PRF plan); every worker must re-resolve drop/corrupt
// decisions exactly as the round oracle does.
TEST(Dist, FaultPlansMatchSerial) {
  const Graph g = gen::gnp(60, 0.2, 11);
  TempCorpus tc("faults");
  write_graph(g, tc.path());
  for (std::size_t workers : {1u, 2u, 4u}) {
    CoordinatorOptions opt;
    opt.workers = workers;
    Coordinator coord(tc.path(), opt);
    for (const auto& [plan_name, plan] : fault_plan_mix()) {
      RoundReference ref(g, &plan);
      std::vector<std::uint64_t> want;
      for (std::uint64_t r = 0; r < 6; ++r) {
        const auto flat =
            flat_deliveries(ref.broadcast(faulty_round_payloads(g.n(), r)));
        want.insert(want.end(), flat.begin(), flat.end());
      }
      EXPECT_GT(ref.metrics().messages_dropped +
                    ref.metrics().messages_corrupted +
                    ref.metrics().node_crashes + ref.metrics().node_sleeps,
                0u)
          << plan_name;
      const FaultyRun got =
          run_faulty_rounds(coord.corpus_graph(), dist_sel(coord), plan);
      const std::string label = plan_name + " @dist" + std::to_string(workers);
      EXPECT_EQ(want, got.inbox_flat)
          << label << ": delivered payloads differ";
      expect_reference_accounting(ref, got.metrics, got.rounds, label);
    }
  }
}

// Under kDist too, arbdefective_color counts a neighbour's color only
// when the proposal reached it (the in-process engines are checked in
// test_arb.cpp against the same replay).
TEST(Dist, ArbdefectiveLearnsColorsOnlyFromItsMail) {
  const Graph g = gen::random_regular(60, 8, 1);
  TempCorpus tc("arb_mail");
  write_graph(g, tc.path());
  arb::ArbdefectiveOptions opt;
  opt.defect = 1;
  opt.colors = g.max_degree() / (opt.defect + 1) + 1;
  FaultPlan plan;
  plan.seed = 101;
  plan.drop_rate = 0.2;
  const Coloring expect = arbdefective_reference(g, opt, plan);
  ASSERT_NE(expect, arbdefective_reference(g, opt, plan,
                                           /*count_unheard=*/true));
  CoordinatorOptions copt;
  copt.workers = 2;
  Coordinator coord(tc.path(), copt);
  Network net(coord.corpus_graph());
  net.attach_dist(&coord);
  net.attach_faults(&plan);
  EXPECT_EQ(arb::arbdefective_color(net, opt).phi, expect);
  EXPECT_GT(net.metrics().messages_dropped, 0u);
}

// Repair hears contention only from its mail under kDist too (the
// in-process engines are checked in test_repair.cpp against the same
// replay).
TEST(Dist, RepairHearsContentionOnlyFromItsMail) {
  const Graph g = gen::random_regular(60, 8, 1);
  TempCorpus tc("repair_mail");
  write_graph(g, tc.path());
  const LdcInstance inst = delta_plus_one_instance(g);
  FaultPlan plan;
  plan.seed = 101;
  plan.drop_rate = 0.2;
  repair::Options opt;
  opt.max_rounds = 24;
  const Coloring start(g.n(), kUncolored);
  const Coloring expect = repair_reference(inst, start, opt, plan);
  ASSERT_NE(expect, repair_reference(inst, start, opt, plan,
                                     /*contention_from_state=*/true));
  CoordinatorOptions copt;
  copt.workers = 2;
  Coordinator coord(tc.path(), copt);
  Network net(coord.corpus_graph());
  net.attach_dist(&coord);
  net.attach_faults(&plan);
  EXPECT_EQ(repair::repair(net, inst, start, opt).phi, expect);
  EXPECT_GT(net.metrics().messages_dropped, 0u);
}

// Linial keeps 64-bit ids under kDist: the corpus stores them whole, and
// neighbours whose ids agree mod 2^32 still get different colours, the
// same ones as on the serial engine.
TEST(Dist, LinialKeepsSixtyFourBitIds) {
  Graph ring = gen::ring(16);
  std::vector<std::uint64_t> ids(16);
  for (NodeId v = 0; v < 16; ++v) {
    ids[v] = (v / 2) + (v % 2 == 1 ? std::uint64_t{1} << 32 : 0);
  }
  ring.set_ids(std::move(ids));
  Graph pair = gen::path(2);
  pair.set_ids({5, (std::uint64_t{1} << 40) + 5});
  for (const Graph* g : {&ring, &pair}) {
    TempCorpus tc("linial_ids" + std::to_string(g->n()));
    write_graph_with_ids(*g, tc.path());
    Network serial(*g);
    const linial::Result want = linial::color(serial);
    CoordinatorOptions copt;
    copt.workers = 2;
    Coordinator coord(tc.path(), copt);
    Network net(coord.corpus_graph());
    net.attach_dist(&coord);
    const linial::Result got = linial::color(net);
    EXPECT_TRUE(validate_proper(*g, got.phi).ok) << "n " << g->n();
    EXPECT_EQ(got.phi, want.phi) << "n " << g->n();
    EXPECT_EQ(got.palette, want.palette) << "n " << g->n();
  }
  // An id of 2^64 - 1 puts the id palette beyond the id space: the same
  // typed overflow under kDist as on the in-process engines.
  Graph top = gen::path(2);
  top.set_ids({0, std::numeric_limits<std::uint64_t>::max()});
  TempCorpus tc("linial_ids_top");
  write_graph_with_ids(top, tc.path());
  CoordinatorOptions copt;
  copt.workers = 2;
  Coordinator coord(tc.path(), copt);
  Network net(coord.corpus_graph());
  net.attach_dist(&coord);
  EXPECT_THROW(linial::color(net), std::overflow_error);
  EXPECT_THROW(resilient::resilient_linial(net), std::overflow_error);
}

// kw_reduce's renumber-on-read, its class rounds on 2 worker processes,
// picks the colours the eager reference picks on the serial engine, in
// the same rounds, under drops and corruption.
TEST(Dist, KwMatchesTheEagerReferenceUnderFaults) {
  const Graph g = gen::random_regular(300, 8, 5);
  TempCorpus tc("kw_eager");
  write_graph(g, tc.path());
  Coloring initial(g.n());
  for (NodeId v = 0; v < g.n(); ++v) initial[v] = v * 1009 + 17;
  const std::uint64_t m = std::uint64_t{g.n()} * 1009 + 17;
  FaultPlan plan;
  plan.seed = 0x6b77;
  plan.drop_rate = 0.1;
  plan.corrupt_rate = 0.05;
  Network serial(g);
  Trace want_trace;
  serial.attach_trace(&want_trace);
  serial.attach_faults(&plan);
  const baselines::KwResult want = kw_reference(serial, initial, m);
  CoordinatorOptions copt;
  copt.workers = 2;
  Coordinator coord(tc.path(), copt);
  Network net(coord.corpus_graph());
  net.attach_dist(&coord);
  Trace got_trace;
  net.attach_trace(&got_trace);
  net.attach_faults(&plan);
  const baselines::KwResult got = baselines::kw_reduce(net, initial, m);
  EXPECT_EQ(got.phi, want.phi);
  EXPECT_EQ(got.palette, want.palette);
  EXPECT_TRUE(net.metrics().same_communication(serial.metrics()));
  EXPECT_EQ(got_trace.digest(), want_trace.digest());
  EXPECT_GT(net.metrics().messages_corrupted, 0u);
}

// The broadcast and the word path under kDist deliver what the round
// oracle says — with and without a sender list, with and without faults.
// Dense rounds stay coordinator-local and fill nothing; rounds that list
// their senders or carry faults take the kBcast / kInboxIds exchange, and
// the coordinator rebuilds the slots.
TEST(Dist, BroadcastAndWordPathsMatchSerialReference) {
  const Graph g = gen::gnp(48, 0.25, 34);
  TempCorpus tc("bcast");
  write_graph(g, tc.path());
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
  auto run = [&](Coordinator& coord, SenderList senders,
                 const FaultPlan* faults, bool fused) {
    Network net(coord.corpus_graph());
    net.attach_dist(&coord);
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
  for (std::size_t workers : {1u, 2u, 4u}) {
    CoordinatorOptions opt;
    opt.workers = workers;
    Coordinator coord(tc.path(), opt);
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
          const Flat got = run(coord, senders, faults, fused);
          const std::string label =
              std::string(fused ? "fused" : "broadcast") + "/" + mask_name +
              (faults != nullptr ? "+faults" : "") + " @dist" +
              std::to_string(workers);
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
  CoordinatorOptions opt;
  opt.workers = 2;
  Coordinator coord(tc.path(), opt);
  Network net(coord.corpus_graph());
  net.attach_dist(&coord);
  net.attach_faults(&corrupt);
  const WordMail in = net.exchange_broadcast_word(zeros, 0);
  for (NodeId v = 0; v < g.n(); ++v) {
    for (const auto [sender, word] : in[v]) {
      EXPECT_EQ(word, 0u) << sender << " -> " << v;
    }
  }
  EXPECT_GT(net.metrics().messages_corrupted, 0u);
}

// A listed word round ships sender ids, not words, and costs its traffic,
// not n: the sender list goes out (kBcast), and the non-empty rows come
// back as (receiver, count) pairs with their sender ids (kInboxIds). So
// one sender with the same neighbourhood (ring vertex 1: neighbours 0 and
// 2, in the first worker's range) moves the same wire bytes on 400 and on
// 4,000 vertices, exactly the bytes of the message broadcast round with
// the same list, and less than one 8-byte word per vertex.
TEST(Dist, MaskedWordRoundShipsSenderIdsNotWords) {
  const std::uint64_t bound = 499;
  std::vector<std::uint64_t> bytes;
  for (const NodeId n : {NodeId{400}, NodeId{4000}}) {
    const Graph g = gen::ring(n);
    TempCorpus tc("masked_words" + std::to_string(n));
    write_graph(g, tc.path());
    const std::vector<std::uint64_t> words(g.n(), 7);
    std::vector<BitWriter> msgs(g.n());
    {
      BitWriter w;
      w.write_bounded(7, bound);
      for (BitWriter& m : msgs) m = w;
    }
    const std::vector<NodeId> one = {1};
    CoordinatorOptions opt;
    opt.workers = 2;
    Coordinator coord(tc.path(), opt);
    Network net(coord.corpus_graph());
    net.attach_dist(&coord);
    auto wire_bytes = [&](const std::function<void()>& round) {
      const dist::WireStats before = coord.wire_stats();
      round();
      const dist::WireStats after = coord.wire_stats();
      return (after.bytes_sent - before.bytes_sent) +
             (after.bytes_received - before.bytes_received);
    };
    const std::uint64_t word_bytes = wire_bytes(
        [&] { (void)net.exchange_broadcast_word(words, bound, one); });
    const std::uint64_t msg_bytes =
        wire_bytes([&] { (void)net.exchange_broadcast(msgs, one); });
    EXPECT_GT(word_bytes, 0u) << n;
    EXPECT_EQ(word_bytes, msg_bytes) << n;
    EXPECT_LT(word_bytes, 8u * g.n()) << n;
    bytes.push_back(word_bytes);
  }
  EXPECT_EQ(bytes[0], bytes[1]);
}

// The logical cross-shard counters are engine-independent observability:
// kDist over K processes must report exactly what the in-process sharded
// engine reports for the same K — the wire adds frames and headers, never
// logical traffic.
TEST(Dist, CrossShardTrafficMatchesShardedEngine) {
  const Graph g = gen::gnp(60, 0.2, 11);
  TempCorpus tc("traffic");
  write_graph(g, tc.path());
  auto run_linial = [](Network& net) { linial::color(net); };
  for (std::size_t workers : {2u, 4u}) {
    Network sharded(g);
    sharded.set_engine(Network::Engine::kSharded, workers);
    run_linial(sharded);
    const ShardTraffic want = sharded.cross_shard_traffic();

    CoordinatorOptions opt;
    opt.workers = workers;
    Coordinator coord(tc.path(), opt);
    Network net(coord.corpus_graph());
    net.attach_dist(&coord);
    run_linial(net);
    const ShardTraffic got = net.cross_shard_traffic();
    EXPECT_EQ(want.messages, got.messages) << workers << " workers";
    EXPECT_EQ(want.bits, got.bits) << workers << " workers";
    // The physical wire actually moved frames (attach handshake at
    // minimum), and the counters reconcile sent vs received directions.
    const dist::WireStats ws = coord.wire_stats();
    EXPECT_GT(ws.frames_sent, 0u);
    EXPECT_GT(ws.frames_received, 0u);
    EXPECT_GT(ws.bytes_sent, ws.frames_sent * dist::kFrameHeaderBytes - 1);
  }

  // A dense round (no sender list, no faults) moves no frame and prices
  // its cut from the partition; the same round with every node listed
  // takes the kBcast / kInboxIds exchange. Both deliver what the sharded
  // engine delivers and count the cut it counts, for mixed payload widths
  // and for words.
  const std::vector<BitWriter> msgs = mixed_width_payloads(g.n());
  std::vector<std::uint64_t> words(g.n());
  for (NodeId v = 0; v < g.n(); ++v) words[v] = hash_combine(0x77, v) % 500;
  const std::vector<NodeId> every = every_node(g.n());
  CoordinatorOptions opt;
  opt.workers = 2;
  Coordinator coord(tc.path(), opt);
  for (const bool word_round : {false, true}) {
    auto round = [&](Network& net, SenderList senders) {
      return word_round
                 ? flat_lanes(net.exchange_broadcast_word(words, 499, senders))
                 : flat_deliveries(net.exchange_broadcast(msgs, senders));
    };
    for (const bool listed : {false, true}) {
      const SenderList senders =
          listed ? SenderList(every) : SenderList(std::nullopt);
      const std::string label = std::string(word_round ? "words" : "msgs") +
                                (listed ? "/every" : "/dense");
      Network sharded(g);
      sharded.set_engine(Network::Engine::kSharded, 2);
      const std::vector<std::uint64_t> want = round(sharded, senders);
      Network net(coord.corpus_graph());
      net.attach_dist(&coord);
      const dist::WireStats before = coord.wire_stats();
      EXPECT_EQ(round(net, senders), want) << label;
      const dist::WireStats after = coord.wire_stats();
      EXPECT_EQ(after.frames_sent == before.frames_sent, !listed) << label;
      EXPECT_EQ(after.bytes_received == before.bytes_received, !listed)
          << label;
      EXPECT_EQ(net.arena().dense(), !listed) << label;
      EXPECT_GT(net.cross_shard_traffic().messages, 0u) << label;
      EXPECT_EQ(net.cross_shard_traffic().messages,
                sharded.cross_shard_traffic().messages)
          << label;
      EXPECT_EQ(net.cross_shard_traffic().bits,
                sharded.cross_shard_traffic().bits)
          << label;
    }
  }
}

// ---------------------------------------------------------- robustness --

/// True when the test process has no child left to reap.
bool no_children() {
  errno = 0;
  return ::waitpid(-1, nullptr, WNOHANG) == -1 && errno == ECHILD;
}

/// A /bin/sh stand-in for ldc_shard, for CoordinatorOptions::shard_binary:
/// it runs the real worker over `corpus`, whatever corpus the coordinator
/// names, on the socket the coordinator hands it (fd 3), then writes the
/// worker's exit status to a file. The coordinator reaps the wrapper, so
/// the test reads the worker's status from that file, not from waitpid.
class ShardWrapper {
 public:
  ShardWrapper(const std::string& tag, const std::string& corpus)
      : path_(testing::TempDir() + "ldc_shard_wrapper_" + tag + ".sh"),
        status_(testing::TempDir() + "ldc_shard_wrapper_" + tag + ".status") {
    std::remove(status_.c_str());
    std::ofstream f(path_);
    f << "#!/bin/sh\n"
      << "'" << shard_binary() << "' --corpus '" << corpus << "' --fd 3\n"
      << "echo $? > '" << status_ << "'\n";
    f.close();
    ::chmod(path_.c_str(), 0755);
  }
  ~ShardWrapper() {
    std::remove(path_.c_str());
    std::remove(status_.c_str());
  }
  const std::string& path() const { return path_; }

  /// The worker's exit status, or -1 while no status has been written.
  int worker_status() const {
    std::ifstream f(status_);
    int status = -1;
    f >> status;
    return f ? status : -1;
  }

 private:
  std::string path_;
  std::string status_;
};

// A worker serving a DIFFERENT corpus (same n, different edges, so only
// the content digest can tell) must be rejected at attach with a typed
// AttachError — before any round runs over mismatched adjacency.
TEST(Dist, AttachRejectsCorpusContentDigestMismatch) {
  const Graph a = gen::gnp(40, 0.2, 11);
  const Graph b = gen::gnp(40, 0.2, 12);  // same n, different digest
  TempCorpus ca("attach_a"), cb("attach_b");
  write_graph(a, ca.path());
  write_graph(b, cb.path());

  const std::string bin = shard_binary();
  ASSERT_EQ(::access(bin.c_str(), X_OK), 0) << "ldc_shard not found at "
                                            << bin;
  // The coordinator maps corpus a; its worker runs with the WRONG one.
  const ShardWrapper wrong("attach", cb.path());
  CoordinatorOptions opt;
  opt.workers = 1;
  opt.shard_binary = wrong.path();
  opt.attach_timeout_ms = 10000;
  try {
    Coordinator coord(ca.path(), opt);
    ADD_FAILURE() << "expected AttachError on corpus digest mismatch";
  } catch (const AttachError& e) {
    EXPECT_NE(std::string(e.what()).find("digest mismatch"),
              std::string::npos)
        << e.what();
  }
  ASSERT_NE(wrong.worker_status(), -1) << "the worker did not exit";
  // The failed attach reaps its worker behind itself.
  EXPECT_TRUE(no_children()) << "worker process leaked";
}

// The coordinator verifies the corpus while its workers start: a corpus
// altered after writing (one adjacency byte) is the same CorpusError it
// was when the verify ran before the spawn, and the workers already
// started are reaped before it propagates.
TEST(Dist, CorruptCorpusFailsTheAttachAndLeavesNoWorker) {
  const Graph g = gen::gnp(40, 0.2, 13);
  TempCorpus tc("flipped");
  write_graph(g, tc.path());
  {
    // The file ends with the adjacency section's last entry.
    std::fstream f(tc.path(), std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(-1, std::ios::end);
    char c = 0;
    f.get(c);
    f.seekp(-1, std::ios::end);
    f.put(static_cast<char>(c ^ 0x40));
  }
  CoordinatorOptions opt;
  opt.workers = 2;
  EXPECT_THROW(Coordinator(tc.path(), opt), storage::CorpusError);
  EXPECT_TRUE(no_children());
}

// A worker checks its corpus content right after its HELLO, before it
// reads any frame: a worker holding a copy of the corpus altered after
// writing (its header, and so the digest it announces, intact) ends
// before the attach completes, an AttachError, and never serves a round.
TEST(Dist, WorkerVerifiesItsCorpusBeforeServingARound) {
  const Graph g = gen::gnp(40, 0.2, 14);
  TempCorpus good("verify_good"), bad("verify_bad");
  write_graph(g, good.path());
  write_graph(g, bad.path());
  {
    std::fstream f(bad.path(), std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(-1, std::ios::end);
    char c = 0;
    f.get(c);
    f.seekp(-1, std::ios::end);
    f.put(static_cast<char>(c ^ 0x40));
  }
  // The coordinator maps the good copy; its worker maps the bad one.
  const ShardWrapper corrupt("verify", bad.path());
  CoordinatorOptions opt;
  opt.workers = 1;
  opt.shard_binary = corrupt.path();
  bool rejected = false;
  try {
    Coordinator coord(good.path(), opt);
    Network net(coord.corpus_graph());
    net.attach_dist(&coord);
    (void)net.exchange_broadcast_word(std::vector<std::uint64_t>(g.n(), 1), 1,
                                      std::vector<NodeId>{0});
  } catch (const AttachError&) {
    rejected = true;
  }
  EXPECT_TRUE(rejected);
  const int status = corrupt.worker_status();
  ASSERT_NE(status, -1) << "the worker did not exit";
  EXPECT_EQ(status, 1) << status;
}

// A worker binary that cannot be started is an AttachError naming it, at
// the spawn, and the workers started before it are reaped.
TEST(Dist, UnstartableWorkerBinaryIsAnAttachErrorNamingIt) {
  const Graph g = gen::ring(16);
  TempCorpus tc("no_exec");
  write_graph(g, tc.path());
  const std::string bin = testing::TempDir() + "ldc_shard_not_executable";
  {
    std::ofstream f(bin);
    f << "not a program\n";
  }
  ASSERT_EQ(::chmod(bin.c_str(), 0644), 0);
  CoordinatorOptions opt;
  opt.workers = 2;
  opt.shard_binary = bin;
  try {
    Coordinator coord(tc.path(), opt);
    ADD_FAILURE() << "expected AttachError for a non-executable binary";
  } catch (const AttachError& e) {
    EXPECT_NE(std::string(e.what()).find(bin), std::string::npos)
        << e.what();
  }
  std::remove(bin.c_str());
  EXPECT_TRUE(no_children());
}

/// Milliseconds from telling k bare ldc_shard workers, each through its
/// start (its hello read), to shut down until the last one is reaped,
/// each waited for without polling: the floor under any teardown, which
/// sanitizer runtimes raise well past a release build's.
double bare_worker_exit_ms(const std::string& corpus, int k) {
  const std::string bin = shard_binary();
  std::vector<std::pair<pid_t, int>> workers;
  for (int i = 0; i < k; ++i) {
    int sv[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, sv) != 0) {
      ADD_FAILURE() << "socketpair failed";
      return 0;
    }
    const pid_t pid = ::fork();
    if (pid == 0) {
      if (sv[1] == 3) {
        (void)::fcntl(3, F_SETFD, 0);
      } else {
        ::dup2(sv[1], 3);
      }
      ::execl(bin.c_str(), "ldc_shard", "--corpus", corpus.c_str(), "--fd",
              "3", static_cast<char*>(nullptr));
      ::_exit(127);
    }
    ::close(sv[1]);
    dist::FrameReader reader;
    EXPECT_TRUE(dist::read_frame_fd(sv[0], reader).has_value());  // hello
    workers.emplace_back(pid, sv[0]);
  }
  const auto t0 = std::chrono::steady_clock::now();
  for (const auto& [pid, fd] : workers) {
    dist::write_all_fd(
        fd, dist::encode_frame(dist::FrameKind::kShutdown, 0, 0, 0, 0, {}),
        "test");
    ::close(fd);
  }
  for (const auto& [pid, fd] : workers) ::waitpid(pid, nullptr, 0);
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

// A coordinator's teardown reaps its workers as they exit. The median of
// 9 teardowns of a 2-worker coordinator stays within 8 ms of the median
// time 2 bare workers take to exit (well under 1 ms in a release build):
// a fixed 10 ms sleep between reaping polls would floor every teardown.
TEST(Dist, TeardownReapsWorkersWithoutAFixedSleep) {
  const Graph g = gen::ring(64);
  TempCorpus tc("teardown");
  write_graph(g, tc.path());
  std::vector<double> teardown;
  std::vector<double> exits;
  for (int i = 0; i < 9; ++i) {
    CoordinatorOptions opt;
    opt.workers = 2;
    auto coord = std::make_unique<Coordinator>(tc.path(), opt);
    const auto t0 = std::chrono::steady_clock::now();
    coord.reset();
    teardown.push_back(std::chrono::duration<double, std::milli>(
                           std::chrono::steady_clock::now() - t0)
                           .count());
    exits.push_back(bare_worker_exit_ms(tc.path(), 2));
  }
  std::sort(teardown.begin(), teardown.end());
  std::sort(exits.begin(), exits.end());
  EXPECT_LT(teardown[4], exits[4] + 8.0)
      << "median teardown vs median bare worker exit, ms";
  EXPECT_TRUE(no_children());
}

// kill -9 one worker mid-run: the next round must fail with a typed
// WorkerError naming the dead shard and the round — detected via EOF,
// i.e. well inside the heartbeat window — and the coordinator teardown
// must leave no orphan worker processes behind. The rounds list every
// other node: a dense round sends no frame, so it never meets a worker.
TEST(Dist, WorkerKilledMidRunYieldsTypedErrorNamingShardAndRound) {
  const Graph g = gen::gnp(40, 0.2, 21);
  TempCorpus tc("kill");
  write_graph(g, tc.path());
  std::vector<pid_t> pids;
  {
    CoordinatorOptions opt;
    opt.workers = 3;
    opt.heartbeat_ms = 60000;  // EOF detection must not need the timeout
    Coordinator coord(tc.path(), opt);
    pids = coord.worker_pids();
    ASSERT_EQ(pids.size(), 3u);
    for (const pid_t p : pids) ASSERT_GT(p, 0);

    Network net(coord.corpus_graph());
    net.attach_dist(&coord);
    std::vector<BitWriter> msgs(g.n());
    std::vector<NodeId> every_other;
    for (NodeId u = 0; u < g.n(); ++u) {
      msgs[u].write(u, 24);
      if (u % 2 == 0) every_other.push_back(u);
    }
    auto round = [&] { return net.exchange_broadcast(msgs, every_other); };
    EXPECT_EQ(round().size(), g.n());  // one clean round first

    ASSERT_EQ(::kill(pids[1], SIGKILL), 0);
    const auto t0 = std::chrono::steady_clock::now();
    try {
      round();
      ADD_FAILURE() << "expected WorkerError after SIGKILL";
    } catch (const WorkerError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("shard 1"), std::string::npos) << what;
      EXPECT_NE(what.find("round 1"), std::string::npos) << what;
      EXPECT_NE(what.find("died"), std::string::npos) << what;
    }
    const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
        std::chrono::steady_clock::now() - t0);
    EXPECT_LT(elapsed.count(), 10000) << "EOF detection took too long";
  }
  // Coordinator destroyed: every worker (including the killed one) must
  // be reaped — no orphans, no zombies.
  for (const pid_t p : pids) {
    EXPECT_EQ(::kill(p, 0), -1) << "worker " << p << " still alive";
    EXPECT_EQ(errno, ESRCH) << "worker " << p;
  }
}

// A hung (SIGSTOPped) worker never closes its socket, so only the
// heartbeat window can catch it: a listed round (every other node) must
// abort with a WorkerError naming the silent shard within ~the configured
// window.
TEST(Dist, HungWorkerTripsHeartbeatTimeout) {
  const Graph g = gen::ring(24);
  TempCorpus tc("hang");
  write_graph(g, tc.path());
  CoordinatorOptions opt;
  opt.workers = 2;
  opt.heartbeat_ms = 300;
  Coordinator coord(tc.path(), opt);
  const std::vector<pid_t> pids = coord.worker_pids();
  Network net(coord.corpus_graph());
  net.attach_dist(&coord);

  ASSERT_EQ(::kill(pids[0], SIGSTOP), 0);
  std::vector<BitWriter> msgs(g.n());
  std::vector<NodeId> every_other;
  for (NodeId u = 0; u < g.n(); ++u) {
    msgs[u].write(1, 1);
    if (u % 2 == 0) every_other.push_back(u);
  }
  const auto t0 = std::chrono::steady_clock::now();
  try {
    net.exchange_broadcast(msgs, every_other);
    ADD_FAILURE() << "expected WorkerError on heartbeat timeout";
  } catch (const WorkerError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("shard 0"), std::string::npos) << what;
    EXPECT_NE(what.find("heartbeat"), std::string::npos) << what;
  }
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - t0);
  EXPECT_GE(elapsed.count(), 250) << "gave up before the window";
  EXPECT_LT(elapsed.count(), 5000) << "timeout far past the window";
  ASSERT_EQ(::kill(pids[0], SIGCONT), 0);  // let shutdown run cleanly
}

// Every error a round can raise throws in the Network, before any frame
// leaves, with the type the in-process engines throw: a strict CONGEST
// violation as CongestViolation, a bad sender list as
// std::invalid_argument. The wire stays silent, and the next round runs
// on the same workers.
TEST(Dist, WorkerErrorsKeepTheirTypesAcrossTheWire) {
  const Graph g = gen::ring(16);
  TempCorpus tc("typed");
  write_graph(g, tc.path());
  CoordinatorOptions opt;
  opt.workers = 2;
  Coordinator coord(tc.path(), opt);
  const std::vector<pid_t> pids = coord.worker_pids();
  Network net(coord.corpus_graph(), /*budget_bits=*/4, /*strict=*/true);
  net.attach_dist(&coord);
  auto wire = [&] {
    const dist::WireStats w = coord.wire_stats();
    return std::vector<std::uint64_t>{w.frames_sent, w.frames_received,
                                      w.bytes_sent, w.bytes_received};
  };
  std::vector<BitWriter> msgs(g.n());
  for (BitWriter& m : msgs) m.write(1, 2);
  const std::vector<NodeId> some = {0, 5, 11};
  {
    std::vector<BitWriter> wide = msgs;
    wide[5].clear();
    wide[5].write(0, 9);  // 9 bits > 4-bit budget
    const auto before = wire();
    EXPECT_THROW(net.exchange_broadcast(wide, some), CongestViolation);
    EXPECT_EQ(wire(), before);
  }
  {
    const std::vector<NodeId> unsorted = {5, 0};
    const auto before = wire();
    EXPECT_THROW(net.exchange_broadcast(msgs, unsorted),
                 std::invalid_argument);
    EXPECT_EQ(wire(), before);
  }
  const auto before = wire();
  const RoundMail in = net.exchange_broadcast(msgs, some);
  ASSERT_EQ(in[1].size(), 1u);
  EXPECT_EQ(in[1][0].sender, 0u);
  EXPECT_GT(wire()[0], before[0]);
  EXPECT_EQ(coord.worker_pids(), pids);
}

// The post-throw contract every engine shares: a round's accounting is
// staged and merged only once the whole round succeeded, so a round that
// throws — a strict CONGEST violation, on exchange_broadcast or the fused
// word round — leaves the RunMetrics traffic fields exactly as they were
// before it. Every bad round below has well-formed senders ahead of the
// offender, whose traffic a partial accounting would have leaked. The
// next round, a listed one that fills slots (and sends frames under
// kDist), still runs, accounts normally and lands the same inboxes as the
// good round before the throw.
TEST(Dist, ThrowingRoundLeavesTrafficMetricsUnchangedOnEveryEngine) {
  const Graph g = gen::ring(16);
  TempCorpus tc("post_throw");
  write_graph(g, tc.path());
  CoordinatorOptions opt;
  opt.workers = 2;
  Coordinator coord(tc.path(), opt);
  const Graph& cg = coord.corpus_graph();
  const NodeId n = cg.n();

  auto msg = [](std::uint64_t value, int bits) {
    BitWriter w;
    w.write(value, bits);
    return w;
  };
  // The good round: every node but 11 broadcasts a 2-bit message.
  std::vector<BitWriter> good_msgs(n);
  std::vector<NodeId> good_senders;
  for (NodeId u = 0; u < n; ++u) {
    good_msgs[u] = msg(u & 3, 2);
    if (u != 11) good_senders.push_back(u);
  }
  auto good_round = [&](Network& net) {
    return flat_deliveries(net.exchange_broadcast(good_msgs, good_senders));
  };
  struct BadRound {
    std::string name;
    std::function<void(Network&)> run;
  };
  std::vector<BitWriter> wide = good_msgs;
  wide[11] = msg(0, 9);  // 9 bits > 4-bit budget
  const std::vector<NodeId> every = every_node(n);
  const std::vector<BadRound> bad_rounds = {
      {"broadcast/strict-congest",
       [&](Network& net) { (void)net.exchange_broadcast(wide); }},
      {"listed-broadcast/strict-congest",
       [&](Network& net) { (void)net.exchange_broadcast(wide, every); }},
      {"word/strict-congest",
       [&](Network& net) {
         (void)net.exchange_broadcast_word(std::vector<std::uint64_t>(n, 5),
                                           511);  // 9-bit words
       }},
  };
  const std::vector<EngineSel> engines = {
      {"serial", [](Network&) {}},
      {"sharded@2",
       [](Network& net) { net.set_engine(Network::Engine::kSharded, 2); }},
      {"sharded@7",
       [](Network& net) { net.set_engine(Network::Engine::kSharded, 7); }},
      dist_sel(coord),
  };
  auto traffic = [](const RunMetrics& m) {
    return std::vector<std::uint64_t>{
        m.messages,         m.total_bits,       m.max_message_bits,
        m.congest_violations, m.messages_dropped, m.messages_corrupted};
  };
  for (const EngineSel& sel : engines) {
    for (const BadRound& bad : bad_rounds) {
      const std::string label = bad.name + " @" + sel.name;
      Network net(cg, /*budget_bits=*/4, /*strict=*/true);
      sel.apply(net);
      // A good round: non-zero traffic, and the inboxes the good round
      // after the throw must land again.
      const std::vector<std::uint64_t> good = good_round(net);
      const RunMetrics before = net.metrics();
      EXPECT_THROW(bad.run(net), CongestViolation) << label;
      EXPECT_EQ(traffic(net.metrics()), traffic(before)) << label;
      EXPECT_EQ(good_round(net), good) << label;
      EXPECT_EQ(net.metrics().messages, 2 * before.messages) << label;
    }
  }
}

// ------------------------------------------------- strict knob parsing --

TEST(Dist, ParsePositiveU64RejectsGarbageNamingTheToken) {
  for (const char* bad :
       {"banana", "0", "-3", "3x", "", "99999999999999999999"}) {
    try {
      parse_positive_u64("--fd", bad, 1 << 20);
      ADD_FAILURE() << "\"" << bad << "\": expected std::invalid_argument";
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("--fd"), std::string::npos) << bad;
      EXPECT_NE(what.find(std::string("\"") + bad + "\""), std::string::npos)
          << "message must quote the offending token: " << what;
    }
  }
  // Out-of-range is rejected too, naming the bound.
  EXPECT_THROW(parse_positive_u64("--workers", "65", 64),
               std::invalid_argument);
  EXPECT_EQ(parse_positive_u64("--workers", "64", 64), 64u);
  EXPECT_EQ(parse_positive_u64("--fd", "1500", 1 << 20), 1500u);
}

TEST(Dist, CoordinatorRejectsBadOptions) {
  const Graph g = gen::ring(8);
  TempCorpus tc("opts");
  write_graph(g, tc.path());
  {
    CoordinatorOptions opt;
    opt.heartbeat_ms = 0;
    EXPECT_THROW(Coordinator(tc.path(), opt), std::invalid_argument);
  }
  {
    CoordinatorOptions opt;
    opt.attach_timeout_ms = 0;
    EXPECT_THROW(Coordinator(tc.path(), opt), std::invalid_argument);
  }
  {
    CoordinatorOptions opt;
    opt.workers = 0;
    EXPECT_THROW(Coordinator(tc.path(), opt), std::invalid_argument);
  }
  {
    CoordinatorOptions opt;
    opt.workers = dist::kMaxDistWorkers + 1;
    EXPECT_THROW(Coordinator(tc.path(), opt), std::invalid_argument);
  }
}

TEST(Dist, EngineDistNeedsAnAttachedBackend) {
  const Graph g = gen::ring(8);
  Network net(g);
  EXPECT_THROW(net.set_engine(Network::Engine::kDist),
               std::invalid_argument);
}

// Worker count clamps to n: a 3-vertex corpus never gets more than 3
// shard processes however many were requested.
TEST(Dist, WorkerCountClampsToVertexCount) {
  const Graph g = gen::clique(3);
  TempCorpus tc("clamp");
  write_graph(g, tc.path());
  CoordinatorOptions opt;
  opt.workers = 8;
  Coordinator coord(tc.path(), opt);
  EXPECT_EQ(coord.shards(), 3u);
}

}  // namespace
}  // namespace ldc
