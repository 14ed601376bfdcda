// E21 (runtime) — the distributed engine: multi-process equivalence and
// wire costs.
//
// Three tables over the same corpus-backed graphs, each exercising the
// Engine::kDist coordinator with real `ldc_shard` worker processes over
// sockets (DESIGN.md §12). E21a is the hard gate: the full (Delta+1)
// pipeline under kDist at K in {1, 2, 4} must reproduce the serial
// engine's trace digest, communication metrics and coloring byte for
// byte — and so must kSharded at the same K, which pins the three
// engines to one another. E21b extends the gate to faulty rounds: the
// drop/corrupt/crash/sleep decisions are pure PRF functions of
// (seed, round, edge), so the flattened delivered payloads digest
// identically no matter which process resolved them. E21c is the cost
// table: for each K the dist engine must report exactly the in-process
// sharded engine's logical cross-shard cut traffic (the partition is
// the same degree-balanced one), while the physical wire columns —
// frames and bytes actually moved through the coordinator, headers
// included — are reported per run alongside wall clock.
//
// Worker processes are spawned once per (corpus, K) and reused across
// every run bound to that coordinator, exactly how a long-lived service
// would hold them.
#include "common.hpp"

#include <chrono>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include <unistd.h>

#include "ldc/arb/list_arbdefective.hpp"
#include "ldc/dist/coordinator.hpp"
#include "ldc/storage/corpus.hpp"
#include "ldc/support/prf.hpp"

namespace {
using namespace ldc;
using dist::Coordinator;
using dist::CoordinatorOptions;
using dist::WireStats;

/// Unique corpus path for this process, removed by the caller.
std::string corpus_path(const std::string& tag) {
  return "/tmp/ldc_e21_" + tag + "_" + std::to_string(::getpid()) +
         storage::kCorpusExtension;
}

void write_graph(const Graph& g, const std::string& path) {
  storage::CorpusWriter w(path, g.n(), /*with_ids=*/false);
  for (NodeId v = 0; v < g.n(); ++v) w.add_vertex(g.neighbors(v));
  w.close();
}

/// One corpus plus its persistent per-K coordinators (worker fleets).
struct DistFleet {
  std::string path;
  std::vector<std::unique_ptr<Coordinator>> coords;

  DistFleet(const Graph& g, const std::string& tag,
            const std::vector<std::size_t>& ks)
      : path(corpus_path(tag)) {
    write_graph(g, path);
    for (std::size_t k : ks) {
      CoordinatorOptions opt;
      opt.workers = k;
      coords.push_back(std::make_unique<Coordinator>(path, opt));
    }
  }
  ~DistFleet() {
    coords.clear();  // shut the workers down before unlinking their mmap
    std::remove(path.c_str());
  }
  Coordinator& at(std::size_t k) {
    for (auto& c : coords) {
      if (c->shards() == k) return *c;
    }
    throw std::logic_error("e21: no coordinator with K=" +
                           std::to_string(k));
  }
};

/// An engine selection applied to a fresh Network; "serial" is the
/// reference row of every table.
struct EngineSel {
  std::string name;
  std::size_t workers;
  std::function<void(Network&)> apply;
  Coordinator* coord = nullptr;  ///< non-null for the dist rows
};

EngineSel serial_sel() {
  return {"serial", 1, [](Network&) {}, nullptr};
}
EngineSel sharded_sel(std::size_t k) {
  return {"sharded/" + std::to_string(k), k,
          [k](Network& net) { net.set_engine(Network::Engine::kSharded, k); },
          nullptr};
}
EngineSel dist_sel(Coordinator& coord) {
  return {"dist/" + std::to_string(coord.shards()), coord.shards(),
          [&coord](Network& net) { net.attach_dist(&coord); }, &coord};
}

// ---- E21a: pipeline digest gate. --------------------------------------

struct PipelineOut {
  RunMetrics metrics;
  std::uint64_t digest = 0;
  Coloring phi;
  bool valid = false;
  double wall_ms = 0.0;
};

PipelineOut run_pipeline(harness::ExperimentContext& ctx, const Graph& g,
                         const LdcInstance& inst, const EngineSel& sel,
                         const std::string& label) {
  Network net(g);
  ctx.prepare(net);
  sel.apply(net);
  const auto start = std::chrono::steady_clock::now();
  const auto lin = linial::color(net);
  const auto res = arb::solve_list_arbdefective(
      net, inst, lin.phi, lin.palette,
      arb::two_phase_solver(mt::CandidateParams{}), {});
  const auto stop = std::chrono::steady_clock::now();
  ctx.record(label, net);
  PipelineOut out;
  out.metrics = net.metrics();
  out.digest = net.trace() ? net.trace()->digest() : 0;
  out.phi = res.out.colors;
  out.valid = res.valid;
  out.wall_ms =
      std::chrono::duration<double, std::milli>(stop - start).count();
  return out;
}

// ---- E21b: faulty-round digest gate. ----------------------------------

struct FaultyOut {
  RunMetrics metrics;
  std::uint64_t payload_digest = 0;
  std::uint64_t trace_digest = 0;
};

/// Six broadcast rounds under a fault plan, one 40-bit payload per
/// sender, digesting every delivered (receiver, sender, payload) triple
/// in inbox order.
FaultyOut run_faulty(const Graph& g, const EngineSel& sel,
                     const FaultPlan& plan) {
  Network net(g);
  sel.apply(net);
  Trace trace;
  net.attach_trace(&trace);
  net.attach_faults(&plan);
  FaultyOut out;
  std::vector<BitWriter> msgs(g.n());
  for (std::uint64_t r = 0; r < 6; ++r) {
    for (NodeId u = 0; u < g.n(); ++u) {
      msgs[u].clear();
      msgs[u].write(hash_combine(r, u), 40);
    }
    const auto in = net.exchange_broadcast(msgs);
    for (NodeId v = 0; v < g.n(); ++v) {
      for (auto [sender, rd] : in[v]) {
        const std::uint64_t item = hash_combine(
            (static_cast<std::uint64_t>(v) << 32) | sender, rd.read(40));
        out.payload_digest =
            service::fnv1a64(&item, sizeof item, out.payload_digest);
      }
    }
  }
  out.metrics = net.metrics();
  out.trace_digest = trace.digest();
  return out;
}

// ---- E21c: traffic gate + wire costs. ---------------------------------

struct CostOut {
  std::uint64_t digest = 0;
  ShardTraffic traffic;
  WireStats wire;  ///< this run's delta (dist rows only)
  double wall_ms = 0.0;
};

CostOut run_linial_cost(const Graph& g, const EngineSel& sel) {
  const WireStats before =
      sel.coord != nullptr ? sel.coord->wire_stats() : WireStats{};
  Network net(g);
  sel.apply(net);
  const auto t0 = std::chrono::steady_clock::now();
  const auto res = linial::color(net);
  const auto t1 = std::chrono::steady_clock::now();
  CostOut out;
  out.digest = service::fnv1a64(res.phi.data(),
                                res.phi.size() * sizeof(res.phi[0]));
  out.traffic = net.cross_shard_traffic();
  if (sel.coord != nullptr) {
    const WireStats after = sel.coord->wire_stats();
    out.wire.frames_sent = after.frames_sent - before.frames_sent;
    out.wire.frames_received = after.frames_received - before.frames_received;
    out.wire.bytes_sent = after.bytes_sent - before.bytes_sent;
    out.wire.bytes_received = after.bytes_received - before.bytes_received;
  }
  out.wall_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  return out;
}

void run(harness::ExperimentContext& ctx) {
  const std::vector<std::size_t> ks = {1, 2, 4};

  // ---- E21a ------------------------------------------------------------
  const std::uint32_t delta = ctx.smoke() ? 10 : 16;
  const Graph pg =
      bench::regular_graph(ctx.smoke() ? 96 : 256, delta, 177);
  const LdcInstance inst = delta_plus_one_instance(pg);
  DistFleet fleet(pg, "pipe", ks);

  std::vector<EngineSel> gate_sels;
  gate_sels.push_back(serial_sel());
  for (std::size_t k : ks) gate_sels.push_back(sharded_sel(k));
  for (std::size_t k : ks) gate_sels.push_back(dist_sel(fleet.at(k)));

  auto& gate = ctx.table(
      "E21a: distributed engine equivalence ((Delta+1) pipeline, Delta = " +
          std::to_string(delta) + ", n = " + std::to_string(pg.n()) + ")",
      {"engine", "rounds", "total bits", "trace digest", "matches serial",
       "valid", "wall ms (obs)"});
  PipelineOut serial;
  for (const auto& sel : gate_sels) {
    const auto out = run_pipeline(ctx, pg, inst, sel,
                                  "pipeline/" + sel.name);
    const bool first = sel.name == "serial";
    if (first) serial = out;
    const bool same = out.metrics.same_communication(serial.metrics) &&
                      out.digest == serial.digest && out.phi == serial.phi;
    gate.add_row({sel.name, out.metrics.rounds,
                  std::uint64_t{out.metrics.total_bits},
                  std::uint64_t{out.digest},
                  std::string(first ? "reference"
                                    : (same ? "ok" : "DIVERGED")),
                  std::string(out.valid ? "ok" : "VIOLATION"),
                  out.wall_ms});
  }

  // ---- E21b ------------------------------------------------------------
  const Graph fg = bench::regular_graph(ctx.smoke() ? 60 : 160, 8, 21);
  DistFleet fault_fleet(fg, "fault", ks);
  std::vector<std::pair<std::string, FaultPlan>> plans;
  {
    FaultPlan p;
    p.seed = 0xfa01;
    p.drop_rate = 0.15;
    plans.push_back({"drop15", p});
  }
  {
    FaultPlan p;
    p.seed = 0xfa04;
    p.drop_rate = 0.05;
    p.corrupt_rate = 0.05;
    p.crash_rate = 0.01;
    p.sleep_rate = 0.08;
    p.max_crashes = 4;
    plans.push_back({"mixed", p});
  }
  std::vector<EngineSel> fault_sels;
  fault_sels.push_back(serial_sel());
  fault_sels.push_back(sharded_sel(4));
  for (std::size_t k : ks) fault_sels.push_back(dist_sel(fault_fleet.at(k)));

  auto& faults = ctx.table(
      "E21b: fault-plan equivalence across processes (6 faulty rounds, "
      "8-regular, n = " + std::to_string(fg.n()) + ")",
      {"plan", "engine", "dropped", "corrupted", "crashes", "sleeps",
       "payload digest", "matches serial"});
  for (const auto& [plan_name, plan] : plans) {
    FaultyOut ref;
    for (const auto& sel : fault_sels) {
      const auto out = run_faulty(fg, sel, plan);
      const bool first = sel.name == "serial";
      if (first) ref = out;
      const bool same = out.payload_digest == ref.payload_digest &&
                        out.trace_digest == ref.trace_digest &&
                        out.metrics.same_communication(ref.metrics);
      faults.add_row({plan_name, sel.name, out.metrics.messages_dropped,
                      out.metrics.messages_corrupted,
                      out.metrics.node_crashes, out.metrics.node_sleeps,
                      std::uint64_t{out.payload_digest},
                      std::string(first ? "reference"
                                        : (same ? "ok" : "DIVERGED"))});
    }
  }

  // ---- E21c ------------------------------------------------------------
  // The logical/physical split: cross-shard messages and bits must be
  // EXACTLY the in-process sharded engine's numbers (same partition, same
  // staging rule), while frames/bytes are the wire's own story — one
  // kBcast/kInboxIds pair per worker for each round that fills slots
  // (Linial's dense rounds send none) plus the assign handshake, headers
  // and digests included.
  auto& cost = ctx.table(
      "E21c: logical cut traffic vs physical wire cost (Linial, n = " +
          std::to_string(pg.n()) + ")",
      {"K", "engine", "x-shard msgs", "x-shard bits", "matches sharded",
       "frames tx+rx", "wire bytes tx+rx", "wall ms (obs)"});
  for (std::size_t k : ks) {
    const auto sh = run_linial_cost(pg, sharded_sel(k));
    const auto di = run_linial_cost(pg, dist_sel(fleet.at(k)));
    const bool same = di.traffic.messages == sh.traffic.messages &&
                      di.traffic.bits == sh.traffic.bits &&
                      di.digest == sh.digest;
    cost.add_row({std::uint64_t{k}, std::string("sharded"),
                  sh.traffic.messages, sh.traffic.bits,
                  std::string("reference"), std::uint64_t{0},
                  std::uint64_t{0}, sh.wall_ms});
    cost.add_row({std::uint64_t{k}, std::string("dist"),
                  di.traffic.messages, di.traffic.bits,
                  std::string(same ? "ok" : "DIVERGED"),
                  di.wire.frames_sent + di.wire.frames_received,
                  di.wire.bytes_sent + di.wire.bytes_received, di.wall_ms});
  }
}

const harness::Registrar reg{{
    .name = "e21_distributed",
    .claim = "Runtime: the multi-process distributed engine reproduces "
             "the serial engine's digests, metrics, colorings and fault "
             "decisions exactly at every worker count, reports the "
             "in-process sharded engine's cut traffic to the message and "
             "bit, and prices the physical wire (frames and bytes, "
             "headers included) separately",
    .axes = {"engine", "workers", "plan"},
    .run = run,
}};

}  // namespace
