// E20 (runtime) — sharded single-graph execution: equivalence and scaling.
//
// Three tables. E20a is the hard gate: the full (Delta+1) pipeline run
// under kSharded at K in {1, 2, 7} must reproduce the serial engine's
// trace digest, communication metrics and coloring byte-for-byte — the
// "matches serial" column is deterministic and pinned by the baseline
// checker. E20b extends the gate to faulty
// rounds: every drop/corrupt/crash/sleep PRF decision must pick the
// identical bits regardless of engine, so the flattened delivered
// payloads and fault counters digest identically. E20c is the scaling
// story on e19-style out-of-core corpora up to 10^7 vertices: Linial's
// fused word-broadcast rounds under each engine, reporting rounds/sec
// (observational) alongside the exact cross-shard message/bit counts —
// the cut traffic K shards pay that the serial engine never stages.
//
// Cross-shard traffic is engine-private observability (see DESIGN.md
// §11): it is NOT part of RunMetrics and never enters the digest, which
// is exactly why the digest columns can be byte-equal while the traffic
// columns vary with K.
#include "common.hpp"

#include <chrono>
#include <filesystem>

#include <unistd.h>

#include "ldc/arb/list_arbdefective.hpp"
#include "ldc/storage/mapped_graph.hpp"
#include "ldc/storage/registry.hpp"
#include "ldc/storage/stream_gen.hpp"
#include "ldc/support/prf.hpp"

namespace {
using namespace ldc;
namespace sg = storage::gen;

/// Fresh scratch directory for this process's corpus files.
std::filesystem::path scratch_dir() {
  auto dir = std::filesystem::temp_directory_path() /
             ("ldc_e20_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  return dir;
}

struct EngineCfg {
  std::string name;
  Network::Engine engine;
  std::size_t count;  ///< shards (kSharded)
};

// ---- E20a: pipeline digest gate. --------------------------------------

struct PipelineOut {
  RunMetrics metrics;
  std::uint64_t digest = 0;
  Coloring phi;
  bool valid = false;
  double wall_ms = 0.0;
};

PipelineOut run_pipeline(harness::ExperimentContext& ctx, const Graph& g,
                         const LdcInstance& inst, const EngineCfg& cfg,
                         const std::string& label) {
  Network net(g);
  ctx.prepare(net);
  net.set_engine(cfg.engine, cfg.count);
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

// ---- E20b: faulty-round digest gate. ----------------------------------

struct FaultyOut {
  RunMetrics metrics;
  std::uint64_t payload_digest = 0;
  std::uint64_t trace_digest = 0;
};

/// Six broadcast rounds under a fault plan, one 40-bit payload per
/// sender, digesting every delivered (receiver, sender, payload) triple
/// in inbox order so drop/corrupt/crash/sleep effects are
/// byte-observable.
FaultyOut run_faulty(const Graph& g, const EngineCfg& cfg,
                     const FaultPlan& plan) {
  Network net(g);
  if (cfg.engine != Network::Engine::kSerial) {
    net.set_engine(cfg.engine, cfg.count);
  }
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

// ---- E20c: out-of-core scaling sweep. ---------------------------------

struct SweepOut {
  std::uint64_t digest = 0;  ///< coloring bytes + palette + total bits
  std::uint64_t rounds = 0;
  bool valid = false;
  double secs = 0.0;
  ShardTraffic traffic;
};

SweepOut run_linial_sweep(const Graph& g, const EngineCfg& cfg) {
  Network net(g);
  if (cfg.engine != Network::Engine::kSerial) {
    net.set_engine(cfg.engine, cfg.count);
  }
  const auto t0 = std::chrono::steady_clock::now();
  const auto res = linial::color(net);
  const auto t1 = std::chrono::steady_clock::now();
  SweepOut out;
  out.digest = service::fnv1a64(res.phi.data(),
                                res.phi.size() * sizeof(res.phi[0]));
  out.digest = service::fnv1a64(&res.palette, sizeof res.palette,
                                out.digest);
  const std::uint64_t bits = net.metrics().total_bits;
  out.digest = service::fnv1a64(&bits, sizeof bits, out.digest);
  out.rounds = net.metrics().rounds;
  out.valid = static_cast<bool>(validate_proper(g, res.phi));
  out.secs = std::chrono::duration<double>(t1 - t0).count();
  out.traffic = net.cross_shard_traffic();
  return out;
}

void run(harness::ExperimentContext& ctx) {
  // ---- E20a ------------------------------------------------------------
  const std::uint32_t delta = ctx.smoke() ? 12 : 24;
  const Graph pg = bench::regular_graph(ctx.smoke() ? 128 : 512, delta, 77);
  const LdcInstance inst = delta_plus_one_instance(pg);

  const std::vector<EngineCfg> gate_cfgs = {
      {"serial", Network::Engine::kSerial, 1},
      {"sharded/1", Network::Engine::kSharded, 1},
      {"sharded/2", Network::Engine::kSharded, 2},
      {"sharded/7", Network::Engine::kSharded, 7},
  };

  auto& gate = ctx.table(
      "E20a: sharded engine equivalence ((Delta+1) pipeline, Delta = " +
          std::to_string(delta) + ", n = " + std::to_string(pg.n()) + ")",
      {"engine", "rounds", "total bits", "trace digest", "matches serial",
       "valid", "wall ms (obs)"});
  PipelineOut serial;
  for (const auto& cfg : gate_cfgs) {
    const auto out = run_pipeline(ctx, pg, inst, cfg,
                                  "pipeline/" + cfg.name);
    const bool first = cfg.engine == Network::Engine::kSerial;
    if (first) serial = out;
    const bool same = out.metrics.same_communication(serial.metrics) &&
                      out.digest == serial.digest && out.phi == serial.phi;
    gate.add_row({cfg.name, out.metrics.rounds,
                  std::uint64_t{out.metrics.total_bits},
                  std::uint64_t{out.digest},
                  std::string(first ? "reference"
                                    : (same ? "ok" : "DIVERGED")),
                  std::string(out.valid ? "ok" : "VIOLATION"),
                  out.wall_ms});
  }

  // ---- E20b ------------------------------------------------------------
  const Graph fg = bench::regular_graph(ctx.smoke() ? 60 : 200, 8, 21);
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
    p.seed = 0xfa04;
    p.drop_rate = 0.05;
    p.corrupt_rate = 0.05;
    p.crash_rate = 0.01;
    p.sleep_rate = 0.08;
    p.max_crashes = 4;
    plans.push_back({"mixed", p});
  }
  const std::vector<EngineCfg> fault_cfgs = {
      {"serial", Network::Engine::kSerial, 1},
      {"sharded/2", Network::Engine::kSharded, 2},
      {"sharded/7", Network::Engine::kSharded, 7},
  };
  auto& faults = ctx.table(
      "E20b: fault-plan equivalence across engines (6 faulty rounds, "
      "8-regular, n = " + std::to_string(fg.n()) + ")",
      {"plan", "engine", "dropped", "corrupted", "crashes", "sleeps",
       "payload digest", "matches serial"});
  for (const auto& [plan_name, plan] : plans) {
    FaultyOut ref;
    for (const auto& cfg : fault_cfgs) {
      const auto out = run_faulty(fg, cfg, plan);
      const bool first = cfg.engine == Network::Engine::kSerial;
      if (first) ref = out;
      const bool same = out.payload_digest == ref.payload_digest &&
                        out.trace_digest == ref.trace_digest &&
                        out.metrics.same_communication(ref.metrics);
      faults.add_row({plan_name, cfg.name, out.metrics.messages_dropped,
                      out.metrics.messages_corrupted,
                      out.metrics.node_crashes, out.metrics.node_sleeps,
                      std::uint64_t{out.payload_digest},
                      std::string(first ? "reference"
                                        : (same ? "ok" : "DIVERGED"))});
    }
  }

  // ---- E20c ------------------------------------------------------------
  // Corpus families from e19 (streaming writer, mmap-backed read path);
  // cross-shard columns are the exact staged cut traffic, zero for the
  // serial engine by construction.
  struct Family {
    std::string tag;
    sg::StreamSpec spec;
  };
  std::vector<Family> families;
  for (std::uint64_t n : ctx.pick<std::vector<std::uint64_t>>(
           {1000000}, {20000})) {
    families.push_back({"ring/" + std::to_string(n), sg::stream_ring(n, 1)});
  }
  for (std::uint64_t n : ctx.pick<std::vector<std::uint64_t>>(
           {1000000, 10000000}, {20000})) {
    families.push_back({"reg16/" + std::to_string(n),
                        sg::stream_random_regular(n, 16, 11)});
  }
  const std::vector<EngineCfg> sweep_cfgs = {
      {"serial", Network::Engine::kSerial, 1},
      {"sharded/1", Network::Engine::kSharded, 1},
      {"sharded/2", Network::Engine::kSharded, 2},
      {"sharded/7", Network::Engine::kSharded, 7},
  };
  auto& sweep = ctx.table(
      "E20c: sharded scaling on out-of-core corpora (Linial, fused "
      "word-broadcast rounds)",
      {"family", "engine", "rounds", "matches serial", "valid",
       "x-shard msgs", "x-shard bits", "rounds per s (obs)"});
  const auto dir = scratch_dir();
  for (const auto& fam : families) {
    const auto path = (dir / ("e20_" +
                              std::to_string(&fam - families.data()) +
                              storage::kCorpusExtension))
                          .string();
    sg::write_corpus(fam.spec, path);
    const auto mapped = storage::MappedGraph::open(path);
    const Graph g = mapped->graph();
    SweepOut serial_ref;
    for (const auto& cfg : sweep_cfgs) {
      const auto out = run_linial_sweep(g, cfg);
      if (cfg.engine == Network::Engine::kSerial) serial_ref = out;
      const bool first = cfg.engine == Network::Engine::kSerial;
      const bool same = out.digest == serial_ref.digest &&
                        out.rounds == serial_ref.rounds;
      const double rps = out.secs > 0 ? out.rounds / out.secs : 0.0;
      sweep.add_row({fam.tag, cfg.name, std::uint64_t{out.rounds},
                     std::string(first ? "reference"
                                       : (same ? "ok" : "DIVERGED")),
                     std::string(out.valid ? "ok" : "VIOLATION"),
                     out.traffic.messages, out.traffic.bits, rps});
    }
    std::filesystem::remove(path);  // keep the scratch footprint bounded
  }
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

const harness::Registrar reg{{
    .name = "e20_sharded_scaling",
    .claim = "Runtime: the sharded engine reproduces the serial engine's "
             "digests, metrics, colorings and fault decisions exactly at "
             "every shard count, while the scaling sweep reports rounds/s "
             "and the exact cross-shard cut traffic per K on corpora up "
             "to 10^7 vertices",
    .axes = {"engine", "shards", "family", "plan"},
    .run = run,
}};

}  // namespace
