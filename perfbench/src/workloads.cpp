#include "workloads.hpp"

#include <algorithm>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>

#include "host.hpp"
#include "ldc/baselines/kw_reduction.hpp"
#include "ldc/coloring/instance_gen.hpp"
#include "ldc/coloring/validate.hpp"
#include "ldc/d1lc/congest_colorer.hpp"
#include "ldc/dist/coordinator.hpp"
#include "ldc/graph/generators.hpp"
#include "ldc/service/algorithms.hpp"
#include "ldc/storage/mapped_graph.hpp"
#include "ldc/storage/stream_gen.hpp"
#include "serve_driver.hpp"
#include "stats.hpp"

namespace pb {

using namespace ldc;

const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> defs = {
      {"setup_s", "s"},           {"p50_ms", "ms"},
      {"tail_ms", "ms"},          {"throughput_per_s", "1/s"},
      {"peak_rss_mb", "MiB"},
  };
  return defs;
}

const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> defs = {
      {"graph.build_ms", "ms"},
      {"storage.write_ms", "ms"},
      {"storage.open_ms", "ms"},
      {"coloring.instance_ms", "ms"},
      {"coloring.validate_ms", "ms"},
      {"runtime.engine_setup_ms", "ms"},
      {"runtime.wall_ms", "ms"},
      {"algo.self_ms", "ms"},
      {"runtime.round_p50_us", "us"},
      {"runtime.round_tail_us", "us"},
      {"runtime.cpu_util", "ratio"},
      {"runtime.rounds", "count"},
      {"runtime.messages", "count"},
      {"runtime.bits", "count"},
      {"runtime.xshard_msgs", "count"},
      {"dist.spawn_ms", "ms"},
      {"dist.frames", "count"},
      {"dist.wire_mb", "MB"},
      {"dist.coord_cpu_ms", "ms"},
      {"dist.worker_cpu_ms", "ms"},
      {"dist.wait_ms", "ms"},
      {"service.admit_ms", "ms"},
      {"service.hit_p50_ms", "ms"},
      {"service.miss_p50_ms", "ms"},
      {"service.miss_tail_ms", "ms"},
      {"service.hit_ratio", "ratio"},
      {"service.cpu_ms_per_job", "ms"},
      {"service.rejected", "count"},
      {"service.evictions", "count"},
      {"service.sched_lag_ms", "ms"},
      {"host.mem_probe_ns", "ns"},
      {"trace.overhead_frac", "ratio"},
      {"trace.remainder_frac", "ratio"},
  };
  return defs;
}

const std::vector<WorkloadInfo>& workloads() {
  static const std::vector<WorkloadInfo> defs = {
      {"d1lc-serial", 180},
      {"kw-sharded4", 60},
      {"kw-dist2", 50},
      {"serve-zipf", 4500},
  };
  return defs;
}

namespace {

/// A per-layer value and the number of samples it summarizes.
struct LayerValue {
  double value = 0;
  std::size_t samples = 0;
};
using Layer = std::map<std::string, LayerValue>;

LayerValue med(const std::vector<double>& v) { return {median(v), v.size()}; }
LayerValue p99(const std::vector<double>& v) {
  return {percentile(v, 0.99), v.size()};
}

double ms_between(std::uint64_t a, std::uint64_t b) {
  return double(b - a) / 1e6;
}

/// What an op must reproduce: the colour digest and the exact model
/// counts of a kSerial run on a fresh Network.
struct Reference {
  std::uint64_t digest = 0, rounds = 0, messages = 0, bits = 0;
};

Reference reference_of(const Coloring& phi, const RunMetrics& m) {
  return {service::coloring_digest(phi), m.rounds, m.messages, m.total_bits};
}

bool matches(const Reference& ref, const Coloring& phi, const RunMetrics& m) {
  const Reference got = reference_of(phi, m);
  return got.digest == ref.digest && got.rounds == ref.rounds &&
         got.messages == ref.messages && got.bits == ref.bits;
}

struct LoopStats {
  std::vector<double> untraced_ms, traced_ms;
  std::uint64_t attempted = 0, failed = 0;
  double wall_s = 0;
  double cpu_util = 0;  ///< process CPU time over wall time
};

/// Closed loop: one op at a time until the time is up. In a traced run
/// ops alternate in blocks of `period` between traced and untraced, so
/// both halves see every input equally often and the tracing overhead is
/// measured inside one run.
template <class Op>
LoopStats closed_loop(const RunOptions& opt, std::size_t period, Op&& op) {
  LoopStats s;
  const std::uint64_t t0 = now_ns();
  const std::uint64_t cpu0 = process_cpu_ns();
  const std::uint64_t deadline = t0 + std::uint64_t(opt.seconds * 1e9);
  for (std::uint64_t i = 0; now_ns() < deadline; ++i) {
    check_interrupt();
    if (opt.fail_after_ops != 0 && i >= opt.fail_after_ops) {
      throw std::runtime_error("injected failure after " +
                               std::to_string(i) + " ops");
    }
    const bool traced = opt.trace && (i / period) % 2 == 1;
    const std::uint64_t a = now_ns();
    const bool ok = op(i, traced);
    const std::uint64_t b = now_ns();
    (traced ? s.traced_ms : s.untraced_ms).push_back(ms_between(a, b));
    ++s.attempted;
    if (!ok) ++s.failed;
  }
  const std::uint64_t t1 = now_ns();
  s.wall_s = double(t1 - t0) / 1e9;
  s.cpu_util = double(process_cpu_ns() - cpu0) / double(t1 - t0);
  return s;
}

/// Set-up repetitions per run; setup_s is their median.
constexpr int kSetups = 5;

/// Runs `setup` kSetups times (dropping the previous state first, so every
/// repetition starts from nothing) and returns each one's seconds.
template <class State, class Setup>
std::vector<double> repeated_setup(std::unique_ptr<State>& state,
                                   Setup&& setup) {
  std::vector<double> secs;
  for (int k = 0; k < kSetups; ++k) {
    check_interrupt();
    state.reset();
    const std::uint64_t t0 = now_ns();
    state = setup(k);
    secs.push_back(double(now_ns() - t0) / 1e9);
  }
  return secs;
}

void add_round_gaps(const std::vector<std::uint64_t>& marks,
                    std::vector<double>& gaps_us) {
  for (std::size_t k = 1; k < marks.size(); ++k) {
    gaps_us.push_back(double(marks[k] - marks[k - 1]) / 1e3);
  }
}

/// Every per-layer metric in output order; layers the workload did not
/// exercise report 0 from no samples.
std::vector<Metric> per_layer_of(const Layer& layer) {
  std::vector<Metric> out;
  for (const MetricDef& d : per_layer_metrics()) {
    const auto it = layer.find(d.name);
    const LayerValue v = it == layer.end() ? LayerValue{} : it->second;
    out.push_back({d.name, v.value, d.unit, v.samples});
  }
  return out;
}

/// Traced median over untraced median, minus one.
LayerValue overhead(const std::vector<double>& traced,
                    const std::vector<double>& untraced) {
  if (traced.empty() || untraced.empty()) return {};
  return {median(traced) / median(untraced) - 1.0,
          traced.size() + untraced.size()};
}

/// Median share of each `root` span (an op or a request) that none of its
/// child spans covers: the remainder the per-layer numbers do not explain.
LayerValue remainder_of(const SpanRecorder& rec, const char* root) {
  const std::vector<std::uint64_t> self = rec.self_times_ns();
  std::vector<double> rem;
  for (std::size_t i = 0; i < rec.spans().size(); ++i) {
    const SpanRecord& s = rec.spans()[i];
    if (s.name == root && s.end_ns > s.start_ns) {
      rem.push_back(double(self[i]) / double(s.end_ns - s.start_ns));
    }
  }
  return med(rem);
}

/// Shares the closed-loop workloads' end-to-end and per-layer assembly.
RunResult closed_loop_result(const WorkloadInfo& info,
                             const std::vector<double>& setup_s,
                             const LoopStats& loop, double rss_mb,
                             std::size_t rss_procs, Layer layer,
                             const SpanRecorder& rec) {
  RunResult out;
  out.attempted = loop.attempted;
  out.failed = loop.failed;
  out.tail_percentile = info.tail_percentile();
  const std::size_t n = loop.untraced_ms.size();
  out.end_to_end = {
      {"setup_s", median(setup_s), "s", setup_s.size()},
      {"p50_ms", median(loop.untraced_ms), "ms", n, false},
      {"tail_ms", percentile(loop.untraced_ms, info.tail_percentile() / 100.0),
       "ms", n, false},
      {"throughput_per_s",
       double(loop.attempted - loop.failed) / std::max(loop.wall_s, 1e-9),
       "1/s", loop.attempted, false},
      {"peak_rss_mb", rss_mb, "MiB", rss_procs},
  };
  layer["runtime.cpu_util"] = {loop.cpu_util, loop.attempted};
  layer["trace.overhead_frac"] = overhead(loop.traced_ms, loop.untraced_ms);
  layer["trace.remainder_frac"] = remainder_of(rec, "op");
  out.per_layer = per_layer_of(layer);
  return out;
}

// ---------------------------------------------------------------- d1lc --

constexpr std::uint32_t kD1lcN = 2000;
constexpr std::uint32_t kD1lcDegree = 32;
constexpr std::size_t kD1lcGraphs = 4;

LdcInstance d1lc_instance(const Graph& g, std::uint64_t seed) {
  // (degree+1)-lists drawn from a palette twice the size of Delta+1, so
  // lists genuinely differ between neighbours.
  return degree_plus_one_instance(g, 2 * (std::uint64_t{g.max_degree()} + 1),
                                  seed);
}

struct D1lcState {
  struct Input {
    Graph g;
    std::uint64_t list_seed = 0;
    Reference ref;
    RunMetrics metrics;
  };
  std::vector<Input> inputs;
  double build_ms = 0;
};

RunResult run_d1lc(const RunOptions& opt, const WorkloadInfo& info,
                   SpanRecorder& rec) {
  std::unique_ptr<D1lcState> st;
  std::vector<double> build_ms;
  const std::vector<double> setup_s = repeated_setup(st, [&](int k) {
    auto s = std::make_unique<D1lcState>();
    std::uint64_t rng = opt.seed * 0x2545f4914f6cdd1dull + 0xd1c;
    for (std::size_t i = 0; i < kD1lcGraphs; ++i) {
      D1lcState::Input in;
      {
        Span t(rec, "graph.build", "graph", std::uint64_t(k), &s->build_ms);
        in.g = gen::random_regular(kD1lcN, kD1lcDegree, splitmix64(rng));
      }
      in.list_seed = splitmix64(rng);
      Span t(rec, "reference", "bench", std::uint64_t(k));
      const LdcInstance inst = d1lc_instance(in.g, in.list_seed);
      Network net(in.g);
      const d1lc::PipelineResult res = d1lc::color(net, inst);
      if (!res.valid || !validate_proper(in.g, res.phi).ok ||
          !validate_membership(inst, res.phi).ok) {
        throw std::runtime_error("d1lc reference coloring is invalid");
      }
      in.ref = reference_of(res.phi, net.metrics());
      in.metrics = net.metrics();
      s->inputs.push_back(std::move(in));
    }
    build_ms.push_back(s->build_ms);
    return s;
  });

  SpanRecorder off(false);
  std::vector<double> inst_ms, val_ms, wall_ms, self_ms, gaps_us;
  const LoopStats loop = closed_loop(opt, kD1lcGraphs, [&](std::uint64_t i,
                                                           bool traced) {
    SpanRecorder& r = traced ? rec : off;
    const D1lcState::Input& in = st->inputs[i % kD1lcGraphs];
    Span op(r, "op", "bench", i);
    double inst_t = 0, algo_t = 0, val_t = 0;
    std::optional<LdcInstance> inst;
    {
      Span t(r, "coloring.instance", "coloring", i, &inst_t);
      inst.emplace(d1lc_instance(in.g, in.list_seed));
    }
    Network net(in.g);
    std::vector<std::uint64_t> marks;
    if (traced) {
      net.set_round_callback([&marks](std::uint64_t) {
        marks.push_back(now_ns());
      });
    }
    d1lc::PipelineResult res;
    {
      Span t(r, "d1lc.color", "d1lc", i, &algo_t);
      res = d1lc::color(net, *inst);
    }
    bool ok = false;
    {
      Span t(r, "coloring.validate", "coloring", i, &val_t);
      ok = res.valid && validate_proper(in.g, res.phi).ok &&
           validate_membership(*inst, res.phi).ok;
    }
    ok = ok && matches(in.ref, res.phi, net.metrics());
    if (traced) {
      const double wall = double(net.metrics().wall_ns) / 1e6;
      inst_ms.push_back(inst_t);
      val_ms.push_back(val_t);
      wall_ms.push_back(wall);
      self_ms.push_back(algo_t - wall);
      add_round_gaps(marks, gaps_us);
    }
    return ok;
  });

  Layer layer;
  layer["graph.build_ms"] = med(build_ms);
  layer["coloring.instance_ms"] = med(inst_ms);
  layer["coloring.validate_ms"] = med(val_ms);
  layer["runtime.wall_ms"] = med(wall_ms);
  layer["algo.self_ms"] = med(self_ms);
  layer["runtime.round_p50_us"] = med(gaps_us);
  layer["runtime.round_tail_us"] = p99(gaps_us);
  // Exact counts, averaged over the input rotation.
  double rounds = 0, messages = 0, bits = 0;
  for (const D1lcState::Input& in : st->inputs) {
    rounds += double(in.metrics.rounds);
    messages += double(in.metrics.messages);
    bits += double(in.metrics.total_bits);
  }
  const std::size_t k = st->inputs.size();
  layer["runtime.rounds"] = {rounds / double(k), k};
  layer["runtime.messages"] = {messages / double(k), k};
  layer["runtime.bits"] = {bits / double(k), k};
  return closed_loop_result(info, setup_s, loop, peak_rss_mb(), 1, layer, rec);
}

// ------------------------------------------------------------------ kw --

/// Corpus graphs per run; one op colours each of them once. The work of
/// one KW run moves by up to 40% between random graphs of one size and
/// degree (README.md), so a run on one graph would make the seed, not the
/// code, set most of the spread between runs.
constexpr std::size_t kKwGraphs = 4;

struct KwState {
  struct Input {
    std::shared_ptr<const storage::MappedGraph> mapped;
    Graph g;
    Reference ref;
    RunMetrics metrics;
    std::unique_ptr<dist::Coordinator> coord;  ///< kw-dist2 only
    std::vector<pid_t> workers;                ///< kw-dist2 only
    /// The graph the op's Network runs on: the coordinator's own copy
    /// under kw-dist2.
    const Graph& graph() const { return coord ? coord->corpus_graph() : g; }
  };
  std::vector<Input> inputs;
  double write_ms = 0, open_ms = 0, spawn_ms = 0;
};

RunResult run_kw(const RunOptions& opt, const WorkloadInfo& info,
                 SpanRecorder& rec, const std::string& scratch, bool dist) {
  // One corpus size for both engines, so their op times compare directly.
  // An op colours 2^15 vertices in all, as one 2^15-vertex graph would.
  const std::uint64_t n = 1u << 13;
  std::unique_ptr<KwState> st;
  std::vector<double> write_ms, open_ms, spawn_ms;
  const std::vector<double> setup_s = repeated_setup(st, [&](int k) {
    auto s = std::make_unique<KwState>();
    const auto op = std::uint64_t(k);
    std::uint64_t rng = opt.seed * 0x2545f4914f6cdd1dull + 0x4b57;
    for (std::size_t c = 0; c < kKwGraphs; ++c) {
      KwState::Input in;
      const std::string path =
          scratch + "/corpus-" + std::to_string(c) + ".ldcg";
      std::filesystem::remove(path);
      {
        Span t(rec, "storage.write", "storage", op, &s->write_ms);
        storage::gen::write_corpus(
            storage::gen::stream_random_regular(n, 16, splitmix64(rng)), path);
      }
      {
        Span t(rec, "storage.open", "storage", op, &s->open_ms);
        in.mapped = storage::MappedGraph::open(path);
        in.g = in.mapped->graph();
      }
      {
        Span t(rec, "reference", "bench", op);
        Network net(in.g);
        const baselines::KwResult res = baselines::linial_then_kw(net);
        if (!validate_proper(in.g, res.phi).ok) {
          throw std::runtime_error("kw reference coloring is invalid");
        }
        in.ref = reference_of(res.phi, net.metrics());
        in.metrics = net.metrics();
      }
      if (dist) {
        Span t(rec, "dist.spawn", "dist", op, &s->spawn_ms);
        dist::CoordinatorOptions copt;
        copt.workers = 2;
        copt.shard_binary = opt.bin_dir + "/ldc_shard";
        in.coord = std::make_unique<dist::Coordinator>(path, copt);
        in.workers = in.coord->worker_pids();
      }
      s->inputs.push_back(std::move(in));
    }
    write_ms.push_back(s->write_ms);
    open_ms.push_back(s->open_ms);
    spawn_ms.push_back(s->spawn_ms);
    return s;
  });

  SpanRecorder off(false);
  std::vector<double> setup_ms, wall_ms, self_ms, val_ms, gaps_us;
  std::vector<double> frames, wire_mb, coord_cpu, worker_cpu, wait_ms;
  double xshard = 0;
  const LoopStats loop = closed_loop(opt, 1, [&](std::uint64_t i,
                                                 bool traced) {
    SpanRecorder& r = traced ? rec : off;
    Span op(r, "op", "bench", i);
    double setup_t = 0, algo_t = 0, val_t = 0, wall = 0, xs = 0;
    double fr = 0, mb = 0, ccpu = 0, wcpu = 0, wait = 0;
    bool ok = true;
    for (const KwState::Input& in : st->inputs) {
      const Graph& g = in.graph();
      const std::uint64_t t0 = now_ns();
      std::optional<Network> net;
      {
        Span t(r, "runtime.engine_setup", "runtime", i, &setup_t);
        net.emplace(g);
        if (dist) {
          net->attach_dist(in.coord.get());
        } else {
          net->set_engine(Network::Engine::kSharded, 4);
        }
      }
      std::vector<std::uint64_t> marks;
      if (traced) {
        net->set_round_callback([&marks](std::uint64_t) {
          marks.push_back(now_ns());
        });
      }
      dist::WireStats w0;
      std::vector<double> wcpu0;
      std::uint64_t ccpu0 = 0;
      if (traced && dist) {
        w0 = in.coord->wire_stats();
        for (pid_t p : in.workers) wcpu0.push_back(proc_cpu_ms(p));
        ccpu0 = thread_cpu_ns();
      }
      baselines::KwResult res;
      {
        Span t(r, "kw", "baselines", i, &algo_t);
        res = baselines::linial_then_kw(*net);
      }
      const RunMetrics m = net->metrics();
      if (traced) {
        wall += double(m.wall_ns) / 1e6;
        add_round_gaps(marks, gaps_us);
        xs += double(net->cross_shard_traffic().messages);
        if (dist) {
          const double c = double(thread_cpu_ns() - ccpu0) / 1e6;
          const dist::WireStats w1 = in.coord->wire_stats();
          fr += double(w1.frames_sent - w0.frames_sent + w1.frames_received -
                       w0.frames_received);
          mb += double(w1.bytes_sent - w0.bytes_sent + w1.bytes_received -
                       w0.bytes_received) /
                1e6;
          double slowest = 0;
          for (std::size_t k = 0; k < in.workers.size(); ++k) {
            const double wc = proc_cpu_ms(in.workers[k]) - wcpu0[k];
            slowest = std::max(slowest, wc);
            wcpu += wc;
          }
          ccpu += c;
          wait += ms_between(t0, now_ns()) - c - slowest;
        }
      }
      net.reset();
      Span t(r, "coloring.validate", "coloring", i, &val_t);
      const bool good =
          validate_proper(g, res.phi).ok && matches(in.ref, res.phi, m);
      ok = ok && good;
    }
    if (traced) {
      wall_ms.push_back(wall);
      self_ms.push_back(algo_t - wall);
      setup_ms.push_back(setup_t);
      val_ms.push_back(val_t);
      xshard = xs;
      if (dist) {
        frames.push_back(fr);
        wire_mb.push_back(mb);
        coord_cpu.push_back(ccpu);
        worker_cpu.push_back(wcpu);
        wait_ms.push_back(wait);
      }
    }
    return ok;
  });

  double rss = peak_rss_mb();
  std::size_t procs = 1;
  for (const KwState::Input& in : st->inputs) {
    for (pid_t p : in.workers) rss += peak_rss_mb(p);
    procs += in.workers.size();
  }

  Layer layer;
  layer["storage.write_ms"] = med(write_ms);
  layer["storage.open_ms"] = med(open_ms);
  layer["coloring.validate_ms"] = med(val_ms);
  layer["runtime.engine_setup_ms"] = med(setup_ms);
  layer["runtime.wall_ms"] = med(wall_ms);
  layer["algo.self_ms"] = med(self_ms);
  layer["runtime.round_p50_us"] = med(gaps_us);
  layer["runtime.round_tail_us"] = p99(gaps_us);
  // Exact counts of one op: the sum over the corpus graphs.
  double rounds = 0, messages = 0, bits = 0;
  for (const KwState::Input& in : st->inputs) {
    rounds += double(in.metrics.rounds);
    messages += double(in.metrics.messages);
    bits += double(in.metrics.total_bits);
  }
  layer["runtime.rounds"] = {rounds, kKwGraphs};
  layer["runtime.messages"] = {messages, kKwGraphs};
  layer["runtime.bits"] = {bits, kKwGraphs};
  layer["runtime.xshard_msgs"] = {xshard, 1};
  if (dist) {
    layer["dist.spawn_ms"] = med(spawn_ms);
    layer["dist.frames"] = med(frames);
    layer["dist.wire_mb"] = med(wire_mb);
    layer["dist.coord_cpu_ms"] = med(coord_cpu);
    layer["dist.worker_cpu_ms"] = med(worker_cpu);
    layer["dist.wait_ms"] = med(wait_ms);
  }
  return closed_loop_result(info, setup_s, loop, rss, procs, layer, rec);
}

// --------------------------------------------------------------- serve --

constexpr std::size_t kServeSessions = 2;
constexpr std::size_t kColdChecks = 16;

struct ServeState {
  ServePlan plan;
  std::vector<std::string> lines;             ///< one per arrival
  std::vector<service::JobOutcome> refs;      ///< one per hot spec
  std::unique_ptr<ChildProcess> server;
  std::unique_ptr<ServeClient> client;
  double build_ms = 0;
  ~ServeState() {
    client.reset();  // close the sessions before the server stops
    server.reset();
  }
};

service::JobOutcome run_reference(const service::Job& job, SpanRecorder& rec,
                                  std::uint64_t op, double* build_ms) {
  Graph g;
  {
    Span t(rec, "graph.build", "graph", op, build_ms);
    g = service::build_graph(job.graph);
  }
  Span t(rec, "reference", "bench", op);
  const service::AlgorithmInfo* algo =
      service::AlgorithmRegistry::instance().find(job.algorithm);
  if (algo == nullptr) throw std::runtime_error("unknown algorithm");
  return algo->run(g, job, service::ExecContext{});
}

bool same_outcome(const service::JobOutcome& ref, const RequestRecord& r) {
  return r.status == "ok" && r.valid && ref.valid && r.n == ref.n &&
         r.color_digest == ref.color_digest && r.rounds == ref.rounds &&
         r.messages == ref.messages && r.bits == ref.total_bits;
}

std::uint64_t stat_u64(const harness::Json& stats, const char* section,
                       const char* key) {
  const harness::Json* j = &stats;
  if (section != nullptr) j = &stats.at(section);
  return j->at(key).as_uint();
}

RunResult run_serve(const RunOptions& opt, const WorkloadInfo& info,
                    SpanRecorder& rec, const std::string& scratch) {
  const std::string sock = scratch + "/serve.sock";
  std::unique_ptr<ServeState> st;
  std::vector<double> build_ms;
  const std::vector<double> setup_s = repeated_setup(st, [&](int k) {
    auto s = std::make_unique<ServeState>();
    const auto op = std::uint64_t(k);
    s->plan = make_serve_plan(opt.seed, opt.seconds);
    for (const Arrival& a : s->plan.arrivals) {
      s->lines.push_back(submit_line(s->plan.specs[a.spec]));
    }
    for (std::size_t r = 0; r < s->plan.hot; ++r) {
      s->refs.push_back(
          run_reference(s->plan.specs[r], rec, op, &s->build_ms));
      if (!s->refs.back().valid) {
        throw std::runtime_error("serve reference coloring is invalid");
      }
    }
    std::filesystem::remove(sock);
    s->server = std::make_unique<ChildProcess>(std::vector<std::string>{
        opt.bin_dir + "/ldc_serve", "--socket", sock, "--workers", "2"});
    s->client = std::make_unique<ServeClient>(sock, kServeSessions);
    // Warm the result cache with the hot set, checking every result.
    Span t(rec, "service.warmup", "service", op);
    const std::size_t first = s->client->requests().size();
    for (std::size_t r = 0; r < s->plan.hot; ++r) {
      s->client->submit(r % kServeSessions, std::uint32_t(r), now_ns(),
                        submit_line(s->plan.specs[r]));
    }
    s->client->wait_all(60);
    for (std::size_t r = 0; r < s->plan.hot; ++r) {
      if (!same_outcome(s->refs[r], s->client->requests()[first + r])) {
        throw std::runtime_error("ldc_serve warm-up result differs from "
                                 "its reference");
      }
    }
    build_ms.push_back(s->build_ms);
    return s;
  });

  ServeClient& client = *st->client;
  const pid_t server_pid = st->server->pid();
  const harness::Json stats0 = client.stats(10);
  const double cpu0 = proc_cpu_ms(server_pid);
  if (opt.fail_after_ops != 0) {
    throw std::runtime_error("injected failure before the send window");
  }
  const DriveResult drive = drive_open_loop(client, st->plan, st->lines, 60);
  const double cpu1 = proc_cpu_ms(server_pid);
  const harness::Json stats1 = client.stats(10);
  const double rss = peak_rss_mb() + peak_rss_mb(server_pid);
  client.shutdown(10);
  st->server->stop();

  RunResult out;
  out.tail_percentile = info.tail_percentile();
  std::vector<double> lat, hit, miss, admit;
  std::uint64_t ok = 0, cached = 0, results = 0;
  std::vector<std::size_t> cold;
  const std::vector<RequestRecord>& reqs = client.requests();
  for (std::size_t i = drive.first; i < drive.last; ++i) {
    const RequestRecord& r = reqs[i];
    ++out.attempted;
    if (r.result_ns != 0) ++results;
    bool good = false;
    if (r.spec < st->plan.hot) {
      good = same_outcome(st->refs[r.spec], r);
    } else {
      good = r.status == "ok" && r.valid && r.n == st->plan.specs[r.spec].graph.n;
      if (good) cold.push_back(i);
    }
    if (!good) {
      ++out.failed;
      continue;
    }
    ++ok;
    const double l = ms_between(r.due_ns, r.result_ns);
    lat.push_back(l);
    (r.cached ? hit : miss).push_back(l);
    if (r.cached) ++cached;
    if (r.admitted_ns != 0) admit.push_back(ms_between(r.sent_ns, r.admitted_ns));
    if (opt.trace) {
      const std::uint64_t id = i - drive.first;
      const auto parent = rec.add({"request", "service", r.due_ns, r.result_ns,
                                   -1, id, true});
      rec.add({"service.send_wait", "service", r.due_ns, r.sent_ns, parent,
               id, true});
      if (r.admitted_ns != 0) {
        rec.add({"service.admit", "service", r.sent_ns, r.admitted_ns, parent,
                 id, true});
        rec.add({"service.run", "service", r.admitted_ns, r.result_ns, parent,
                 id, true});
      }
    }
  }
  out.failed += client.protocol_errors();
  // Never-repeated specs have no set-up reference; recompute an evenly
  // spaced sample of them now, outside the timed window.
  for (std::size_t k = 0; k < kColdChecks && !cold.empty(); ++k) {
    check_interrupt();
    const RequestRecord& r = reqs[cold[k * cold.size() / kColdChecks]];
    const service::JobOutcome ref =
        run_reference(st->plan.specs[r.spec], rec, 0, nullptr);
    if (!same_outcome(ref, r)) ++out.failed;
    if (k + 1 >= cold.size()) break;
  }

  const double window_s = double(drive.end_ns - drive.start_ns) / 1e9;
  out.end_to_end = {
      {"setup_s", median(setup_s), "s", setup_s.size()},
      {"p50_ms", median(lat), "ms", lat.size(), false},
      {"tail_ms", percentile(lat, info.tail_percentile() / 100.0), "ms",
       lat.size(), false},
      {"throughput_per_s", double(ok) / std::max(window_s, 1e-9), "1/s", ok,
       false},
      {"peak_rss_mb", rss, "MiB", 2},
  };

  Layer layer;
  layer["graph.build_ms"] = med(build_ms);
  layer["service.admit_ms"] = med(admit);
  layer["service.hit_p50_ms"] = med(hit);
  layer["service.miss_p50_ms"] = med(miss);
  layer["service.miss_tail_ms"] = p99(miss);
  layer["service.hit_ratio"] = {ok == 0 ? 0.0 : double(cached) / double(ok), ok};
  layer["service.cpu_ms_per_job"] = {
      results == 0 ? 0.0 : (cpu1 - cpu0) / double(results), results};
  layer["service.rejected"] = {
      double(stat_u64(stats1, nullptr, "rejected") -
             stat_u64(stats0, nullptr, "rejected")),
      1};
  layer["service.evictions"] = {
      double(stat_u64(stats1, "cache", "evictions") -
             stat_u64(stats0, "cache", "evictions")),
      1};
  layer["service.sched_lag_ms"] = p99(drive.lateness_ms);
  // Request spans are built from timestamps the driver records in every
  // run, after the send window closed, so tracing adds nothing to a
  // request: the overhead is 0 by construction, not by measurement.
  layer["trace.overhead_frac"] = {0.0, 0};
  layer["trace.remainder_frac"] = remainder_of(rec, "request");
  out.per_layer = per_layer_of(layer);
  return out;
}

}  // namespace

RunResult run_workload(const RunOptions& opt, SpanRecorder& rec) {
  const auto& defs = workloads();
  const auto it = std::find_if(defs.begin(), defs.end(), [&](const auto& w) {
    return opt.workload == w.name;
  });
  if (it == defs.end()) {
    throw std::invalid_argument("unknown workload " + opt.workload);
  }
  const double probe = mem_probe_ns();
  ScratchDir scratch(opt.out_dir);
  RunResult out;
  if (opt.workload == "d1lc-serial") {
    out = run_d1lc(opt, *it, rec);
  } else if (opt.workload == "kw-sharded4") {
    out = run_kw(opt, *it, rec, scratch.path(), false);
  } else if (opt.workload == "kw-dist2") {
    out = run_kw(opt, *it, rec, scratch.path(), true);
  } else {
    out = run_serve(opt, *it, rec, scratch.path());
  }
  for (Metric& m : out.per_layer) {
    if (m.name == "host.mem_probe_ns") m = {m.name, probe, m.unit, 1};
  }
  return out;
}

}  // namespace pb
