// E16 (service) — the job-serving subsystem end to end.
//
// Two tables. The scripted table drives one Service at one worker with a
// pause/resume/drain discipline on a session gate, which makes every
// counter deterministic: a burst of 10 submissions against a 6-slot queue
// must reject exactly 4 (backpressure), a cancel issued while paused must
// land before the worker dequeues (cancelled, not run), and a
// reverse-order resubmit against a 4-entry cache must hit 4 times, miss
// once and evict twice (LRU). The emitted result stream is folded into one digest, and the
// greedy job's coloring digest is cross-checked against a direct
// closed-loop run of the same instance — the service must compute exactly
// what the harness computes. The throughput table scales workers and
// reports jobs/s as observational columns only.
#include "common.hpp"

#include <chrono>
#include <memory>
#include <mutex>

#include "ldc/baselines/greedy.hpp"
#include "ldc/service/service.hpp"

namespace {
using namespace ldc;

service::Job ring_job(const std::string& algo, std::uint32_t n,
                      std::uint64_t seed) {
  service::Job job;
  job.algorithm = algo;
  job.seed = seed;
  job.graph.family = "ring";
  job.graph.n = n;
  return job;
}

service::Job regular_job(const std::string& algo, std::uint32_t n,
                         std::uint32_t d, std::uint64_t gseed,
                         std::uint64_t seed) {
  service::Job job;
  job.algorithm = algo;
  job.seed = seed;
  job.graph.family = "regular";
  job.graph.n = n;
  job.graph.d = d;
  job.graph.seed = gseed;
  return job;
}

using bench::stream_digest;

void run(harness::ExperimentContext& ctx) {
  // ---- Scripted phase: deterministic counters at one worker. ----------
  auto& script = ctx.table(
      "E16a: scripted service session (1 worker, queue=6, cache=4 entries)",
      {"phase", "submitted", "admitted", "rejected", "ok", "cached",
       "cancelled", "evictions", "stream digest", "matches direct"});

  const std::vector<service::Job> burst = {
      ring_job("greedy", 48, 1),  ring_job("luby", 48, 5),
      ring_job("linial", 48, 1),  ring_job("kw", 48, 1),
      regular_job("d1lc", 48, 6, 9, 1), regular_job("greedy", 48, 6, 9, 1),
      ring_job("greedy", 48, 2),  ring_job("luby", 48, 6),
      ring_job("linial", 48, 2),  ring_job("kw", 48, 2),
  };

  service::ServiceConfig cfg;
  cfg.workers = 1;
  cfg.queue_capacity = 6;
  cfg.cache_bytes = 4 * service::ResultCache::kEntryBytes;

  std::vector<service::JobResult> results;
  std::mutex mu;
  service::Service svc(cfg, [&](const service::JobResult& r) {
    std::lock_guard<std::mutex> lock(mu);
    results.push_back(r);
  });

  // Burst while the session is paused: admission is decided before any
  // job runs, so the rejection count is a pure function of capacity.
  const auto gate = std::make_shared<service::SessionGate>();
  svc.pause_session(*gate);
  std::vector<std::uint64_t> admitted_ids;
  std::uint64_t rejected = 0;
  for (const auto& job : burst) {
    const auto a = svc.submit(job, {gate, nullptr});
    if (a.admitted) {
      admitted_ids.push_back(a.id);
    } else {
      ++rejected;
    }
  }
  // Cancel the last admitted job while it is still queued.
  svc.cancel(admitted_ids.back());
  svc.resume_session(*gate);
  svc.drain();

  const auto count = [&](const char* status, bool cached_only = false) {
    std::uint64_t c = 0;
    for (const auto& r : results) {
      if (r.status == status && (!cached_only || r.cached)) ++c;
    }
    return c;
  };
  const std::uint64_t burst_digest = stream_digest(results);

  // Cross-check: the service's greedy result on ring(48) must match a
  // direct closed-loop run of the identical instance.
  const auto [direct_digest, direct_record] = bench::closed_loop(
      ctx, gen::ring(48), "direct/greedy_ring48",
      [](Network&, const Graph&, const LdcInstance& inst) {
        const auto phi = baselines::greedy_list_coloring(inst);
        return phi ? service::coloring_digest(*phi) : 0;
      });
  (void)direct_record;
  bool matches = false;
  for (const auto& r : results) {
    if (r.id == admitted_ids.front()) {
      matches = r.outcome.color_digest == direct_digest;
    }
  }

  script.add_row({std::string("burst"), std::uint64_t{burst.size()},
                  std::uint64_t{admitted_ids.size()}, rejected, count("ok"),
                  count("ok", true), count("cancelled"), std::uint64_t{0},
                  burst_digest,
                  std::string(matches ? "ok" : "DIVERGED")});

  // Reverse-order resubmit of the five completed jobs: with a 4-entry
  // LRU the oldest insertion is already gone, so this hits 4, misses 1,
  // and the refill evicts once more (2 evictions total, both phases).
  results.clear();
  for (std::size_t i = 5; i-- > 0;) svc.submit(burst[i]);
  svc.drain();
  const auto stats = svc.stats(/*counters_only=*/true);
  const std::uint64_t evictions =
      stats.at("cache").at("evictions").as_uint();
  script.add_row({std::string("resubmit"), std::uint64_t{5},
                  std::uint64_t{5}, std::uint64_t{0}, count("ok"),
                  count("ok", true), std::uint64_t{0}, evictions,
                  stream_digest(results), std::string("-")});
  svc.shutdown();

  // ---- Throughput phase: observational scaling across workers. --------
  auto& scale = ctx.table(
      "E16b: service throughput vs workers (closed-loop clients)",
      {"workers", "jobs", "ok", "wall ms (obs)", "jobs/s (obs)"});
  const std::uint64_t jobs = ctx.pick<std::uint64_t>(60, 20);
  for (std::size_t workers :
       ctx.pick<std::vector<std::size_t>>({1, 2, 4}, {1, 2})) {
    service::ServiceConfig tcfg;
    tcfg.workers = workers;
    tcfg.queue_capacity = jobs;  // admission never the bottleneck here
    tcfg.cache_bytes = 0;        // measure compute, not cache luck
    std::atomic<std::uint64_t> ok{0};
    service::Service tsvc(tcfg, [&](const service::JobResult& r) {
      if (r.status == "ok" && r.outcome.valid) {
        ok.fetch_add(1, std::memory_order_relaxed);
      }
    });
    const auto start = std::chrono::steady_clock::now();
    for (std::uint64_t i = 0; i < jobs; ++i) {
      // Distinct seeds -> distinct digests: every job is real work.
      const char* algos[] = {"greedy", "luby", "linial", "kw"};
      tsvc.submit(ring_job(algos[i % 4], 64, 100 + i));
    }
    tsvc.drain();
    const auto stop = std::chrono::steady_clock::now();
    tsvc.shutdown();
    const double wall_ms =
        std::chrono::duration<double, std::milli>(stop - start).count();
    scale.add_row({std::uint64_t{workers}, jobs, ok.load(), wall_ms,
                   wall_ms > 0 ? 1000.0 * double(jobs) / wall_ms : 0.0});
  }
}

const harness::Registrar reg{{
    .name = "e16_service_throughput",
    .claim = "Service: scripted sessions are deterministic (backpressure, "
             "cancellation, LRU cache) and match direct closed-loop runs; "
             "throughput scales with workers",
    .axes = {"phase", "workers"},
    .run = run,
}};

}  // namespace
