// The job-serving subsystem: queue semantics, LRU cache accounting, job
// digests, latency histograms, end-to-end service behaviour (backpressure,
// cancellation, deadlines, caching, the thread-nesting policy) and the
// line-delimited JSON protocol including its determinism contract.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <sys/socket.h>
#include <unistd.h>

#include "ldc/service/cache.hpp"
#include "ldc/service/event_loop.hpp"
#include "ldc/service/job.hpp"
#include "ldc/service/metrics.hpp"
#include "ldc/service/queue.hpp"
#include "ldc/service/service.hpp"
#include "ldc/storage/registry.hpp"
#include "ldc/storage/stream_gen.hpp"
#include "ldc/support/bitio.hpp"
#include "thread_start_limit.hpp"

namespace ldc::service {
namespace {

// ---------------------------------------------------------------------------
// BoundedQueue

TEST(ServiceQueue, FifoWithBackpressure) {
  BoundedQueue<int> q(2);
  EXPECT_TRUE(q.try_push(1));
  EXPECT_TRUE(q.try_push(2));
  EXPECT_FALSE(q.try_push(3));  // full: the backpressure signal
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q.pop(), 1);  // strict FIFO
  EXPECT_TRUE(q.try_push(3));
  EXPECT_EQ(q.pop(), 2);
  EXPECT_EQ(q.pop(), 3);
}

TEST(ServiceQueue, CloseRejectsPushesAndDrains) {
  BoundedQueue<int> q(4);
  q.try_push(1);
  q.try_push(2);
  q.close();
  EXPECT_FALSE(q.try_push(3));  // closed: no new admissions
  EXPECT_EQ(q.pop(), 1);        // queued items still drain
  EXPECT_EQ(q.pop(), 2);
  EXPECT_EQ(q.pop(), std::nullopt);  // closed and empty: worker exit
}

TEST(ServiceQueue, GateSkipsBlockedItemsFifoWithinClass) {
  // A gated pop must skip undeliverable items but stay FIFO among the
  // deliverable ones.
  std::atomic<bool> evens_blocked{true};
  BoundedQueue<int> q(8, [&](const int& v) {
    return v % 2 != 0 || !evens_blocked.load();
  });
  q.try_push(2);
  q.try_push(1);
  q.try_push(4);
  q.try_push(3);
  EXPECT_EQ(q.pop(), 1);  // skips 2
  EXPECT_EQ(q.pop(), 3);  // skips 2 and 4
  evens_blocked.store(false);
  EXPECT_EQ(q.pop(), 2);  // gate lifted: original order restored
  EXPECT_EQ(q.pop(), 4);
}

TEST(ServiceQueue, ChangeGatesWakesBlockedPop) {
  std::atomic<bool> blocked{true};
  BoundedQueue<int> q(4, [&](const int&) { return !blocked.load(); });
  q.try_push(9);
  std::thread popper([&] { EXPECT_EQ(q.pop(), 9); });
  q.change_gates([&] { blocked.store(false); });  // wakes the sleeper
  popper.join();
}

// A gate flip must never land in the middle of a pop's scan. The gate
// below holds the scan right after it found item 1 closed, while another
// thread resumes: if the flip could complete then, the scan would find
// item 2 open and deliver it ahead of item 1, breaking FIFO within the
// gate class. With the flip under the queue mutex the resume waits for
// the scan, whose hold gives up after a grace period.
TEST(ServiceQueue, GateFlipNeverLandsMidScan) {
  using Clock = std::chrono::steady_clock;
  std::atomic<bool> paused{true};
  std::atomic<bool> held{false};      // the scan reached item 1
  std::atomic<bool> resuming{false};  // the resumer is calling in
  std::atomic<bool> resumed{false};   // the resume returned
  BoundedQueue<int> q(4, [&](const int& item) {
    const bool open = !paused.load();
    if (item == 1 && !held.exchange(true)) {
      while (!resuming.load()) std::this_thread::yield();
      const auto grace = Clock::now() + std::chrono::milliseconds(200);
      while (!resumed.load() && Clock::now() < grace) {
        std::this_thread::yield();
      }
    }
    return open;
  });
  q.try_push(1);
  q.try_push(2);
  std::thread resumer([&] {
    while (!held.load()) std::this_thread::yield();
    resuming.store(true);
    q.change_gates([&] { paused.store(false); });
    resumed.store(true);
  });
  EXPECT_EQ(q.pop(), 1);
  EXPECT_EQ(q.pop(), 2);
  resumer.join();
}

TEST(ServiceQueue, CloseOverridesGate) {
  // Shutdown must drain even permanently-gated items, otherwise a paused
  // session could keep the service from shutting down: its jobs still
  // complete.
  BoundedQueue<int> q(4, [](const int&) { return false; });
  q.try_push(5);
  q.close();
  EXPECT_EQ(q.pop(), 5);
  EXPECT_EQ(q.pop(), std::nullopt);
}

// ---------------------------------------------------------------------------
// ResultCache

JobOutcome outcome_with_digest(std::uint64_t d) {
  JobOutcome o;
  o.valid = true;
  o.color_digest = d;
  return o;
}

TEST(ServiceCache, LruEvictionUnderByteBudget) {
  ResultCache cache(2 * ResultCache::kEntryBytes);
  cache.put(1, outcome_with_digest(11));
  cache.put(2, outcome_with_digest(22));
  EXPECT_EQ(cache.stats().entries, 2u);
  EXPECT_EQ(cache.stats().bytes, 2 * ResultCache::kEntryBytes);

  ASSERT_TRUE(cache.get(1).has_value());  // refreshes 1 -> MRU
  cache.put(3, outcome_with_digest(33));  // evicts 2 (the LRU)
  EXPECT_FALSE(cache.get(2).has_value());
  ASSERT_TRUE(cache.get(1).has_value());
  EXPECT_EQ(cache.get(1)->color_digest, 11u);
  ASSERT_TRUE(cache.get(3).has_value());

  const auto s = cache.stats();
  EXPECT_EQ(s.evictions, 1u);
  EXPECT_EQ(s.insertions, 3u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.entries, 2u);
}

TEST(ServiceCache, OverwriteRefreshes) {
  ResultCache cache(2 * ResultCache::kEntryBytes);
  cache.put(1, outcome_with_digest(11));
  cache.put(2, outcome_with_digest(22));
  cache.put(1, outcome_with_digest(99));  // overwrite, 1 becomes MRU
  cache.put(3, outcome_with_digest(33));  // evicts 2
  EXPECT_EQ(cache.get(1)->color_digest, 99u);
  EXPECT_FALSE(cache.get(2).has_value());
  EXPECT_EQ(cache.stats().entries, 2u);
}

TEST(ServiceCache, ZeroBudgetDisablesCaching) {
  ResultCache cache(0);
  cache.put(1, outcome_with_digest(11));
  EXPECT_FALSE(cache.get(1).has_value());
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.stats().insertions, 0u);
}

// ---------------------------------------------------------------------------
// Job spec + digest

Job parse_job(const std::string& text) {
  return job_from_json(harness::Json::parse(text));
}

TEST(ServiceJob, DigestIgnoresParamOrderAndDeadline) {
  const Job a = parse_job(
      R"({"algorithm":"d1lc","graph":{"family":"ring","n":32},)"
      R"("params":{"alpha":1,"beta":2}})");
  const Job b = parse_job(
      R"({"algorithm":"d1lc","graph":{"family":"ring","n":32},)"
      R"("params":{"beta":2,"alpha":1},"deadline_ms":500})");
  // Same work, so same digest: the deadline decides *whether* the job
  // runs, never *what* it computes.
  EXPECT_EQ(a.digest(), b.digest());
  EXPECT_EQ(a.canonical(), b.canonical());
}

TEST(ServiceJob, DigestSeparatesDistinctWork) {
  const Job base = parse_job(
      R"({"algorithm":"luby","graph":{"family":"ring","n":32},"seed":1})");
  const Job seed = parse_job(
      R"({"algorithm":"luby","graph":{"family":"ring","n":32},"seed":2})");
  const Job algo = parse_job(
      R"({"algorithm":"kw","graph":{"family":"ring","n":32},"seed":1})");
  const Job graph = parse_job(
      R"({"algorithm":"luby","graph":{"family":"ring","n":33},"seed":1})");
  EXPECT_NE(base.digest(), seed.digest());
  EXPECT_NE(base.digest(), algo.digest());
  EXPECT_NE(base.digest(), graph.digest());
}

TEST(ServiceJob, RoundTripsThroughWireForm) {
  const Job a = parse_job(
      R"({"algorithm":"d1lc","graph":{"family":"regular","n":48,"d":6,)"
      R"("seed":9,"id_bits":16},"seed":3,"deadline_ms":100,)"
      R"("params":{"reduction_levels":2}})");
  const Job b = job_from_json(job_to_json(a));
  EXPECT_EQ(a.digest(), b.digest());
  EXPECT_EQ(a.deadline_ms, b.deadline_ms);
}

TEST(ServiceJob, ParseErrorsNameTheField) {
  const char* bad[] = {
      R"({"graph":{"family":"ring","n":8}})",              // no algorithm
      R"({"algorithm":"kw"})",                             // no graph
      R"({"algorithm":"kw","graph":{"n":8}})",             // no family
      R"({"algorithm":"kw","graph":{"family":"ring","n":8},"params":3})",
      R"({"algorithm":"kw","graph":{"family":"ring","n":8},)"
      R"("params":{"x":"y"}})",                            // non-integer param
      R"([1,2])",                                          // not an object
  };
  for (const char* text : bad) {
    EXPECT_THROW(parse_job(text), JobSpecError) << text;
  }
}

TEST(ServiceJob, BuildGraphRejectsBadSpecs) {
  const char* bad[] = {
      R"({"algorithm":"kw","graph":{"family":"moebius","n":8}})",
      R"({"algorithm":"kw","graph":{"family":"ring","n":2}})",   // ring n<3
      R"({"algorithm":"kw","graph":{"family":"ring","n":2000000}})",
      R"({"algorithm":"kw","graph":{"family":"gnp","n":64,"p":1.5}})",
      R"({"algorithm":"kw","graph":{"family":"regular","n":9,"d":3}})",
      R"({"algorithm":"kw","graph":{"family":"regular","n":8,"d":9}})",
      R"({"algorithm":"kw","graph":{"family":"file"}})",        // no path
      R"({"algorithm":"kw","graph":{"family":"ring","n":64,"id_bits":4}})",
  };
  for (const char* text : bad) {
    EXPECT_THROW(build_graph(parse_job(text).graph), JobSpecError) << text;
  }
  const Job ok = parse_job(
      R"({"algorithm":"kw","graph":{"family":"torus","w":4,"h":5,"n":20}})");
  EXPECT_EQ(build_graph(ok.graph).n(), 20u);
}

TEST(ServiceJob, DuplicateParamsRejected) {
  Job job;
  job.algorithm = "kw";
  job.params = {{"x", 1}, {"x", 2}};
  EXPECT_THROW(job.normalize(), JobSpecError);
}

// ---------------------------------------------------------------------------
// LatencyHistogram

TEST(ServiceMetrics, HistogramPercentiles) {
  LatencyHistogram h;
  EXPECT_EQ(h.percentile_ns(0.5), 0u);  // empty
  for (int i = 0; i < 90; ++i) h.add(1'000);      // ~1us bucket
  for (int i = 0; i < 10; ++i) h.add(1'000'000);  // ~1ms bucket
  EXPECT_EQ(h.count(), 100u);
  EXPECT_LT(h.percentile_ns(0.50), 10'000u);
  EXPECT_GT(h.percentile_ns(0.95), 500'000u);
  EXPECT_GT(h.percentile_ns(0.99), 500'000u);
  const harness::Json j = h.to_json();
  EXPECT_EQ(j.at("count").as_uint(), 100u);
  EXPECT_GT(j.at("p95_ms").as_double(), 0.5);
}

TEST(ServiceMetrics, HistogramZeroSampleLandsInBucketZero) {
  // add(0) must be well-defined: bucket 0 holds [0, 2), reported upper
  // bound 1 ns — not a shift past the bucket array.
  LatencyHistogram h;
  h.add(0);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.percentile_ns(0.0), 1u);
  EXPECT_EQ(h.percentile_ns(0.5), 1u);
  EXPECT_EQ(h.percentile_ns(1.0), 1u);
}

TEST(ServiceMetrics, HistogramAllEqualSamplesReportTheirBucketBound) {
  // Every quantile of an all-equal stream is that value's bucket bound:
  // bucket_of(5000) = 12, upper bound 2^13 - 1 = 8191.
  LatencyHistogram h;
  for (int i = 0; i < 1000; ++i) h.add(5'000);
  for (double q : {0.50, 0.95, 0.99}) {
    EXPECT_EQ(h.percentile_ns(q), 8191u) << "q=" << q;
  }
}

TEST(ServiceMetrics, HistogramTailQuantileOfTwoSamplesIsTheMax) {
  // Nearest-rank regression: the q-quantile sample has rank ceil(q*count),
  // so p99 of two samples is rank 2 — the larger one. The previous
  // floor(q*(count-1))+1 rank picked rank 1 and reported the minimum.
  LatencyHistogram h;
  h.add(1);
  h.add(1'000'000);
  EXPECT_EQ(h.percentile_ns(0.99), (1u << 20) - 1);  // 1e6's bucket bound
  EXPECT_EQ(h.percentile_ns(0.50), 1u);              // rank 1: the min
}

// ---------------------------------------------------------------------------
// Service end-to-end

Job ring_job(const std::string& algo, std::uint32_t n, std::uint64_t seed) {
  Job job;
  job.algorithm = algo;
  job.seed = seed;
  job.graph.family = "ring";
  job.graph.n = n;
  return job;
}

/// Collects results thread-safely and hands them back after a drain.
struct Collector {
  std::vector<JobResult> results;
  std::mutex mu;
  Service::ResultCallback callback() {
    return [this](const JobResult& r) {
      std::lock_guard<std::mutex> lock(mu);
      results.push_back(r);
    };
  }
  const JobResult* by_id(std::uint64_t id) const {
    for (const auto& r : results) {
      if (r.id == id) return &r;
    }
    return nullptr;
  }
};

TEST(Service, RunsJobsAndServesCacheHits) {
  ServiceConfig cfg;
  cfg.workers = 1;
  Collector c;
  Service svc(cfg, c.callback());

  const auto a1 = svc.submit(ring_job("greedy", 24, 1));
  ASSERT_TRUE(a1.admitted);
  svc.drain();  // barrier: the first run must be in the cache
  const auto a2 = svc.submit(ring_job("greedy", 24, 1));
  ASSERT_TRUE(a2.admitted);
  svc.drain();
  svc.shutdown();

  ASSERT_EQ(c.results.size(), 2u);
  const JobResult* first = c.by_id(a1.id);
  const JobResult* second = c.by_id(a2.id);
  ASSERT_NE(first, nullptr);
  ASSERT_NE(second, nullptr);
  EXPECT_EQ(first->status, "ok");
  EXPECT_FALSE(first->cached);
  EXPECT_TRUE(second->cached);
  EXPECT_TRUE(second->outcome.valid);
  EXPECT_EQ(first->outcome.color_digest, second->outcome.color_digest);
  EXPECT_EQ(first->digest, second->digest);

  const auto stats = svc.stats(/*counters_only=*/true);
  EXPECT_EQ(stats.at("admitted").as_uint(), 2u);
  EXPECT_EQ(stats.at("completed").as_uint(), 2u);
  EXPECT_EQ(stats.at("cache").at("hits").as_uint(), 1u);
}

TEST(Service, BackpressureRejectsDeterministically) {
  ServiceConfig cfg;
  cfg.workers = 1;
  cfg.queue_capacity = 2;
  Collector c;
  Service svc(cfg, c.callback());

  // Paused, admission is decided before any job runs: exactly
  // (submissions - capacity) rejections regardless of worker timing.
  const auto gate = std::make_shared<SessionGate>();
  svc.pause_session(*gate);
  std::uint64_t rejected = 0;
  for (std::uint64_t s = 1; s <= 5; ++s) {
    const auto a = svc.submit(ring_job("luby", 16, s), {gate, nullptr});
    if (!a.admitted) {
      ++rejected;
      EXPECT_EQ(a.reason, "queue full");
    }
  }
  EXPECT_EQ(rejected, 3u);
  svc.resume_session(*gate);
  svc.drain();
  svc.shutdown();
  EXPECT_EQ(c.results.size(), 2u);
  for (const auto& r : c.results) EXPECT_EQ(r.status, "ok");
}

TEST(Service, CancelsQueuedJobBeforeItRuns) {
  ServiceConfig cfg;
  cfg.workers = 1;
  Collector c;
  Service svc(cfg, c.callback());
  const auto gate = std::make_shared<SessionGate>();
  svc.pause_session(*gate);
  const auto a = svc.submit(ring_job("kw", 16, 1), {gate, nullptr});
  ASSERT_TRUE(a.admitted);
  EXPECT_TRUE(svc.cancel(a.id));
  EXPECT_FALSE(svc.cancel(a.id + 99));  // unknown id
  svc.resume_session(*gate);
  svc.drain();
  ASSERT_EQ(c.results.size(), 1u);
  EXPECT_EQ(c.results[0].status, "cancelled");
  EXPECT_FALSE(svc.cancel(a.id));  // already finished
  svc.shutdown();
  EXPECT_EQ(svc.stats(true).at("cancelled").as_uint(), 1u);
}

TEST(Service, SessionGatePausesOnlyThatSession) {
  // Per-session gates are what lets the event-loop frontend scope
  // pause/resume to one client on a shared queue: a gated session's
  // jobs sit in the queue while other sessions' jobs flow around them.
  ServiceConfig cfg;
  cfg.workers = 1;
  cfg.cache_bytes = 0;
  Service svc(cfg);

  auto gate_a = std::make_shared<SessionGate>();
  auto gate_b = std::make_shared<SessionGate>();
  std::mutex mu;
  std::condition_variable cv;
  std::vector<std::string> done;
  auto finish = [&](std::string name) {
    return [&, name](const JobResult&) {
      std::lock_guard<std::mutex> lock(mu);
      done.push_back(name);
      cv.notify_all();
    };
  };

  svc.pause_session(*gate_a);
  SubmitOptions oa;
  oa.gate = gate_a;
  oa.on_result = finish("a");
  ASSERT_TRUE(svc.submit(ring_job("greedy", 16, 1), std::move(oa)).admitted);
  SubmitOptions ob;
  ob.gate = gate_b;
  ob.on_result = finish("b");
  ASSERT_TRUE(svc.submit(ring_job("greedy", 16, 2), std::move(ob)).admitted);

  // B overtakes A even though A was submitted first: only A is gated.
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return !done.empty(); });
    EXPECT_EQ(done[0], "b");
  }
  svc.resume_session(*gate_a);
  svc.drain();
  svc.shutdown();
  std::lock_guard<std::mutex> lock(mu);
  ASSERT_EQ(done.size(), 2u);
  EXPECT_EQ(done[1], "a");
}

TEST(Service, PerJobCallbackOverridesGlobalCallback) {
  ServiceConfig cfg;
  cfg.workers = 1;
  Collector c;
  Service svc(cfg, c.callback());
  std::atomic<std::uint64_t> routed{0};
  SubmitOptions opts;
  opts.on_result = [&](const JobResult&) {
    routed.fetch_add(1, std::memory_order_relaxed);
  };
  ASSERT_TRUE(svc.submit(ring_job("greedy", 16, 1), std::move(opts)).admitted);
  ASSERT_TRUE(svc.submit(ring_job("greedy", 16, 2)).admitted);
  svc.drain();
  svc.shutdown();
  // The per-job result went to its own callback, not the global sink.
  EXPECT_EQ(routed.load(), 1u);
  EXPECT_EQ(c.results.size(), 1u);
}

TEST(Service, RejectsAfterShutdown) {
  ServiceConfig cfg;
  Collector c;
  Service svc(cfg, c.callback());
  svc.shutdown();
  const auto a = svc.submit(ring_job("greedy", 8, 1));
  EXPECT_FALSE(a.admitted);
  EXPECT_EQ(a.reason, "shutting down");
}

// Test-only algorithms for the cancellation paths. Registered once in the
// process-wide registry under names no real client uses.
std::atomic<int> g_spins_started{0};  ///< test_spin jobs that began rounds

void register_test_algorithms() {
  static std::once_flag once;
  std::call_once(once, [] {
    auto& r = AlgorithmRegistry::instance();
    r.add({"test_spin", "spins exchange rounds until cancelled",
           [](const Graph& g, const Job&, const ExecContext& exec)
               -> JobOutcome {
             Network net(g);
             exec.configure(net);
             BitWriter w;
             w.write(1, 1);
             const std::vector<BitWriter> msgs(g.n(), w);
             g_spins_started.fetch_add(1, std::memory_order_release);
             // Unbounded on purpose: only the round-boundary cancellation
             // hook can end this job. A broken hook hangs the test.
             for (;;) net.exchange_broadcast(msgs);
           }});
    r.add({"test_sleepy", "sleeps, then runs a few rounds",
           [](const Graph& g, const Job& job, const ExecContext& exec) {
             Network net(g);
             exec.configure(net);
             std::this_thread::sleep_for(
                 std::chrono::milliseconds(job.param_or("sleep_ms", 30)));
             BitWriter w;
             w.write(1, 1);
             const std::vector<BitWriter> msgs(g.n(), w);
             for (int i = 0; i < 4; ++i) net.exchange_broadcast(msgs);
             JobOutcome out;
             out.valid = true;
             out.n = g.n();
             out.rounds = net.metrics().rounds;
             return out;
           }});
  });
}

TEST(Service, CancelsRunningJobAtRoundBoundary) {
  register_test_algorithms();
  ServiceConfig cfg;
  cfg.workers = 1;
  Collector c;
  Service svc(cfg, c.callback());
  g_spins_started.store(0);
  const auto a = svc.submit(ring_job("test_spin", 4, 1));
  ASSERT_TRUE(a.admitted);
  while (g_spins_started.load(std::memory_order_acquire) < 1) {
    std::this_thread::yield();
  }
  // The job is provably mid-run now; cancellation must land at its next
  // exchange instead of waiting for (non-existent) completion.
  EXPECT_TRUE(svc.cancel(a.id));
  svc.drain();
  svc.shutdown();
  ASSERT_EQ(c.results.size(), 1u);
  EXPECT_EQ(c.results[0].status, "cancelled");
}

TEST(Service, RunsOneJobPerWorkerAtOnce) {
  // Each lane runs a whole job: three jobs that only cancellation ends
  // are all mid-run at once on three workers, none waiting behind another.
  register_test_algorithms();
  ServiceConfig cfg;
  cfg.workers = 3;
  Collector c;
  Service svc(cfg, c.callback());
  EXPECT_EQ(svc.workers(), 3u);
  g_spins_started.store(0);
  std::vector<std::uint64_t> ids;
  for (std::uint64_t s = 1; s <= 3; ++s) {
    const auto a = svc.submit(ring_job("test_spin", 4, s));
    ASSERT_TRUE(a.admitted);
    ids.push_back(a.id);
  }
  // Bounded, so that lanes which do not run at once fail the test instead
  // of hanging it: cancelling still ends the queued jobs at dequeue.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (g_spins_started.load(std::memory_order_acquire) < 3 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  EXPECT_EQ(g_spins_started.load(), 3) << "the jobs never ran at once";
  for (const std::uint64_t id : ids) EXPECT_TRUE(svc.cancel(id));
  svc.drain();
  svc.shutdown();
  ASSERT_EQ(c.results.size(), 3u);
  for (const auto& r : c.results) EXPECT_EQ(r.status, "cancelled");
}

TEST(Service, ZeroWorkersResolveToDefault) {
  ASSERT_EQ(setenv("LDC_THREADS", "3", 1), 0);
  ServiceConfig cfg;
  cfg.workers = 0;
  Service svc(cfg);
  EXPECT_EQ(svc.workers(), 3u);
  ASSERT_EQ(unsetenv("LDC_THREADS"), 0);
}

// Jobs run on an in-process engine: a service configured for kDist is a
// typed error at construction, before any lane starts.
TEST(Service, RejectsTheDistEngine) {
  ServiceConfig cfg;
  cfg.job_engine = Network::Engine::kDist;
  EXPECT_THROW(Service svc(cfg), std::invalid_argument);
}

// A service whose worker threads cannot all start must throw from its
// constructor, leaving no thread behind. The child caps its address space
// so that only about three of the sixteen lanes' stacks fit.
TEST(ServiceDeathTest, FailedWorkerStartThrows) {
  if (!kCanLimitThreadStarts) {
    GTEST_SKIP() << "sanitizer shadow memory defeats RLIMIT_AS";
  }
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_EXIT(
      {
        leave_room_for_thread_stacks(3);
        try {
          ServiceConfig cfg;
          cfg.workers = 16;
          Service svc(cfg);
        } catch (...) {
          std::_Exit(0);
        }
        std::_Exit(1);  // every lane started: the cap did not bite
      },
      ::testing::ExitedWithCode(0), "");
}

TEST(Service, DeadlineMissedAtRoundBoundary) {
  register_test_algorithms();
  ServiceConfig cfg;
  cfg.workers = 1;
  Collector c;
  Service svc(cfg, c.callback());
  Job job = ring_job("test_sleepy", 4, 1);
  job.deadline_ms = 1;  // expires during the 30ms sleep
  const auto a = svc.submit(job);
  ASSERT_TRUE(a.admitted);
  svc.drain();
  svc.shutdown();
  ASSERT_EQ(c.results.size(), 1u);
  EXPECT_EQ(c.results[0].status, "deadline_missed");
  EXPECT_EQ(svc.stats(true).at("deadline_missed").as_uint(), 1u);
}

// A d1lc job on an 8-regular graph spends nearly all its rounds in
// Theorem 1.3's sub-runs. Their rounds reach the job's round callback, so
// the deadline ends the job there, not when the whole run is over.
TEST(Service, D1lcDeadlineStopsInsideSubRuns) {
  ServiceConfig cfg;
  cfg.workers = 1;
  Collector c;
  Service svc(cfg, c.callback());
  Job job;
  job.algorithm = "d1lc";
  job.graph.family = "regular";
  job.graph.n = 4096;
  job.graph.d = 8;
  job.deadline_ms = 20;
  const auto submitted = std::chrono::steady_clock::now();
  ASSERT_TRUE(svc.submit(job).admitted);
  svc.drain();
  const auto elapsed = std::chrono::steady_clock::now() - submitted;
  svc.shutdown();
  ASSERT_EQ(c.results.size(), 1u);
  EXPECT_EQ(c.results[0].status, "deadline_missed");
  EXPECT_LT(elapsed, std::chrono::seconds(1));
}

TEST(Service, FailedJobReportsErrorNotCrash) {
  ServiceConfig cfg;
  Collector c;
  Service svc(cfg, c.callback());
  Job job;
  job.algorithm = "no_such_algorithm";
  job.graph.family = "ring";
  job.graph.n = 8;
  const auto a = svc.submit(job);
  ASSERT_TRUE(a.admitted);
  svc.drain();
  svc.shutdown();
  ASSERT_EQ(c.results.size(), 1u);
  EXPECT_EQ(c.results[0].status, "failed");
  EXPECT_NE(c.results[0].error.find("no_such_algorithm"),
            std::string::npos);
}

TEST(Service, NestingPolicyParallelJobsInsideWorkerPool) {
  // The documented nesting contract: pool lanes run whole jobs; a job may
  // itself run on K shard threads (each Network owns a private crew).
  // The engine choice must not change any model-exact result.
  const std::vector<Job> jobs = {
      ring_job("linial", 32, 1), ring_job("kw", 32, 1),
      ring_job("luby", 32, 7), ring_job("greedy", 32, 1)};

  auto run_with = [&](Network::Engine engine, std::size_t job_shards) {
    ServiceConfig cfg;
    cfg.workers = 2;  // concurrent whole jobs ...
    cfg.job_engine = engine;
    cfg.job_shards = job_shards;  // ... each itself parallel
    cfg.cache_bytes = 0;  // force real computation in both configurations
    Collector c;
    Service svc(cfg, c.callback());
    for (const auto& j : jobs) EXPECT_TRUE(svc.submit(j).admitted);
    svc.drain();
    svc.shutdown();
    std::vector<std::pair<std::uint64_t, std::uint64_t>> out;
    for (const auto& r : c.results) {
      EXPECT_EQ(r.status, "ok");
      EXPECT_TRUE(r.outcome.valid);
      out.emplace_back(r.digest, r.outcome.color_digest);
    }
    std::sort(out.begin(), out.end());
    return out;
  };

  const auto serial = run_with(Network::Engine::kSerial, 1);
  const auto nested = run_with(Network::Engine::kSharded, 2);
  EXPECT_EQ(serial, nested);
}

// ---------------------------------------------------------------------------
// Protocol

void write_all(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::write(fd, data.data() + off, data.size() - off);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) return;
    off += static_cast<std::size_t>(n);
  }
}

std::string read_all(int fd) {
  std::string out;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof buf);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return out;
    out.append(buf, static_cast<std::size_t>(n));
  }
}

/// Runs `script` as one session through EventLoopServer::run_session (the
/// entry point of ldc_serve's stdin/stdout transport) over a socketpair,
/// with a fresh server built from `cfg`; returns the session's output.
std::string serve_script(const std::string& script,
                         const ServiceConfig& cfg) {
  int sv[2];
  EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  std::string out;
  std::thread client([&] {
    write_all(sv[0], script);
    ::shutdown(sv[0], SHUT_WR);  // EOF after the script
    out = read_all(sv[0]);
  });
  {
    // Heap-allocated: TSan only forgets a mutex's lock-order state when
    // its memory is freed, and back-to-back servers on the stack would
    // alias addresses into phantom inversion cycles.
    const auto server =
        std::make_unique<EventLoopServer>(cfg, EventLoopOptions{});
    server->run_session(sv[1], sv[1]);
  }
  client.join();
  ::close(sv[0]);
  return out;
}

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line)) lines.push_back(line);
  return lines;
}

const char* kScript =
    R"({"op":"pause"}
{"op":"submit","job":{"algorithm":"greedy","graph":{"family":"ring","n":16}},"tag":"g"}
{"op":"submit","job":{"algorithm":"linial","graph":{"family":"ring","n":16}}}
{"op":"submit","job":{"algorithm":"kw","graph":{"family":"ring","n":16}}}
{"op":"resume"}
{"op":"drain"}
{"op":"submit","job":{"algorithm":"greedy","graph":{"family":"ring","n":16}},"tag":"dup"}
{"op":"drain"}
{"op":"stats","counters_only":true}
{"op":"shutdown"}
)";

ServiceConfig script_config(std::size_t workers) {
  ServiceConfig cfg;
  cfg.workers = workers;
  cfg.queue_capacity = 2;  // third burst submit must bounce
  return cfg;
}

TEST(ServiceProtocol, ScriptedSessionIsByteDeterministic) {
  const std::string run1 = serve_script(kScript, script_config(1));
  const std::string run2 = serve_script(kScript, script_config(1));
  EXPECT_EQ(run1, run2);  // byte-identical at one worker

  EXPECT_NE(run1.find("\"event\":\"rejected\""), std::string::npos) << run1;
  EXPECT_NE(run1.find("\"reason\":\"queue full\""), std::string::npos);
  EXPECT_NE(run1.find("\"cached\":true"), std::string::npos);
  EXPECT_NE(run1.find("\"tag\":\"dup\""), std::string::npos);
  EXPECT_NE(run1.find("\"event\":\"bye\""), std::string::npos);
  // Every line is one parseable document (the framing contract).
  for (const auto& line : lines_of(run1)) {
    EXPECT_NO_THROW(harness::Json::parse_line(line)) << line;
  }
}

TEST(ServiceProtocol, WorkerCountChangesOrderNotContent) {
  // At 7 workers only interleaving may change: the multiset of emitted
  // lines must match the one-worker run exactly (rejections and cache
  // hits stay deterministic thanks to the pause/drain discipline).
  auto sorted = [](const std::string& text) {
    auto l = lines_of(text);
    std::sort(l.begin(), l.end());
    return l;
  };
  const auto one = sorted(serve_script(kScript, script_config(1)));
  const auto seven = sorted(serve_script(kScript, script_config(7)));
  EXPECT_EQ(one, seven);
}

TEST(ServiceProtocol, MalformedInputNeverKillsTheSession) {
  const char* script =
      "{oops\n"
      "\n"
      "{\"op\":42}\n"
      "{\"noop\":1}\n"
      "{\"op\":\"frobnicate\"}\n"
      "{\"op\":\"submit\"}\n"
      "{\"op\":\"submit\",\"job\":{\"algorithm\":\"kw\",\"graph\":"
      "{\"family\":\"moebius\",\"n\":8}}}\n"
      "{\"op\":\"cancel\"}\n"
      "{\"op\":\"submit\",\"job\":{\"algorithm\":\"greedy\",\"graph\":"
      "{\"family\":\"ring\",\"n\":8}}}\n"
      "{\"op\":\"shutdown\"}\n";
  ServiceConfig cfg;
  cfg.workers = 1;
  const std::string out = serve_script(script, cfg);
  // One error per bad line...
  std::size_t errors = 0;
  for (const auto& line : lines_of(out)) {
    errors += line.find("\"event\":\"error\"") != std::string::npos;
  }
  EXPECT_EQ(errors, 7u) << out;
  // ...and the session still served the valid job afterwards. The unknown
  // graph family is rejected at job build time, i.e. a failed *result*
  // would also be acceptable — here the spec parser catches it earlier.
  EXPECT_NE(out.find("\"status\":\"ok\""), std::string::npos) << out;
  EXPECT_NE(out.find("\"event\":\"bye\""), std::string::npos);
}

TEST(ServiceProtocol, EofTriggersGracefulDrain) {
  // No shutdown op: the script just ends. Every admitted job must still
  // emit its result before the final bye.
  const char* script =
      "{\"op\":\"submit\",\"job\":{\"algorithm\":\"greedy\",\"graph\":"
      "{\"family\":\"ring\",\"n\":12}}}\n"
      "{\"op\":\"submit\",\"job\":{\"algorithm\":\"kw\",\"graph\":"
      "{\"family\":\"ring\",\"n\":12}}}\n";
  ServiceConfig cfg;
  cfg.workers = 2;
  const std::string out = serve_script(script, cfg);
  const auto lines = lines_of(out);
  ASSERT_FALSE(lines.empty());
  EXPECT_EQ(lines.back(), R"({"event":"bye"})");
  std::size_t results = 0;
  for (const auto& line : lines) {
    results += line.find("\"event\":\"result\"") != std::string::npos;
  }
  EXPECT_EQ(results, 2u) << out;
}

TEST(ServiceProtocol, StdioSessionRestoresDescriptorFlags) {
  // ldc_serve hands fds 0 and 1 to run_session, and they share open file
  // descriptions with the parent shell. Pipes stand in for them, and the
  // session gets dups, so the flags it must restore are visible here.
  int in[2], out[2];
  ASSERT_EQ(::pipe(in), 0);
  ASSERT_EQ(::pipe(out), 0);
  // One side starts non-blocking, so "restored" is not just "cleared".
  ASSERT_EQ(::fcntl(out[1], F_SETFL, ::fcntl(out[1], F_GETFL) | O_NONBLOCK),
            0);
  const int in_flags = ::fcntl(in[0], F_GETFL);
  const int out_flags = ::fcntl(out[1], F_GETFL);
  ASSERT_EQ(in_flags & O_NONBLOCK, 0);
  ASSERT_NE(out_flags & O_NONBLOCK, 0);

  write_all(in[1],
            "{\"op\":\"submit\",\"job\":{\"algorithm\":\"greedy\","
            "\"graph\":{\"family\":\"ring\",\"n\":12}}}\n");
  ::close(in[1]);  // EOF after the script
  std::string got;
  std::thread reader([&] { got = read_all(out[0]); });
  {
    ServiceConfig cfg;
    cfg.workers = 1;
    const auto server =
        std::make_unique<EventLoopServer>(cfg, EventLoopOptions{});
    server->run_session(::dup(in[0]), ::dup(out[1]));
    EXPECT_EQ(::fcntl(in[0], F_GETFL), in_flags);
    EXPECT_EQ(::fcntl(out[1], F_GETFL), out_flags);
  }
  ::close(out[1]);  // the session closed its dup: the reader sees EOF
  reader.join();
  ::close(in[0]);
  ::close(out[0]);
  const auto lines = lines_of(got);
  ASSERT_EQ(lines.size(), 3u) << got;
  EXPECT_NE(lines[1].find("\"status\":\"ok\""), std::string::npos);
  EXPECT_EQ(lines.back(), R"({"event":"bye"})");
}

// ---------------------------------------------------------------------------
// Corpus-served jobs

/// Writes a streamed corpus named `name` into its own fresh directory and
/// removes both on teardown.
struct CorpusFixture {
  std::string dir;
  std::string name;
  storage::CorpusMeta meta;
  CorpusFixture(const std::string& tag, const storage::gen::StreamSpec& spec) {
    dir = testing::TempDir() + "svc_corpus_" + tag;
    std::filesystem::create_directories(dir);
    name = "g_" + tag;
    meta = storage::gen::write_corpus(spec, path());
  }
  std::string path() const {
    return dir + "/" + name + storage::kCorpusExtension;
  }
  ~CorpusFixture() {
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
  }
};

Job corpus_job(const std::string& name, const std::string& algo = "greedy") {
  Job job;
  job.algorithm = algo;
  job.graph.family = "corpus";
  job.graph.corpus = name;
  return job;
}

TEST(ServiceCorpus, RunsJobsFromMappedCorpusAndCachesByContent) {
  CorpusFixture fx("cache", storage::gen::stream_random_regular(512, 4, 7));
  ServiceConfig cfg;
  cfg.workers = 1;
  cfg.corpus_dir = fx.dir;
  Collector c;
  Service svc(cfg, c.callback());

  const auto a1 = svc.submit(corpus_job(fx.name));
  ASSERT_TRUE(a1.admitted);
  svc.drain();
  const auto a2 = svc.submit(corpus_job(fx.name));
  ASSERT_TRUE(a2.admitted);
  svc.drain();
  svc.shutdown();

  ASSERT_EQ(c.results.size(), 2u);
  const JobResult* first = c.by_id(a1.id);
  const JobResult* second = c.by_id(a2.id);
  ASSERT_NE(first, nullptr);
  ASSERT_NE(second, nullptr);
  EXPECT_EQ(first->status, "ok");
  EXPECT_TRUE(first->outcome.valid);
  EXPECT_FALSE(first->cached);
  EXPECT_TRUE(second->cached);  // build once, serve many
  EXPECT_EQ(first->digest, second->digest);
  // The admission echoes the service's content-keyed digest; clients
  // cannot compute it from the spec alone.
  EXPECT_EQ(a1.digest, first->digest);
  EXPECT_EQ(a2.digest, a1.digest);
}

TEST(ServiceCorpus, DigestIsKeyedByContentNotName) {
  // Same corpus NAME, different content -> different job digest (a stale
  // cache entry can never be served for regenerated data). Same content
  // under a different name -> same digest (renames don't bust the cache).
  CorpusFixture a("da", storage::gen::stream_ring(256, 1));
  CorpusFixture b("db", storage::gen::stream_ring(512, 1));
  CorpusFixture c("dc", storage::gen::stream_ring(256, 1));
  ASSERT_NE(a.meta.content_digest, b.meta.content_digest);
  ASSERT_EQ(a.meta.content_digest, c.meta.content_digest);

  auto admit = [](const CorpusFixture& fx) {
    ServiceConfig cfg;
    cfg.workers = 1;
    cfg.corpus_dir = fx.dir;
    Service svc(cfg);
    const auto gate = std::make_shared<SessionGate>();
    svc.pause_session(*gate);  // admission only; never runs the job
    const auto adm = svc.submit(corpus_job(fx.name), {gate, nullptr});
    EXPECT_TRUE(adm.admitted);
    svc.cancel(adm.id);
    svc.resume_session(*gate);
    svc.shutdown();
    return adm.digest;
  };
  const std::uint64_t da = admit(a);
  const std::uint64_t db = admit(b);
  EXPECT_NE(da, db);

  // Same content, different name: rebuild c's job with a's spec shape.
  ServiceConfig cfg;
  cfg.workers = 1;
  cfg.corpus_dir = c.dir;
  Service svc(cfg);
  const auto gate = std::make_shared<SessionGate>();
  svc.pause_session(*gate);
  Job job = corpus_job(c.name);
  const auto adm = svc.submit(job, {gate, nullptr});
  ASSERT_TRUE(adm.admitted);
  svc.cancel(adm.id);
  svc.resume_session(*gate);
  svc.shutdown();
  // Names differ (g_da vs g_dc) so full digests differ, but the resolved
  // content component must match a's.
  EXPECT_EQ(job.graph.corpus_digest, 0u);  // caller's copy is untouched
  EXPECT_NE(adm.digest, 0u);
}

TEST(ServiceCorpus, MissingCorpusFailsTheJobNotTheService) {
  ServiceConfig cfg;
  cfg.workers = 1;
  cfg.corpus_dir = testing::TempDir() + "svc_corpus_missing";
  std::filesystem::create_directories(cfg.corpus_dir);
  Collector c;
  Service svc(cfg, c.callback());
  const auto a = svc.submit(corpus_job("no_such_corpus"));
  ASSERT_TRUE(a.admitted);  // admission is non-blocking; the run reports
  svc.drain();
  // The service must still serve ordinary jobs afterwards.
  ASSERT_TRUE(svc.submit(ring_job("greedy", 16, 1)).admitted);
  svc.drain();
  svc.shutdown();
  ASSERT_EQ(c.results.size(), 2u);
  const JobResult* bad = c.by_id(a.id);
  ASSERT_NE(bad, nullptr);
  EXPECT_EQ(bad->status, "failed");
  EXPECT_NE(bad->error.find("no_such_corpus"), std::string::npos)
      << bad->error;
}

TEST(ServiceCorpus, CorpusJobWithoutCorpusDirFailsWithClearError) {
  ServiceConfig cfg;
  cfg.workers = 1;
  Collector c;
  Service svc(cfg, c.callback());  // no corpus_dir configured
  const auto a = svc.submit(corpus_job("anything"));
  ASSERT_TRUE(a.admitted);
  svc.drain();
  svc.shutdown();
  ASSERT_EQ(c.results.size(), 1u);
  EXPECT_EQ(c.results[0].status, "failed");
  EXPECT_NE(c.results[0].error.find("--corpus-dir"), std::string::npos)
      << c.results[0].error;
}

TEST(ServiceCorpus, IdBitsCannotRescrambleACorpusGraph) {
  const auto spec = harness::Json::parse_line(
      R"({"algorithm":"greedy","graph":{"family":"corpus",)"
      R"("corpus":"g","id_bits":20}})");
  EXPECT_THROW(job_from_json(spec), JobSpecError);
  // Wire round-trip for a legal corpus job keeps the corpus name.
  const auto ok = harness::Json::parse_line(
      R"({"algorithm":"greedy","graph":{"family":"corpus","corpus":"g"}})");
  const Job job = job_from_json(ok);
  EXPECT_EQ(job.graph.corpus, "g");
  const Job back = job_from_json(job_to_json(job));
  EXPECT_EQ(back.graph.corpus, "g");
  EXPECT_EQ(back.canonical(), job.canonical());
}

TEST(ServiceCorpus, StatsExportsLoadedCorpora) {
  CorpusFixture fx("stats", storage::gen::stream_gnp(300, 16, 0.2, 3));
  ServiceConfig cfg;
  cfg.workers = 1;
  cfg.corpus_dir = fx.dir;
  Service svc(cfg);
  const auto before = svc.stats(/*counters_only=*/true);
  ASSERT_NE(before.find("corpora"), nullptr);
  EXPECT_EQ(before.at("corpora").as_array().size(), 0u);  // nothing open yet
  ASSERT_TRUE(svc.submit(corpus_job(fx.name, "luby")).admitted);
  svc.drain();
  const auto after = svc.stats(/*counters_only=*/true);
  ASSERT_EQ(after.at("corpora").as_array().size(), 1u);
  const auto& info = after.at("corpora").as_array()[0];
  EXPECT_EQ(info.at("name").as_string(), fx.name);
  EXPECT_EQ(info.at("vertices").as_uint(), fx.meta.n);
  EXPECT_EQ(info.at("edges").as_uint(), fx.meta.m());
  EXPECT_GT(info.at("file_bytes").as_uint(), 0u);
  svc.shutdown();
}

TEST(ServiceCorpus, ProtocolServesCorpusJobsDeterministically) {
  CorpusFixture fx("proto", storage::gen::stream_ring(64, 5));
  ServiceConfig cfg;
  cfg.workers = 1;
  cfg.corpus_dir = fx.dir;
  const std::string script =
      "{\"op\":\"submit\",\"job\":{\"algorithm\":\"greedy\",\"graph\":"
      "{\"family\":\"corpus\",\"corpus\":\"" + fx.name + "\"}}}\n"
      "{\"op\":\"drain\"}\n"
      "{\"op\":\"submit\",\"job\":{\"algorithm\":\"greedy\",\"graph\":"
      "{\"family\":\"corpus\",\"corpus\":\"" + fx.name + "\"}}}\n"
      "{\"op\":\"shutdown\"}\n";
  const std::string run1 = serve_script(script, cfg);
  const std::string run2 = serve_script(script, cfg);
  EXPECT_EQ(run1, run2);
  EXPECT_NE(run1.find("\"status\":\"ok\""), std::string::npos) << run1;
  EXPECT_NE(run1.find("\"cached\":true"), std::string::npos) << run1;
}

TEST(ServiceProtocol, StatsShapes) {
  ServiceConfig cfg;
  Collector c;
  Service svc(cfg, c.callback());
  svc.submit(ring_job("greedy", 8, 1));
  svc.drain();
  const auto counters = svc.stats(/*counters_only=*/true);
  EXPECT_EQ(counters.find("latency"), nullptr);  // deterministic snapshot
  const auto full = svc.stats(/*counters_only=*/false);
  ASSERT_NE(full.find("latency"), nullptr);
  EXPECT_EQ(full.at("latency").at("greedy").at("count").as_uint(), 1u);
  EXPECT_GT(full.at("latency").at("greedy").at("p50_ms").as_double(), 0.0);
  svc.shutdown();
}

}  // namespace
}  // namespace ldc::service
