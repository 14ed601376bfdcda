// The job-serving subsystem: bounded admission -> worker lanes -> result
// cache, with cooperative cancellation and deadline enforcement at round
// boundaries.
//
// Flow: submit() parses nothing (it takes a parsed Job), assigns a
// monotone id, consults the result cache, and either rejects (queue full
// or shut down — the backpressure signal) or enqueues a Pending entry.
// Cache hits are NOT answered inline: they ride through the queue like
// any job and are emitted by a worker in FIFO position, so admission
// control and emission order treat hits and misses uniformly (this is
// what makes scripted runs deterministic at one worker). Workers pop
// entries, honour cancellation/deadlines, run the algorithm via the
// registry, feed the cache, and invoke the result callback.
//
// Workers: the constructor starts W lanes on a ShardCrew
// (runtime/shard.hpp), each popping the queue until shutdown() closes
// it; shutdown() then waits for the crew. Each lane runs whole jobs, one
// at a time, on the serial engine, so the service runs W threads and no
// other.
//
// Determinism: with workers == 1 and a script that separates bursts with
// drain(), the full result stream (ids, order, every field) is a pure
// function of the script. With workers > 1 the *set* of results is
// unchanged; only interleaving varies. Latencies are the one exception,
// which is why they live only in the stats export (counters_only hides
// them).
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

#include "ldc/runtime/shard.hpp"
#include "ldc/service/algorithms.hpp"
#include "ldc/service/cache.hpp"
#include "ldc/service/cancel.hpp"
#include "ldc/service/job.hpp"
#include "ldc/service/metrics.hpp"
#include "ldc/service/queue.hpp"
#include "ldc/storage/registry.hpp"

namespace ldc::service {

struct ServiceConfig {
  std::size_t workers = 1;         ///< lanes; 0 = default_thread_count()
  std::size_t queue_capacity = 64; ///< admission bound (backpressure beyond)
  std::size_t cache_bytes = 64 * 1024;  ///< result-cache budget; 0 = off
  /// Non-empty: serve family == "corpus" jobs from <dir>/<name>.ldcg via
  /// a shared CorpusRegistry (each corpus mapped once, workers share it).
  std::string corpus_dir;
};

/// Outcome of a submit(): either an assigned id or a rejection reason.
struct Admission {
  bool admitted = false;
  std::uint64_t id = 0;       ///< assigned either way (correlates rejects)
  std::string reason;         ///< non-empty iff rejected
  /// The job's canonical digest as the service keyed it — for corpus jobs
  /// this includes the resolved corpus *content* digest, which the client
  /// cannot compute itself; frontends must echo this, not job.digest().
  std::uint64_t digest = 0;
};

/// Everything a client learns about one finished job.
struct JobResult {
  std::uint64_t id = 0;
  std::uint64_t digest = 0;
  std::string algorithm;
  std::string status;         ///< ok | failed | cancelled | deadline_missed
  std::string error;          ///< non-empty iff status == failed
  bool cached = false;        ///< outcome came from the result cache
  JobOutcome outcome;         ///< meaningful iff status == ok
  std::uint64_t latency_ns = 0;  ///< admission -> emission (wall clock)
};

/// Session-scoped delivery gate: while paused, jobs submitted under this
/// gate stay queued (admission continues — backpressure semantics are
/// unchanged) but are skipped by workers. One frontend session owns one
/// gate; flipping it never affects other sessions' jobs, which is what
/// lets many multiplexed sessions script deterministic bursts over a
/// *shared* set of workers. Flip only via Service::pause_session/
/// resume_session: they change the gate under the queue mutex and wake
/// blocked workers to re-scan.
struct SessionGate {
  std::atomic<bool> paused{false};
};

/// Per-submit options for multi-session frontends.
struct SubmitOptions {
  /// Session delivery gate; nullptr = always deliverable.
  std::shared_ptr<SessionGate> gate;
  /// Overrides the service-wide result callback for this job (used to
  /// route results back to the owning session). Same threading contract
  /// as the constructor callback.
  std::function<void(const JobResult&)> on_result;
};

class Service {
 public:
  using ResultCallback = std::function<void(const JobResult&)>;
  using Clock = std::chrono::steady_clock;

  /// Starts the worker lanes immediately. The callback is invoked from
  /// worker threads, one call at a time per job but concurrently across
  /// jobs when workers > 1 — the callback must be thread-safe.
  Service(const ServiceConfig& cfg, ResultCallback on_result);

  /// Callback-less variant for frontends that route every result through
  /// per-submit callbacks (SubmitOptions::on_result). A job submitted
  /// without its own callback is still run; its result is dropped.
  explicit Service(const ServiceConfig& cfg) : Service(cfg, nullptr) {}

  /// Implies shutdown(): drains admitted jobs, joins workers.
  ~Service();

  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  /// Admission. Never blocks: a full (or shut down) queue rejects with a
  /// reason instead. Consults the result cache on the admission path so a
  /// hit is pinned to the job even if the entry is evicted before a
  /// worker reaches it.
  Admission submit(const Job& job) { return submit(job, SubmitOptions{}); }

  /// Admission with a session gate and/or per-job result routing.
  Admission submit(const Job& job, SubmitOptions opts);

  /// Session-scoped pause/resume: gates delivery of that session's queued
  /// jobs only. resume_session wakes blocked workers so they re-scan.
  void pause_session(SessionGate& gate);
  void resume_session(SessionGate& gate);

  /// Requests cancellation of a queued or running job; honoured at the
  /// next round boundary (running) or at dequeue (queued). False when the
  /// id is unknown or already finished.
  bool cancel(std::uint64_t id);

  /// Blocks until every admitted job has emitted its result. Does not
  /// resume a paused session — resume_session() first, or drain() waits
  /// forever.
  void drain();

  /// Stops admission, drains queued jobs (overriding every session gate),
  /// waits for the lanes. Idempotent.
  void shutdown();

  /// Consistent metrics snapshot (gauges sampled now). counters_only
  /// omits wall-clock-derived fields for deterministic scripts.
  harness::Json stats(bool counters_only) const;

  std::size_t workers() const { return crew_.size(); }

 private:
  struct Pending {
    Job job;
    std::uint64_t id = 0;
    std::uint64_t digest = 0;
    Clock::time_point enqueued;
    std::shared_ptr<CancelToken> token;
    std::optional<JobOutcome> cached;  ///< admission-time cache hit
    std::shared_ptr<SessionGate> gate; ///< session delivery gate (may be null)
    ResultCallback on_result;          ///< per-job override (may be null)
    /// Resolved at admission for corpus jobs; pins the mapping for the
    /// job's whole life. Null when resolution failed (run_one retries so
    /// the failure surfaces with the real CorpusError message).
    std::shared_ptr<const storage::MappedGraph> corpus;
  };

  void run_one(Pending& p);
  void emit(const JobResult& r, const Pending& p);

  ResultCallback on_result_;
  std::unique_ptr<storage::CorpusRegistry> corpora_;  ///< null without dir
  ResultCache cache_;
  mutable ServiceMetrics metrics_;
  BoundedQueue<Pending> queue_;

  std::mutex admit_mu_;  ///< serializes id assignment + push (FIFO = id order)
  std::uint64_t next_id_ = 1;
  std::unordered_map<std::uint64_t, std::shared_ptr<CancelToken>> live_;
  std::mutex live_mu_;

  std::atomic<std::size_t> outstanding_{0};
  std::mutex drain_mu_;
  std::condition_variable drain_cv_;

  /// What every lane runs: pop and run jobs until the queue is closed and
  /// empty. Declared before crew_, so it outlives the lanes.
  const std::function<void(std::size_t)> lane_ = [this](std::size_t) {
    while (auto p = queue_.pop()) run_one(*p);
  };
  ShardCrew crew_;
  std::once_flag shutdown_once_;
};

}  // namespace ldc::service
