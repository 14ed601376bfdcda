#include "ldc/service/service.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <utility>

#include "ldc/graph/io_error.hpp"

namespace ldc::service {

Service::Service(const ServiceConfig& cfg, ResultCallback on_result)
    : on_result_(std::move(on_result)),
      corpora_(cfg.corpus_dir.empty()
                   ? nullptr
                   : std::make_unique<storage::CorpusRegistry>(
                         cfg.corpus_dir)),
      cache_(cfg.cache_bytes),
      queue_(cfg.queue_capacity,
             [](const Pending& p) {
               return p.gate == nullptr ||
                      !p.gate->paused.load(std::memory_order_acquire);
             }),
      crew_(cfg.workers == 0 ? ShardCrew::default_thread_count()
                             : cfg.workers) {
  crew_.start(lane_);  // the lanes return once shutdown() closes the queue
}

Service::~Service() { shutdown(); }

Admission Service::submit(const Job& job, SubmitOptions opts) {
  Admission a;
  std::lock_guard<std::mutex> admit(admit_mu_);
  a.id = next_id_++;
  {
    std::lock_guard<std::mutex> lock(metrics_.mu);
    ++metrics_.submitted;
    ++metrics_.outstanding;  // before the push: a worker may emit it at once
  }
  Pending p;
  p.job = job;
  p.id = a.id;
  if (p.job.graph.family == "corpus" && corpora_ != nullptr) {
    // Resolve the name to content *before* the digest so the cache key is
    // the corpus bytes, not the mutable name binding. A failed open is
    // deliberately not fatal here: the job runs, retries, and fails with
    // the CorpusError message on the normal result stream.
    try {
      p.corpus = corpora_->get(p.job.graph.corpus);
      p.job.graph.corpus_digest = p.corpus->meta().content_digest;
    } catch (const storage::CorpusError&) {
    }
  }
  p.digest = p.job.digest();
  a.digest = p.digest;
  p.enqueued = Clock::now();
  p.token = std::make_shared<CancelToken>();
  p.gate = std::move(opts.gate);
  p.on_result = std::move(opts.on_result);
  if (job.deadline_ms != 0) {
    p.token->arm_deadline(p.enqueued +
                          std::chrono::milliseconds(job.deadline_ms));
  }
  // Cache consult happens at admission so the hit is pinned to this job
  // even if the entry is evicted before a worker dequeues it.
  p.cached = cache_.get(p.digest);

  const auto token = p.token;
  outstanding_.fetch_add(1, std::memory_order_relaxed);
  if (!queue_.try_push(std::move(p))) {
    outstanding_.fetch_sub(1, std::memory_order_relaxed);
    a.admitted = false;
    a.reason = queue_.closed() ? "shutting down" : "queue full";
    std::lock_guard<std::mutex> lock(metrics_.mu);
    ++metrics_.rejected;
    --metrics_.outstanding;
    return a;
  }
  {
    std::lock_guard<std::mutex> lock(live_mu_);
    live_[a.id] = token;
  }
  {
    std::lock_guard<std::mutex> lock(metrics_.mu);
    ++metrics_.admitted;
  }
  a.admitted = true;
  return a;
}

bool Service::cancel(std::uint64_t id) {
  std::lock_guard<std::mutex> lock(live_mu_);
  auto it = live_.find(id);
  if (it == live_.end()) return false;
  it->second->cancel();
  return true;
}

void Service::pause_session(SessionGate& gate) {
  queue_.change_gates(
      [&] { gate.paused.store(true, std::memory_order_release); });
}

void Service::resume_session(SessionGate& gate) {
  // Blocked workers wake and re-scan for this session's jobs.
  queue_.change_gates(
      [&] { gate.paused.store(false, std::memory_order_release); });
}

void Service::drain() {
  std::unique_lock<std::mutex> lock(drain_mu_);
  drain_cv_.wait(lock, [&] {
    return outstanding_.load(std::memory_order_acquire) == 0;
  });
}

void Service::shutdown() {
  std::call_once(shutdown_once_, [this] {
    queue_.close();  // rejects new pushes; overrides every session gate
    crew_.wait();
  });
}

harness::Json Service::stats(bool counters_only) const {
  {
    std::lock_guard<std::mutex> lock(metrics_.mu);
    metrics_.queue_depth = queue_.size();
  }
  harness::Json j = metrics_to_json(metrics_, cache_.stats(), counters_only);
  if (corpora_ != nullptr) {
    harness::Json arr = harness::Json::array();
    for (const auto& info : corpora_->list()) {
      harness::Json c = harness::Json::object();
      c.add("name", info.name);
      c.add("vertices", info.vertices);
      c.add("edges", info.edges);
      c.add("file_bytes", info.file_bytes);
      c.add("open_mappings",
            static_cast<std::uint64_t>(std::max<long>(0, info.open_mappings)));
      arr.push_back(std::move(c));
    }
    j.add("corpora", std::move(arr));
  }
  return j;
}

void Service::run_one(Pending& p) {
  JobResult r;
  r.id = p.id;
  r.digest = p.digest;
  r.algorithm = p.job.algorithm;
  try {
    p.token->check();  // queued-phase cancellation / deadline
    if (p.cached.has_value()) {
      r.status = "ok";
      r.cached = true;
      r.outcome = *p.cached;
    } else {
      const AlgorithmInfo* algo =
          AlgorithmRegistry::instance().find(p.job.algorithm);
      if (algo == nullptr) {
        throw JobSpecError("unknown algorithm '" + p.job.algorithm + "'");
      }
      Graph g;
      if (p.job.graph.family == "corpus") {
        if (p.corpus == nullptr) {
          if (corpora_ == nullptr) {
            throw JobSpecError(
                "family 'corpus' needs a service with a corpus directory "
                "(--corpus-dir)");
          }
          // Admission-time resolution failed; retry so the CorpusError
          // (missing file, failed validation) names the actual problem.
          p.corpus = corpora_->get(p.job.graph.corpus);
        }
        g = p.corpus->graph();  // zero-copy view, pinned to the mapping
      } else {
        g = build_graph(p.job.graph);
      }
      ExecContext exec;
      exec.cancel = p.token.get();
      r.outcome = algo->run(g, p.job, exec);
      p.token->check();  // a deadline that fired during the last round
      r.status = "ok";
      cache_.put(p.digest, r.outcome);
    }
  } catch (const JobCancelled& e) {
    r.status = e.deadline_missed() ? "deadline_missed" : "cancelled";
  } catch (const std::exception& e) {
    r.status = "failed";
    r.error = e.what();
  }
  emit(r, p);
}

void Service::emit(const JobResult& r, const Pending& p) {
  JobResult out = r;
  out.latency_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           p.enqueued)
          .count());
  {
    // The gauge drops before the callback, so a stats snapshot taken after
    // this job's result line (e.g. after a session's drained event) never
    // counts it; outstanding_ drops after, for drain().
    std::lock_guard<std::mutex> lock(metrics_.mu);
    --metrics_.outstanding;
    if (out.status == "ok") {
      ++metrics_.completed;
    } else if (out.status == "failed") {
      ++metrics_.failed;
    } else if (out.status == "deadline_missed") {
      ++metrics_.deadline_missed;
    } else {
      ++metrics_.cancelled;
    }
    metrics_.latency[out.algorithm].add(out.latency_ns);
  }
  {
    std::lock_guard<std::mutex> lock(live_mu_);
    live_.erase(out.id);
  }
  if (p.on_result) {
    p.on_result(out);
  } else if (on_result_) {
    on_result_(out);
  }
  // Decrement last: drain() returning guarantees the callback has run.
  {
    std::lock_guard<std::mutex> lock(drain_mu_);
    outstanding_.fetch_sub(1, std::memory_order_release);
  }
  drain_cv_.notify_all();
}

}  // namespace ldc::service
