#include "ldc/runtime/thread_pool.hpp"

#include <cerrno>
#include <cstdlib>
#include <string>

namespace ldc {

std::size_t ThreadPool::default_thread_count() {
  if (const char* env = std::getenv("LDC_THREADS")) {
    char* end = nullptr;
    errno = 0;
    const long v = std::strtol(env, &end, 10);
    // Reject garbage, trailing junk, empty strings, 0, negatives, and
    // out-of-range values (strtol saturates with ERANGE on overflow) by
    // falling back to hardware concurrency instead of misconfiguring the
    // pool.
    if (errno == 0 && end != env && *end == '\0' && v >= 1 &&
        v <= static_cast<long>(kMaxThreads)) {
      return static_cast<std::size_t>(v);
    }
  }
  // hardware_concurrency() can cost a syscall (sysconf / sched_getaffinity)
  // on some libstdc++ builds; the topology does not change mid-process, so
  // probe once. The env parse above stays per-call: tests flip LDC_THREADS.
  static const unsigned hw = [] {
    const unsigned probed = std::thread::hardware_concurrency();
    return probed == 0 ? 1u : probed;
  }();
  return hw;
}

ThreadPool::ThreadPool(std::size_t threads)
    : size_(threads == 0 ? default_thread_count() : threads) {
  // The caller participates in every batch, so size_ lanes need only
  // size_ - 1 workers; size 1 therefore runs fully inline.
  workers_.reserve(size_ - 1);
  try {
    for (std::size_t i = 0; i + 1 < size_; ++i) {
      workers_.emplace_back([this] { worker_loop(); });
    }
  } catch (...) {
    // A lane that fails to start (EAGAIN) must not leave joinable threads
    // behind: destroying one terminates instead of letting this throw.
    stop_and_join();
    throw;
  }
}

ThreadPool::~ThreadPool() { stop_and_join(); }

void ThreadPool::stop_and_join() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::drain_batch(std::unique_lock<std::mutex>& lock) {
  while (next_task_ < batch_->size()) {
    const std::size_t i = next_task_++;
    lock.unlock();
    std::exception_ptr err;
    try {
      (*batch_)[i]();
    } catch (...) {
      err = std::current_exception();
    }
    lock.lock();
    if (err) (*errors_)[i] = std::move(err);
    if (--unfinished_ == 0) done_cv_.notify_all();
  }
}

void ThreadPool::worker_loop() {
  std::unique_lock<std::mutex> lock(mu_);
  std::uint64_t seen = 0;
  while (true) {
    work_cv_.wait(lock, [&] {
      return stop_ || (batch_ != nullptr && generation_ != seen &&
                       next_task_ < batch_->size());
    });
    if (stop_) return;
    drain_batch(lock);
    seen = generation_;
  }
}

void ThreadPool::run_tasks(std::vector<std::function<void()>> tasks) {
  if (tasks.empty()) return;
  std::vector<std::exception_ptr> errors(tasks.size());
  {
    std::unique_lock<std::mutex> lock(mu_);
    batch_ = &tasks;
    errors_ = &errors;
    next_task_ = 0;
    unfinished_ = tasks.size();
    ++generation_;
    if (size_ > 1) {
      lock.unlock();
      work_cv_.notify_all();
      lock.lock();
    }
    // The caller is a lane too: claim tasks until the batch is exhausted,
    // then wait for workers still finishing theirs.
    drain_batch(lock);
    done_cv_.wait(lock, [&] { return unfinished_ == 0; });
    batch_ = nullptr;
    errors_ = nullptr;
  }
  // Rethrow the lowest-index failure: with index-ordered work this is the
  // same exception a serial loop would have surfaced first.
  for (auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

}  // namespace ldc
