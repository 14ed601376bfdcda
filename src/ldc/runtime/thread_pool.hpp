// Fixed-size worker pool for deterministic fork-join parallelism.
//
// The job service's workers (service/service.cpp) need exactly one
// primitive: run a batch of independent tasks and block until all of them
// finished, rethrowing the first failure. Workers are started once and
// reused across batches, so per-batch overhead is a mutex hand-off, not
// thread creation.
//
// Determinism contract: the pool never reorders observable results — tasks
// must write disjoint state, and batch completion is a full barrier. When a
// batch throws, the exception with the lowest task index is rethrown, so a
// contiguous index-ordered partition of work surfaces the same (first)
// error a serial loop would. A pool of size 1 executes every task inline on
// the calling thread: byte-for-byte the serial code path, no workers.
//
// The pool itself must be driven from one thread at a time; tasks of one
// batch run concurrently, batches never overlap.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace ldc {

class ThreadPool {
 public:
  /// threads == 0 resolves via default_thread_count(). A pool of size 1
  /// spawns no workers and runs everything inline.
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of lanes a batch is split into (>= 1).
  std::size_t size() const { return size_; }

  /// Runs every task, blocks until all completed (reuse after the drain is
  /// fine). If tasks threw, rethrows the exception of the lowest index.
  void run_tasks(std::vector<std::function<void()>> tasks);

  /// LDC_THREADS environment variable if set to [1, kMaxThreads],
  /// otherwise std::thread::hardware_concurrency(), otherwise 1.
  static std::size_t default_thread_count();

  /// A pool lane is an OS thread: a count beyond this is a
  /// misconfiguration (e.g. LDC_THREADS set to a node count), not a
  /// request.
  static constexpr std::size_t kMaxThreads = 4096;

 private:
  std::size_t size_ = 1;
  std::vector<std::thread> workers_;

  std::mutex mu_;
  std::condition_variable work_cv_;   ///< workers wait for a batch
  std::condition_variable done_cv_;   ///< caller waits for completion
  std::vector<std::function<void()>>* batch_ = nullptr;
  std::vector<std::exception_ptr>* errors_ = nullptr;
  std::size_t next_task_ = 0;      ///< next unclaimed index in *batch_
  std::size_t unfinished_ = 0;     ///< tasks not yet completed
  std::uint64_t generation_ = 0;   ///< bumped per batch (spurious-wake guard)
  bool stop_ = false;

  void worker_loop();
  void stop_and_join();
  /// Claims and runs tasks from the current batch until it is exhausted.
  void drain_batch(std::unique_lock<std::mutex>& lock);
};

}  // namespace ldc
