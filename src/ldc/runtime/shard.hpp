// Sharded single-graph execution: the machinery behind Engine::kSharded,
// and the one worker-thread group of the library.
//
// ShardCrew is where a group of worker threads starts and stops: K
// persistent threads, worker k always running lane k. The sharded engine
// uses it as a fork-join barrier per round (run); the job service
// (service/service.hpp) starts its W queue-draining lanes on one at
// construction and waits for them at shutdown (start, wait).
//
// For the engine, the graph is split into K contiguous vertex ranges
// (Partition), and the crew runs the shard-round kernel
// (shard_round.hpp) over them, worker k always on range k. Every range
// lands its deliveries in the Network's master arena at its own base, so
// the arena holds exactly the serial layout and the mail views read it
// without any routing. A range reads the posted payloads, the sender list
// and the graph, and writes only its own rows, slots and pool segment, so
// ranges never contend mid-round. A dense broadcast (every node sending,
// fault-free) fills no slot, so it runs no crew job: its cut traffic is
// priced from the partition. Crew jobs and node programs travel as
// CallableRefs, so no round allocates.
// See DESIGN.md §11 for the full memory-model and determinism argument.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "ldc/graph/graph.hpp"
#include "ldc/graph/partition.hpp"
#include "ldc/runtime/mail.hpp"
#include "ldc/runtime/shard_round.hpp"

namespace ldc {

/// A non-owning reference to a callable: an object pointer and a call
/// thunk. Passing a capturing lambda allocates nothing, where a
/// std::function allocates once the captures outgrow its small buffer.
/// The callable must outlive every call made through the reference.
template <typename Signature>
class CallableRef;

template <typename R, typename... Args>
class CallableRef<R(Args...)> {
 public:
  template <typename F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, CallableRef> &&
             std::is_invocable_r_v<R, F&, Args...>)
  CallableRef(F&& f)  // implicit: call sites pass their lambdas as before
      : obj_(const_cast<void*>(static_cast<const void*>(std::addressof(f)))),
        call_([](void* obj, Args... args) -> R {
          return (*static_cast<std::remove_reference_t<F>*>(obj))(
              std::forward<Args>(args)...);
        }) {}

  R operator()(Args... args) const {
    return call_(obj_, std::forward<Args>(args)...);
  }

 private:
  void* obj_;
  R (*call_)(void*, Args...);
};

/// K persistent workers with a fixed worker↔lane binding. start(job)
/// sets job(k) going on worker k for every k and returns at once; wait()
/// blocks until all of them finished (a full barrier) and rethrows the
/// lowest-lane exception a job threw, matching the lowest-sender error
/// order of a serial loop. run(job) is start then wait, and allocates
/// nothing.
class ShardCrew {
 public:
  /// Starts `threads` workers. If one fails to start, the ones already
  /// running are stopped and joined before the error propagates.
  explicit ShardCrew(std::size_t threads);
  /// Joins every worker, after any started job has finished.
  ~ShardCrew();

  ShardCrew(const ShardCrew&) = delete;
  ShardCrew& operator=(const ShardCrew&) = delete;

  std::size_t size() const { return workers_.size(); }

  using Job = CallableRef<void(std::size_t)>;

  /// `job` must stay alive until wait() returns, and one job runs at a
  /// time: call wait() before the next start().
  void start(Job job);
  void wait();
  void run(Job job) {
    start(job);
    wait();
  }

  /// Worker count for a caller that asks for 0: the LDC_THREADS
  /// environment variable if it is an integer in [1, kMaxThreads],
  /// otherwise std::thread::hardware_concurrency(), otherwise 1. Garbage
  /// falls back silently.
  static std::size_t default_thread_count();

  /// A worker is an OS thread: a count beyond this is a misconfiguration
  /// (e.g. LDC_THREADS set to a node count), not a request.
  static constexpr std::size_t kMaxThreads = 4096;

  /// Shard count to use when set_engine(kSharded, 0) is called: the
  /// LDC_SHARDS environment variable if set — rejected loudly
  /// (std::invalid_argument) when it is not an integer in [1, 1024],
  /// unlike LDC_THREADS' silent fallback, because a typo here silently
  /// changing the execution shape is exactly what the strict parse is for
  /// — else default_thread_count().
  static std::size_t default_shard_count();

  static constexpr std::size_t kMaxShards = 1024;

 private:
  void worker_loop(std::size_t k);
  void stop_and_join();

  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  std::optional<Job> job_;
  std::uint64_t generation_ = 0;
  std::size_t unfinished_ = 0;
  bool stop_ = false;
  std::vector<std::exception_ptr> errors_;
  std::vector<std::thread> workers_;
};

/// Strictly parses a positive integer knob (flag or environment variable)
/// in [1, max]. Garbage, overflow or an out-of-range value throws
/// std::invalid_argument naming the knob and the offending token
/// (`NAME must be an integer in [1, max]; got "..."`), never a silent
/// fallback.
std::uint64_t parse_positive_u64(const char* name, const char* text,
                                 std::uint64_t max);

/// What shard k keeps between rounds: its owned range [begin, end), its
/// cut senders, its round scratch and the round's staging.
struct ShardState {
  NodeId begin = 0;
  NodeId end = 0;
  std::vector<CutSender> cut;
  RangeScratch scratch;
  ShardStaging staging;
};

/// The cut traffic of a dense round (every vertex sends, fault-free),
/// priced from a range's cut senders: each one's posted payload once per
/// neighbour across the cut. That is what filling the other ranges' rows
/// would count, without filling them.
ShardStaging dense_cut_traffic(std::span<const CutSender> cut,
                               const MailSlot* posted);

/// The Network-owned bundle: partition, per-shard states and the crew.
/// A round runs the kernel on every shard, lands the ranges in the master
/// arena `a` back to back, and returns the round's staging, merged in
/// ascending shard order. It reads the payloads the Network posted in `a`.
class ShardSet {
 public:
  ShardSet(const Graph& g, std::size_t shards);

  std::size_t size() const { return states_.size(); }
  const ShardTraffic& traffic() const { return total_traffic_; }

  /// live == nullptr: a dense round, which fills nothing.
  ShardStaging broadcast(const RoundContext& rc, const LiveSenders* live,
                         MailArena& a);

  /// Runs fn(v) for every vertex, each shard's range on its own worker.
  void for_each_vertex(CallableRef<void(NodeId)> fn);
  /// The same over an ascending node list: each shard runs the slice of
  /// `nodes` inside its range.
  void for_each_vertex(std::span<const NodeId> nodes,
                       CallableRef<void(NodeId)> fn);

 private:
  /// Sums the shards' staging in ascending order into the round's total
  /// and the cumulative cut traffic.
  ShardStaging merge();
  /// Range k of a slot round's layout, its receivers listed in shard k's
  /// scratch (cleared here); gather_receivers() then appends the shards'
  /// lists to the arena's in shard order, which is ascending.
  ArenaRange<MailSlot> range(const ArenaLayout& out, std::size_t k);
  void gather_receivers(MailArena& a) const;

  Partition part_;
  std::vector<ShardState> states_;
  std::vector<std::uint32_t> counts_;    ///< each range's slots this round
  std::vector<std::uint64_t> segments_;  ///< ... and its pool words
  LiveFlags flags_;             ///< raised when some range pulls
  ShardTraffic total_traffic_;  ///< cumulative across rounds
  ShardCrew crew_;              ///< last: joins before states_ die
};

}  // namespace ldc
