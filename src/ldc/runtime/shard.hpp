// Sharded single-graph execution: the machinery behind Engine::kSharded.
//
// The graph is split into K contiguous vertex ranges (Partition); shard k
// owns its range plus a read-only ghost halo, holds its OWN MailArena
// (indexed by local destination id), and has its own dedicated worker
// thread in a ShardCrew. The worker↔shard binding is fixed for the crew's
// lifetime, which is what makes first-touch NUMA placement work: each
// shard's arena pages, local CSR, and halo snapshots are allocated and
// touched by the thread that will keep reading them (optionally pinned to
// a core via LDC_PIN=1).
//
// Each shard runs the shard-round kernel (shard_round.hpp) over its own
// range. Cross-shard messages never touch another shard's arena mid-round:
// phase A stages each one in a per-(src shard, dst shard) batch buffer,
// and after the barrier phase B folds the batches in at the destination —
// K² bulk appends per round instead of per-edge contention. See DESIGN.md
// §11 for the full memory-model and determinism argument.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "ldc/graph/graph.hpp"
#include "ldc/graph/partition.hpp"
#include "ldc/runtime/mail.hpp"
#include "ldc/runtime/message.hpp"
#include "ldc/runtime/shard_round.hpp"

namespace ldc {

/// K persistent workers with a fixed worker↔shard binding. run(job)
/// executes job(k) on worker k for every k and returns after all workers
/// finish (a full barrier); a throwing job is captured and the
/// lowest-shard exception is rethrown, matching the lowest-sender error
/// order of a serial loop.
class ShardCrew {
 public:
  /// Spawns `shards` workers. With pin == true each worker k is pinned to
  /// core k mod hardware_concurrency (Linux only; a best-effort hint —
  /// failures are ignored).
  ShardCrew(std::size_t shards, bool pin);
  ~ShardCrew();

  ShardCrew(const ShardCrew&) = delete;
  ShardCrew& operator=(const ShardCrew&) = delete;

  std::size_t size() const { return workers_.size(); }

  void run(const std::function<void(std::size_t)>& job);

  /// Shard count to use when set_engine(kSharded, 0) is called: the
  /// LDC_SHARDS environment variable if set — rejected loudly
  /// (std::invalid_argument) when it is not an integer in [1, 1024],
  /// unlike LDC_THREADS' silent fallback, because a typo here silently
  /// changing the execution shape is exactly what the strict parse is for
  /// — else ThreadPool::default_thread_count().
  static std::size_t default_shard_count();

  /// True iff LDC_PIN=1: pin each shard worker to a core.
  static bool pin_from_env();

  static constexpr std::size_t kMaxShards = 1024;

 private:
  void worker_loop(std::size_t k);

  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  const std::function<void(std::size_t)>* job_ = nullptr;
  std::uint64_t generation_ = 0;
  std::size_t unfinished_ = 0;
  bool stop_ = false;
  bool pin_ = false;
  std::vector<std::exception_ptr> errors_;
  std::vector<std::thread> workers_;
};

/// Everything shard k owns: its topology (owned range + ghost halo +
/// local CSR), its delivery arena (local destination ids), the round's
/// staging for the deterministic merge, and the outgoing batch buffers.
/// Allocated and first-touched by worker k.
struct ShardState {
  ShardTopology topo;
  MailArena arena;
  ShardStaging staging;
  std::vector<std::vector<BatchEntry>> outgoing;  ///< [dst shard]
};

/// The Network-owned bundle: partition, per-shard states, the crew, and
/// the routing tables the sharded RoundMail/WordMail views read. Each
/// round shape runs the kernel on every shard and returns the round's
/// staging, merged in ascending shard order.
class ShardSet {
 public:
  ShardSet(const Graph& g, std::size_t shards, bool pin);

  std::size_t size() const { return states_.size(); }
  const Partition& partition() const { return part_; }
  const ShardTraffic& traffic() const { return total_traffic_; }
  const ShardMap* map() const { return &map_; }

  ShardStaging exchange(const RoundContext& rc,
                        const std::vector<std::vector<MailSlot>>& outboxes);
  ShardStaging broadcast(const RoundContext& rc, const char* live,
                         const std::vector<Message>& msgs);
  ShardStaging words(const RoundContext& rc, const char* live,
                     const std::vector<std::uint64_t>& words,
                     std::size_t bits);

  /// Runs fn(v) for every vertex, each shard's range on its own worker.
  void for_each_vertex(const std::function<void(NodeId)>& fn);

  /// Debug-build check that every shard inbox is in ascending sender
  /// order.
  void debug_check_sorted() const;

 private:
  /// Sums the shards' staging in ascending order into the round's total
  /// and the cumulative cut traffic.
  ShardStaging merge();

  Partition part_;
  std::vector<std::unique_ptr<ShardState>> states_;
  std::vector<ShardView> views_;  ///< stable storage behind map_
  ShardMap map_;
  ShardTraffic total_traffic_;  ///< cumulative across rounds
  ShardCrew crew_;              ///< last: joins before states_ die
};

}  // namespace ldc
