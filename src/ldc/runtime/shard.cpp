// ShardCrew / ShardSet: the Engine::kSharded runner of the shard-round
// kernel. Each round shape runs the kernel on every shard's range, one
// crew worker per shard, and merges the shards' staging in ascending
// order; because shards own contiguous ascending vertex ranges, inbox
// bytes, metrics, trace rows, and fault decisions are byte-identical to
// kSerial's single range [0, n).
#include "ldc/runtime/shard.hpp"

#include <algorithm>
#include <cassert>
#include <cerrno>
#include <cstdlib>
#include <string>

#include "ldc/runtime/thread_pool.hpp"

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

namespace ldc {

// ---------------------------------------------------------------- crew --

ShardCrew::ShardCrew(std::size_t shards, bool pin) : pin_(pin) {
  errors_.resize(shards);
  workers_.reserve(shards);
  for (std::size_t k = 0; k < shards; ++k) {
    workers_.emplace_back([this, k] { worker_loop(k); });
  }
}

ShardCrew::~ShardCrew() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ShardCrew::worker_loop(std::size_t k) {
#if defined(__linux__)
  if (pin_) {
    const unsigned hw =
        std::max(1u, std::thread::hardware_concurrency());
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(static_cast<int>(k % hw), &set);
    (void)pthread_setaffinity_np(pthread_self(), sizeof set, &set);
  }
#endif
  std::uint64_t seen = 0;
  for (;;) {
    const std::function<void(std::size_t)>* job = nullptr;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [&] { return stop_ || generation_ != seen; });
      if (stop_) return;
      seen = generation_;
      job = job_;
    }
    try {
      (*job)(k);
    } catch (...) {
      std::lock_guard<std::mutex> lock(mu_);
      errors_[k] = std::current_exception();
    }
    std::lock_guard<std::mutex> lock(mu_);
    if (--unfinished_ == 0) done_cv_.notify_all();
  }
}

void ShardCrew::run(const std::function<void(std::size_t)>& job) {
  if (workers_.empty()) return;
  {
    std::lock_guard<std::mutex> lock(mu_);
    job_ = &job;
    std::fill(errors_.begin(), errors_.end(), std::exception_ptr{});
    unfinished_ = workers_.size();
    ++generation_;
  }
  work_cv_.notify_all();
  {
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [&] { return unfinished_ == 0; });
    job_ = nullptr;
  }
  // Lowest shard = lowest sender range: matches the error order the other
  // engines guarantee.
  for (const auto& e : errors_) {
    if (e) std::rethrow_exception(e);
  }
}

std::size_t ShardCrew::default_shard_count() {
  const char* env = std::getenv("LDC_SHARDS");
  if (env == nullptr || *env == '\0') {
    return ThreadPool::default_thread_count();
  }
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(env, &end, 10);
  if (errno != 0 || end == env || *end != '\0' || v < 1 ||
      v > static_cast<long long>(kMaxShards)) {
    throw std::invalid_argument(
        "LDC_SHARDS must be an integer in [1, " +
        std::to_string(kMaxShards) + "]; got \"" + env + "\"");
  }
  return static_cast<std::size_t>(v);
}

bool ShardCrew::pin_from_env() {
  const char* env = std::getenv("LDC_PIN");
  return env != nullptr && env[0] == '1' && env[1] == '\0';
}

// ----------------------------------------------------------- shard set --

ShardSet::ShardSet(const Graph& g, std::size_t shards, bool pin)
    : part_(Partition::degree_balanced(g, shards)),
      states_(part_.shards()),
      crew_(part_.shards(), pin) {
  const std::size_t k = states_.size();
  // Build each shard's state on its own worker so the topology, arena,
  // and batch buffers are allocated and touched by the thread that owns
  // them (first-touch NUMA placement).
  crew_.run([&](std::size_t i) {
    auto st = std::make_unique<ShardState>();
    st->topo.build(g, part_.begin(i), part_.end(i));
    st->outgoing.resize(k);
    states_[i] = std::move(st);
  });
  views_.resize(k);
  for (std::size_t i = 0; i < k; ++i) {
    ShardState& st = *states_[i];
    views_[i] = ShardView{&st.arena,          st.topo.xadj.data(),
                          st.topo.adj.data(), st.topo.ghosts.data(),
                          st.topo.vbegin,     st.topo.owned()};
  }
  map_ = ShardMap{views_.data(), &part_};
}

ShardStaging ShardSet::merge() {
  ShardStaging total;
  for (const auto& st : states_) total += st->staging;
  total_traffic_.messages += total.traffic_messages;
  total_traffic_.bits += total.traffic_bits;
  return total;
}

ShardStaging ShardSet::exchange(
    const RoundContext& rc,
    const std::vector<std::vector<MailSlot>>& outboxes) {
  const std::size_t K = size();
  auto outbox_of = [&](NodeId u) -> const std::vector<MailSlot>& {
    return outboxes[u];
  };
  // Phase A: nothing touches another shard's arena before the barrier;
  // cross-shard survivors wait in the (src, dst) batches.
  crew_.run([&](std::size_t k) {
    ShardState& st = *states_[k];
    st.staging = ShardStaging{};
    for (auto& batch : st.outgoing) batch.clear();
    ShardRound::stage(rc, st.topo.vbegin, st.topo.vend, outbox_of, st.arena,
                      st.staging,
                      [&](NodeId u, NodeId dest, const Message& msg) {
                        st.outgoing[part_.shard_of(dest)].push_back(
                            BatchEntry{u, dest, msg});
                      });
  });
  // Phase B: each destination shard folds in the batches addressed to it.
  crew_.run([&](std::size_t k) {
    ShardState& st = *states_[k];
    ShardRound::fill(
        rc, st.topo.vbegin, st.topo.vend, outbox_of, K, k,
        [&](std::size_t j) -> const std::vector<BatchEntry>& {
          return states_[j]->outgoing[k];
        },
        st.arena);
  });
  return merge();
}

ShardStaging ShardSet::broadcast(const RoundContext& rc, const char* live,
                                 const std::vector<Message>& msgs) {
  crew_.run([&](std::size_t k) {
    ShardState& st = *states_[k];
    st.staging = ShardStaging{};
    ShardRound::fill_broadcast(rc, st.topo.vbegin, st.topo.vend,
                               st.topo.vbegin, live, msgs, st.arena,
                               st.staging);
  });
  return merge();
}

ShardStaging ShardSet::words(const RoundContext& rc, const char* live,
                             const std::vector<std::uint64_t>& words,
                             std::size_t bits) {
  crew_.run([&](std::size_t k) {
    ShardState& st = *states_[k];
    st.staging = ShardStaging{};
    if (live == nullptr) {
      // Dense mode, shard-local: lanes read ONLY shard-owned pages (owned
      // words, halo snapshot, local CSR), and the snapshot pins the ghost
      // staleness semantics — mutating the caller's words after the
      // exchange cannot leak into this round's view.
      ShardRound::snapshot_words(st.topo.vbegin, st.topo.vend,
                                 st.topo.ghosts, words, st.arena);
      st.staging.traffic_messages = st.topo.ghost_edges;
      st.staging.traffic_bits = st.topo.ghost_edges * bits;
      return;
    }
    ShardRound::fill_words(
        rc, st.topo.vbegin, st.topo.vend, live,
        [&](NodeId u) { return words[u]; }, bits, st.arena, st.staging);
  });
  return merge();
}

void ShardSet::for_each_vertex(const std::function<void(NodeId)>& fn) {
  // Node state written by fn stays on the pages its shard's worker
  // first-touched. Lowest-shard exceptions win, matching a serial loop.
  crew_.run([&](std::size_t k) {
    const ShardState& st = *states_[k];
    for (NodeId v = st.topo.vbegin; v < st.topo.vend; ++v) fn(v);
  });
}

void ShardSet::debug_check_sorted() const {
#ifndef NDEBUG
  for (const auto& st : states_) {
    const MailArena& a = st->arena;
    for (NodeId lv = 0; lv < st->topo.owned(); ++lv) {
      for (std::uint32_t i = a.offsets()[lv] + 1; i < a.offsets()[lv + 1];
           ++i) {
        assert(a.slots()[i - 1].first < a.slots()[i].first &&
               "sharded inbox not in ascending sender order");
      }
    }
  }
#endif
}

}  // namespace ldc
