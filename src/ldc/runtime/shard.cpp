// ShardCrew / ShardSet: the worker-thread group, and the Engine::kSharded
// runner of the shard-round kernel. Each round shape runs the kernel on
// every shard's range, one crew worker per shard, lands the ranges back
// to back in the master arena and merges the shards' staging in ascending
// order; because shards own contiguous ascending vertex ranges, inbox
// bytes, metrics, trace rows, and fault decisions are byte-identical to
// kSerial's single range [0, n).
#include "ldc/runtime/shard.hpp"

#include <algorithm>

namespace ldc {

// ---------------------------------------------------------------- crew --

ShardCrew::ShardCrew(std::size_t threads) : errors_(threads) {
  workers_.reserve(threads);
  try {
    for (std::size_t k = 0; k < threads; ++k) {
      workers_.emplace_back([this, k] { worker_loop(k); });
    }
  } catch (...) {
    // A worker that fails to start (EAGAIN) must not leave joinable
    // threads behind: destroying one terminates instead of letting this
    // throw.
    stop_and_join();
    throw;
  }
}

ShardCrew::~ShardCrew() { stop_and_join(); }

void ShardCrew::stop_and_join() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ShardCrew::worker_loop(std::size_t k) {
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

void ShardCrew::start(const std::function<void(std::size_t)>& job) {
  if (workers_.empty()) return;
  {
    std::lock_guard<std::mutex> lock(mu_);
    job_ = &job;
    std::fill(errors_.begin(), errors_.end(), std::exception_ptr{});
    unfinished_ = workers_.size();
    ++generation_;
  }
  work_cv_.notify_all();
}

void ShardCrew::wait() {
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

// ----------------------------------------------------------- shard set --

ShardSet::ShardSet(const Graph& g, std::size_t shards)
    : part_(Partition::degree_balanced(g, shards)),
      states_(part_.shards()),
      counts_(part_.shards()),
      segments_(part_.shards()),
      crew_(part_.shards()) {
  crew_.run([&](std::size_t k) {
    ShardState& st = states_[k];
    st.topo.build(g, part_.begin(k), part_.end(k));
    st.outgoing.resize(states_.size());
  });
}

ShardStaging ShardSet::merge() {
  ShardStaging total;
  for (const ShardState& st : states_) total += st.staging;
  total_traffic_.messages += total.traffic_messages;
  total_traffic_.bits += total.traffic_bits;
  return total;
}

void ShardSet::count_slots(const RoundContext& rc, const LiveSenders* live,
                           const MailSlot* posted) {
  auto count = [&](std::size_t k) {
    ShardState& st = states_[k];
    st.staging = ShardStaging{};
    counts_[k] = ShardRound::count(rc, st.topo.vbegin, st.topo.vend, live,
                                   st.scratch, st.staging, posted);
    segments_[k] = st.scratch.pool_words;
  };
  if (live != nullptr) {
    crew_.run(count);
    return;
  }
  // Every sender live: the counts are CSR degree sums, no walk to share.
  for (std::size_t k = 0; k < size(); ++k) count(k);
}

ShardStaging ShardSet::exchange(
    const RoundContext& rc,
    const std::vector<std::vector<Envelope>>& outboxes, MailArena& a) {
  const std::size_t K = size();
  auto outbox_of = [&](NodeId u) -> const std::vector<Envelope>& {
    return outboxes[u];
  };
  // Phase A: nothing touches the arena before the barrier; cross-shard
  // survivors wait in the (src, dst) batches.
  crew_.run([&](std::size_t k) {
    ShardState& st = states_[k];
    st.staging = ShardStaging{};
    for (auto& batch : st.outgoing) batch.clear();
    counts_[k] = ShardRound::stage(
        rc, st.topo.vbegin, st.topo.vend, outbox_of, st.scratch, st.staging,
        [&](NodeId u, NodeId dest, const BitWriter& msg) {
          st.outgoing[part_.shard_of(dest)].push_back(BatchEntry{
              u, dest, msg.words().data(),
              static_cast<std::uint32_t>(msg.bit_count())});
        });
  });
  // A range's slots and pool words: its own survivors plus every batch
  // addressed to it (a shard never batches to itself).
  for (std::size_t k = 0; k < K; ++k) {
    segments_[k] = states_[k].scratch.pool_words;
    for (const ShardState& src : states_) {
      counts_[k] += static_cast<std::uint32_t>(src.outgoing[k].size());
      for (const BatchEntry& x : src.outgoing[k]) {
        segments_[k] += payload_words(x.bits);
      }
    }
  }
  const auto out = a.lay_out<MailSlot>(rc.graph->n(), counts_, 0, segments_);
  // Phase B: each destination shard fills its rows, folding in the
  // batches addressed to it.
  crew_.run([&](std::size_t k) {
    ShardState& st = states_[k];
    ShardRound::fill(
        rc, st.topo.vbegin, st.topo.vend, outbox_of, K, k,
        [&](std::size_t j) -> const std::vector<BatchEntry>& {
          return states_[j].outgoing[k];
        },
        st.scratch, out[k]);
  });
  return merge();
}

ShardStaging ShardSet::broadcast(const RoundContext& rc,
                                 const LiveSenders* live, MailArena& a) {
  const MailSlot* posted = a.posted();
  count_slots(rc, live, posted);
  const auto out = a.lay_out<MailSlot>(rc.graph->n(), counts_, 0, segments_);
  crew_.run([&](std::size_t k) {
    ShardState& st = states_[k];
    ShardRound::fill_broadcast(rc, st.topo.vbegin, st.topo.vend, live,
                               posted, st.scratch, out[k], st.staging);
  });
  return merge();
}

ShardStaging ShardSet::words(const RoundContext& rc, const LiveSenders* live,
                             const std::vector<std::uint64_t>& words,
                             std::size_t bits, MailArena& a) {
  if (live == nullptr) {
    // Dense mode: each shard copies its own range of the words into the
    // arena, and lanes read them through the global CSR. The copy pins
    // the round's values: mutating the caller's words after the exchange
    // cannot leak into this round's view.
    std::uint64_t* dense = a.lay_out_words(words.size());
    crew_.run([&](std::size_t k) {
      ShardState& st = states_[k];
      std::copy(words.begin() + st.topo.vbegin, words.begin() + st.topo.vend,
                dense + st.topo.vbegin);
      st.staging = ShardStaging{};
      st.staging.traffic_messages = st.topo.ghost_edges;
      st.staging.traffic_bits = st.topo.ghost_edges * bits;
    });
    return merge();
  }
  count_slots(rc, live);
  const auto out = a.lay_out<WordSlot>(rc.graph->n(), counts_);
  crew_.run([&](std::size_t k) {
    ShardState& st = states_[k];
    ShardRound::fill_words(
        rc, st.topo.vbegin, st.topo.vend, live,
        [&](NodeId u) { return words[u]; }, bits, st.scratch, out[k],
        st.staging);
  });
  return merge();
}

void ShardSet::for_each_vertex(const std::function<void(NodeId)>& fn) {
  // Lowest-shard exceptions win, matching a serial loop.
  crew_.run([&](std::size_t k) {
    const ShardState& st = states_[k];
    for (NodeId v = st.topo.vbegin; v < st.topo.vend; ++v) fn(v);
  });
}

void ShardSet::for_each_vertex(std::span<const NodeId> nodes,
                               const std::function<void(NodeId)>& fn) {
  if (nodes.empty()) return;  // nothing to wake the crew for
  crew_.run([&](std::size_t k) {
    const ShardState& st = states_[k];
    for (auto it = std::lower_bound(nodes.begin(), nodes.end(),
                                    st.topo.vbegin);
         it != nodes.end() && *it < st.topo.vend; ++it) {
      fn(*it);
    }
  });
}

}  // namespace ldc
