// ShardCrew / ShardSet: the worker-thread group, and the Engine::kSharded
// runner of the shard-round kernel. A round runs the kernel on every
// shard's range, one crew worker per shard, lands the ranges back to back
// in the master arena and merges the shards' staging in ascending order;
// because shards own contiguous ascending vertex ranges, inbox bytes,
// metrics, trace rows, and fault decisions are byte-identical to
// kSerial's single range [0, n). A dense broadcast has no range to fill
// and only prices its cut.
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
    std::optional<Job> job;
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

void ShardCrew::start(Job job) {
  if (workers_.empty()) return;
  {
    std::lock_guard<std::mutex> lock(mu_);
    job_ = job;
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
    job_.reset();
  }
  // Lowest shard = lowest sender range: matches the error order the other
  // engines guarantee.
  for (const auto& e : errors_) {
    if (e) std::rethrow_exception(e);
  }
}

// ----------------------------------------------------------- shard set --

ShardStaging dense_cut_traffic(std::span<const CutSender> cut,
                               const MailSlot* posted) {
  ShardStaging st;
  for (const CutSender& c : cut) {
    st.traffic_messages += c.cut_degree;
    st.traffic_bits += std::uint64_t{c.cut_degree} * posted[c.v].bits;
  }
  return st;
}

ShardSet::ShardSet(const Graph& g, std::size_t shards)
    : part_(Partition::degree_balanced(g, shards)),
      states_(part_.shards()),
      counts_(part_.shards()),
      segments_(part_.shards()),
      crew_(part_.shards()) {
  crew_.run([&](std::size_t k) {
    ShardState& st = states_[k];
    st.begin = part_.begin(k);
    st.end = part_.end(k);
    st.cut = cut_senders(g, st.begin, st.end);
  });
}

ShardStaging ShardSet::merge() {
  ShardStaging total;
  for (const ShardState& st : states_) total += st.staging;
  total_traffic_.messages += total.traffic_messages;
  total_traffic_.bits += total.traffic_bits;
  return total;
}

ShardStaging ShardSet::broadcast(const RoundContext& rc,
                                 const LiveSenders* live, MailArena& a) {
  const MailSlot* posted = a.posted();
  if (live == nullptr) {
    for (ShardState& st : states_) {
      st.staging = dense_cut_traffic(st.cut, posted);
    }
    return merge();
  }
  const Graph& g = *rc.graph;
  LiveSenders walk = *live;
  bool pull = false;
  for (const ShardState& st : states_) {
    pull = pull || !ShardRound::pushes(g, st.begin, st.end, walk);
  }
  const auto raised = flags_.raise(g.n(), walk, pull);
  crew_.run([&](std::size_t k) {
    ShardState& st = states_[k];
    st.staging = ShardStaging{};
    counts_[k] = ShardRound::count(rc, st.begin, st.end, walk, st.scratch,
                                   st.staging, posted);
    segments_[k] = st.scratch.pool_words;
  });
  const auto out = a.lay_out(g.n(), counts_, 0, segments_);
  crew_.run([&](std::size_t k) {
    ShardState& st = states_[k];
    ShardRound::fill_broadcast(rc, st.begin, st.end, walk, posted,
                               st.scratch, range(out, k), st.staging);
  });
  gather_receivers(a);
  return merge();
}

ArenaRange<MailSlot> ShardSet::range(const ArenaLayout& out, std::size_t k) {
  ArenaRange<MailSlot> r = out[k];
  r.receivers = &states_[k].scratch.receivers;
  r.receivers->clear();
  return r;
}

void ShardSet::gather_receivers(MailArena& a) const {
  std::vector<NodeId>& list = a.receiver_list();
  for (const ShardState& st : states_) {
    const std::vector<NodeId>& mine = st.scratch.receivers;
    list.insert(list.end(), mine.begin(), mine.end());
  }
}

void ShardSet::for_each_vertex(CallableRef<void(NodeId)> fn) {
  // Lowest-shard exceptions win, matching a serial loop.
  crew_.run([&](std::size_t k) {
    const ShardState& st = states_[k];
    for (NodeId v = st.begin; v < st.end; ++v) fn(v);
  });
}

void ShardSet::for_each_vertex(std::span<const NodeId> nodes,
                               CallableRef<void(NodeId)> fn) {
  if (nodes.empty()) return;  // nothing to wake the crew for
  crew_.run([&](std::size_t k) {
    const ShardState& st = states_[k];
    for (auto it = std::lower_bound(nodes.begin(), nodes.end(),
                                    st.begin);
         it != nodes.end() && *it < st.end; ++it) {
      fn(*it);
    }
  });
}

}  // namespace ldc
