// Round-synchronous message-passing engine (LOCAL / CONGEST simulator).
//
// Algorithms are written in bulk-synchronous style: each call to
// exchange_broadcast() or exchange_broadcast_word() is one communication
// round — every node, or the listed senders, sends one message to all its
// neighbors, and receives its neighbors' messages afterwards. Every
// algorithm of the paper (and every baseline) runs its rounds this way.
// Node programs must derive a node's message only from that node's own
// state and previously received messages; the validators in ldc/coloring
// and the determinism tests enforce the observable consequences of that
// discipline.
//
// A bit budget models CONGEST: any message exceeding the budget is counted
// as a violation (and optionally throws in strict mode). Budget 0 means the
// LOCAL model (unbounded messages).
//
// Execution engines. Every engine runs the same shard-round kernel
// (shard_round.hpp) — the one implementation of a round — over contiguous
// vertex ranges, and all of them produce byte-identical results (colors,
// metrics, trace digests); the cross-engine suites in
// tests/test_parallel_equivalence.cpp, tests/test_sharded.cpp and
// tests/test_dist.cpp lock this down:
//
//  * kSerial (default): one range [0, n) on one thread.
//  * kSharded: the graph is partitioned into K contiguous vertex ranges,
//    each run by its own dedicated crew thread. Each range fills its own
//    destinations' rows, reading the posted payloads of every sender;
//    ranges are contiguous and ascending, which reproduces the serial
//    sender order exactly (see DESIGN.md §11 and shard.hpp). Cross-shard
//    traffic is observable via cross_shard_traffic(); it is deliberately
//    NOT part of RunMetrics, so metrics and digests stay
//    engine-independent.
//  * kDist: the same kernel across process boundaries — each shard lives
//    in its own worker process (`ldc_shard`), which gets the round's
//    sender list and fault context and returns its rows of sender ids as
//    length-prefixed, digest-sealed frames over sockets. The coordinator
//    side is a DistBackend (src/ldc/dist/coordinator.hpp) attached via
//    attach_dist(); the determinism contract is identical (DESIGN.md §12),
//    and cross_shard_traffic() reports the same logical counters the
//    in-process sharded engine would.
//
// Every round is a broadcast, whose payloads are the senders' writers or,
// for a word round, one word each. Every engine lands a round in the
// Network-owned round arena, in the serial layout: ranges are laid out
// back to back at their bases (MailArena::lay_out), and a dense round
// (every node sending, no fault plan) fills no slot at all, so the
// RoundMail/WordMail views never depend on the engine, and an engine
// switch never invalidates a view. Payloads travel by copy, once: a round
// posts each live sender's words in the arena's word pool, so a view
// never reads the caller's writers or words, and the caller may rewrite
// them for the next round as soon as the round returns (mail.hpp).
//
// Shard count: an explicit set_engine() parameter, else the LDC_SHARDS
// environment variable (strictly parsed), else hardware concurrency. One
// shard runs the serial code path. The only engine-visible difference is
// wall time, which is recorded (metrics().wall_ns, Trace::Round::wall_ns)
// but excluded from digests and equivalence.
//
// Fault injection: an attached FaultPlan (attach_faults, mirroring
// attach_trace) makes rounds adversarial — seeded message drops and
// bit-flip corruption per edge, and crash/sleep schedules per node. Every
// fault decision is a pure function of (plan seed, round, edge/node), so
// faulty runs keep the full cross-engine equivalence guarantee; fault
// events are counted in RunMetrics and recorded per round in the attached
// Trace. See fault.hpp for the model and accounting rules.
//
// Errors: every error a round can raise — a bad sender list, a strict
// CONGEST violation (at the first offending sender in node order), a
// payload of 2^32 bits or more — throws here, before any engine runs, so
// every engine throws the same exception. A round that throws leaves the
// RunMetrics traffic fields (messages, bits, violations, drops,
// corruptions) as they were before the round: the round's accounting is
// staged and merged only on success.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "ldc/graph/graph.hpp"
#include "ldc/runtime/fault.hpp"
#include "ldc/runtime/mail.hpp"
#include "ldc/runtime/metrics.hpp"
#include "ldc/runtime/shard.hpp"
#include "ldc/runtime/shard_round.hpp"
#include "ldc/runtime/trace.hpp"

namespace ldc {

class DistBackend;

class Network {
 public:
  enum class Engine { kSerial, kSharded, kDist };

  /// budget_bits == 0 => LOCAL model. strict => throw on budget violation.
  explicit Network(const Graph& g, std::size_t budget_bits = 0,
                   bool strict = false)
      : graph_(&g), budget_bits_(budget_bits), strict_(strict) {}

  /// A sub-run of `parent` on `sub` (a subgraph one of the parent's phases
  /// runs on; fold it back with parent.absorb()). It keeps the parent's
  /// budget and strict flag, and the parent's round callback sees every
  /// sub-run round under the parent's index: the parent's rounds at
  /// creation plus the local index. The parent must outlive the sub-run.
  /// Engine, fault plan and trace are the sub-run's own.
  Network(const Graph& sub, const Network& parent);

  const Graph& graph() const { return *graph_; }

  /// Selects the execution engine. For kSharded, `shards` is the shard
  /// count; 0 resolves via LDC_SHARDS (strictly parsed — garbage throws
  /// std::invalid_argument), else hardware concurrency, clamped to n. A
  /// resolved count of 1 runs the serial code path. Results are
  /// engine-independent. kDist cannot be selected here, whether or not a
  /// backend is attached: set_engine(kDist) throws std::invalid_argument,
  /// and attach_dist() selects it.
  void set_engine(Engine engine, std::size_t shards = 0);

  /// Attaches (or with nullptr detaches) the multi-process distributed
  /// backend and switches the engine to kDist (resp. back to kSerial).
  /// The backend is not owned and must outlive the attachment; bind()
  /// runs immediately so a partition/handshake failure surfaces here,
  /// not at the first round.
  void attach_dist(DistBackend* backend);

  Engine engine() const { return engine_; }

  /// Lanes the engine uses: the shard count under kSharded, the
  /// worker-process count under kDist, 1 under kSerial.
  std::size_t threads() const;

  /// Cumulative cross-shard traffic under kSharded / kDist (zeros
  /// otherwise). Engine-private observability: not in RunMetrics, not
  /// digested. Under kDist these are the LOGICAL counters — identical
  /// to what the in-process sharded engine would report; physical wire
  /// bytes/frames are the backend's own wire_stats().
  ShardTraffic cross_shard_traffic() const;

  /// The round arena, read-only, for code that inspects how the last
  /// round landed: a dense round lays out no slot (arena().dense()).
  const MailArena& arena() const { return arena_; }

  /// One synchronous round: every node (or, given `senders`, only the
  /// listed nodes) broadcasts msgs[v] to all its neighbors; msgs has one
  /// entry per node, and unlisted nodes' entries are ignored. Returns a
  /// view of the per-node inboxes, each in ascending sender order. The
  /// list must be strictly ascending ids < n, checked like
  /// run_node_programs' list and before the round opens: a bad list
  /// throws std::invalid_argument with metrics, trace and the round
  /// callback untouched. An empty list is a counted round with no
  /// deliveries. Each live sender's words are posted once in the arena's
  /// word pool. A dense round (no list, no fault plan) fills nothing: v's
  /// inbox is each neighbour's posted entry, in adjacency order.
  /// Otherwise the kernel's push or pull survivor walk fills slots
  /// straight from the graph's CSR, each pointing at its sender's one
  /// entry; the kernel delivers in ascending sender order by
  /// construction, so no sort runs (a debug-build assertion guards the
  /// invariant). The view reads the Network-owned round arena and is
  /// invalidated by the next round on this Network (stale access throws
  /// std::logic_error). A sender that keeps its writer across rounds
  /// (clear() it, then write) allocates nothing in a steady state.
  RoundMail exchange_broadcast(
      const std::vector<BitWriter>& msgs,
      std::optional<std::span<const NodeId>> senders = std::nullopt);

  /// exchange_broadcast() for the most common round shape: every node (or
  /// the listed `senders`, under the same list contract) broadcasts ONE
  /// bounded value — exactly what a
  /// `BitWriter::write_bounded(words[v], bound)` + exchange_broadcast
  /// round sends, with no payload writer: each live sender's word is
  /// posted as a one-word payload, and the round runs exchange_broadcast's
  /// body. A dense lane reads neighbour u's word as pool word u. Observable
  /// behavior — metrics, trace rows, fault decisions and corrupted bit
  /// positions, inbox contents/order, strict-CONGEST errors — is
  /// byte-identical to the equivalent exchange_broadcast round: each
  /// delivery is accounted at ceil_log2(bound+1) bits, and corruption
  /// flips the same PRF-chosen bit (BitWriter packs LSB-first, so word
  /// bit k == payload bit k). Every sender's word must be <= bound; bound
  /// must be < 2^64-1. The returned view obeys the same one-round
  /// lifetime as exchange_broadcast().
  WordMail exchange_broadcast_word(
      const std::vector<std::uint64_t>& words, std::uint64_t bound,
      std::optional<std::span<const NodeId>> senders = std::nullopt);

  /// Evaluates fn(v) for every node, each shard's range on its own worker
  /// under kSharded. fn must only write state owned by node v (its own
  /// message slot, color, inbox decode target, ...) — shared reads are
  /// fine, shared writes are not. Wall time is attributed to the next
  /// recorded round. Exceptions propagate; the one of the lowest throwing
  /// shard wins, as in a serial loop (though under kSharded other shards'
  /// callbacks may already have run).
  /// fn is called through a CallableRef: a capturing lambda allocates
  /// nothing.
  void run_node_programs(CallableRef<void(NodeId)> fn);

  /// run_node_programs() over the listed nodes only, for a phase whose
  /// work sits on a known subset (one colour class, its receivers): fn(v)
  /// for each v of `nodes`, which must be strictly ascending ids < n
  /// (anything else throws std::invalid_argument before fn runs). Under
  /// kSharded each shard runs its own slice of the list on its worker.
  /// Same ownership rule, wall-time booking and exception order as the
  /// all-node form.
  void run_node_programs(std::span<const NodeId> nodes,
                         CallableRef<void(NodeId)> fn);

  /// Accounts `k` silent rounds (structural rounds in which an algorithm
  /// phase passes without payload; kept so round counts match the paper's
  /// accounting even when a phase sends nothing). An attached Trace records
  /// k empty rounds so transcript length always equals metrics().rounds.
  /// Compute time accumulated by run_node_programs() since the last round
  /// is flushed into wall_ns here (attributed to the first silent round),
  /// so trailing compute phases are never silently dropped.
  void advance_rounds(std::uint64_t k) {
    if (k == 0) return;
    metrics_.rounds += k;
    const std::uint64_t wall = pending_compute_ns_;
    pending_compute_ns_ = 0;
    metrics_.wall_ns += wall;
    if (trace_ != nullptr) trace_->record_silent(k, wall);
  }

  /// Moves compute time still pending from run_node_programs() into
  /// metrics().wall_ns without accounting a round, attributing it to the
  /// last recorded trace round (if any). Call at the end of a run whose
  /// final phase computes without a subsequent exchange, so total wall time
  /// is conserved.
  void flush_compute_time() {
    if (pending_compute_ns_ == 0) return;
    metrics_.wall_ns += pending_compute_ns_;
    if (trace_ != nullptr) trace_->add_wall_ns(pending_compute_ns_);
    pending_compute_ns_ = 0;
  }

  /// Folds a sub-run's metrics into this network's (used when an algorithm
  /// phase executes on induced subgraphs whose traffic belongs to this
  /// network; the caller pre-aggregates parallel branches, with rounds =
  /// max across branches). An attached Trace records the sub-run as one
  /// row with its traffic, then silent rounds, so transcript length keeps
  /// matching metrics().rounds. With `mark` the rows carry that label and
  /// the current mark is left as it was.
  void absorb(const RunMetrics& m, const char* mark = nullptr) {
    metrics_.merge(m);
    if (trace_ != nullptr) trace_->record_absorbed(m, mark);
  }

  const RunMetrics& metrics() const { return metrics_; }

  std::size_t budget_bits() const { return budget_bits_; }

  /// Attaches a transcript recorder (not owned); every subsequent round
  /// appends one Trace::Round. Pass nullptr to detach.
  void attach_trace(Trace* trace) { trace_ = trace; }

  /// Round-boundary hook, mirroring attach_trace/attach_faults: invoked at
  /// the top of every round with the index of the round about to run,
  /// before any message is validated or delivered. The callback must not
  /// mutate the Network or any algorithm state (results must stay
  /// byte-identical with and without it); it may throw, which aborts the
  /// round before it is accounted — the cooperative-cancellation path the
  /// job service uses to honour deadlines and cancel requests. Pass an
  /// empty function to detach.
  void set_round_callback(std::function<void(std::uint64_t)> cb) {
    round_cb_ = std::move(cb);
  }

  /// The attached recorder (nullptr if none) — algorithms use it to mark
  /// their phases.
  Trace* trace() const { return trace_; }

  /// Convenience: mark the attached trace, if any.
  void mark(const char* label) {
    if (trace_ != nullptr) trace_->mark(label);
  }

  /// Attaches a fault plan (not owned); every subsequent round applies
  /// its drop/corrupt/crash/sleep schedule, keyed by the round index.
  /// Attaching (or detaching with nullptr) resets accumulated crash state,
  /// so a recovery phase can run fault-free after an adversarial one.
  void attach_faults(const FaultPlan* plan) {
    faults_ = plan;
    crashed_.assign(graph_->n(), 0);
    crashed_total_ = 0;
  }

  /// The attached fault plan (nullptr if none).
  const FaultPlan* faults() const { return faults_; }

  /// True if node v has crashed under the attached plan so far.
  bool crashed(NodeId v) const {
    return v < crashed_.size() && crashed_[v] != 0;
  }

 private:
  /// One round's bookkeeping, from open_round() to finish_round().
  struct OpenRound {
    RoundContext ctx;
    RoundFaults rf;
    std::uint64_t msgs_before = 0;
    std::uint64_t bits_before = 0;
    std::size_t max_bits = 0;  ///< widest message of the round
    std::uint64_t t0 = 0;
  };

  const Graph* graph_;
  std::size_t budget_bits_;
  bool strict_;
  RunMetrics metrics_;
  Trace* trace_ = nullptr;
  std::function<void(std::uint64_t)> round_cb_;  ///< round-boundary hook
  Engine engine_ = Engine::kSerial;
  std::unique_ptr<ShardSet> shards_;  ///< non-null only under kSharded, K>1
  DistBackend* dist_ = nullptr;       ///< non-null only under kDist
  std::uint64_t pending_compute_ns_ = 0;  ///< run_node_programs time since
                                          ///< the last recorded round
  const FaultPlan* faults_ = nullptr;
  std::vector<char> crashed_;  ///< permanent crash-stop state per node
  std::vector<char> down_;     ///< crashed or asleep in the current round
  std::uint32_t crashed_total_ = 0;
  MailArena arena_;       ///< every engine's round lands here
  RangeScratch scratch_;  ///< kSerial's round scratch
  LiveFlags flags_;       ///< kSerial's pull-walk flags
  std::vector<NodeId> live_ids_;  ///< a faulty round's live senders
  LiveSenders live_set_;          ///< a broadcast round's live senders

  /// Evaluates the plan's node schedules for `round` (single-threaded, so
  /// crash-cap resolution is engine-independent): updates crashed_/down_,
  /// counts crash/sleep events into metrics_ and `rf`.
  void prepare_round_faults(std::uint64_t round, RoundFaults& rf);

  /// Round prologue: the round-boundary hook, view invalidation, the
  /// round count, and the round's fault schedule.
  OpenRound open_round();
  /// The live senders of a broadcast round — the listed `senders` (all
  /// nodes without a list) that are not down — as an ascending list with
  /// its degree sum, or nullptr when every node sends and the round is
  /// fault-free. An engine raises their flags only for a pull walk.
  const LiveSenders* live_senders(
      std::optional<std::span<const NodeId>> senders,
      const RoundContext& ctx);
  /// Round epilogue: the order check, then merges the round's staging,
  /// fault counters, wall clock, trace row.
  void finish_round(OpenRound& r, const ShardStaging& st);
  /// The one broadcast body behind exchange_broadcast and
  /// exchange_broadcast_word: opens the round, accounts bits_of(u) bits
  /// per copy, has post(live) post the live senders' payloads (live ==
  /// nullptr: every node, a dense round), then lands the round on the
  /// engine.
  template <typename BitsOf, typename Post>
  void broadcast(std::optional<std::span<const NodeId>> senders,
                 const BitsOf& bits_of, const Post& post);
  /// Debug-build check of the ascending-sender invariant that replaced the
  /// per-inbox sort (a dense round's rows are the sorted CSR).
  void debug_check_sorted() const;
};

/// Interface of the multi-process distributed engine (implemented by
/// dist::Coordinator in src/ldc/dist/). The runtime stays free of any
/// socket or process code: Network dispatches each round to the attached
/// backend exactly as it does to its ShardSet — same inputs, same master
/// arena, staging returned for Network to merge — and the backend must
/// land the exact bytes the in-process engines would (the equivalence
/// suites in tests/test_dist.cpp enforce this).
class DistBackend {
 public:
  virtual ~DistBackend() = default;

  /// Worker-process count (the K of the partition).
  virtual std::size_t shards() const = 0;

  /// Cumulative LOGICAL cross-shard traffic — must equal what the
  /// in-process sharded engine's cross_shard_traffic() would report for
  /// the same run with the same K.
  virtual ShardTraffic traffic() const = 0;

 protected:
  friend class Network;

  /// Called by Network::attach_dist; partitions g and runs the assign
  /// handshake. Throwing here leaves the Network unchanged. The CONGEST
  /// budget never reaches the backend: Network accounts every round
  /// before it dispatches one.
  virtual void bind(const Graph& g) = 0;

  /// ShardSet::broadcast, run by the workers: lands the round in the
  /// master arena `a` and returns its staging, or throws, leaving nothing
  /// for Network to merge. The payloads are posted in `a` before the
  /// call; live == nullptr is a dense round, which fills nothing and only
  /// prices its cut.
  virtual ShardStaging broadcast(const RoundContext& rc,
                                 const LiveSenders* live, MailArena& a) = 0;
};

inline std::size_t Network::threads() const {
  if (dist_ != nullptr) return dist_->shards();
  return shards_ == nullptr ? 1 : shards_->size();
}

inline ShardTraffic Network::cross_shard_traffic() const {
  if (dist_ != nullptr) return dist_->traffic();
  return shards_ == nullptr ? ShardTraffic{} : shards_->traffic();
}

}  // namespace ldc
