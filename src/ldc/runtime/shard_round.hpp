// The shard round: the one implementation of a synchronous CONGEST round.
//
// In the model the paper's algorithms are stated in, a round is one
// operation: every node sends at most one bounded message per incident
// edge, then reads its neighbours' messages. ShardRound owns that operation
// for one contiguous vertex range [b, e) of a partition, and every engine
// runs the same bodies:
//
//  * kSerial runs one range [0, n) — no partition, no crew thread, nothing
//    ever crosses a range boundary, and every hook is a template argument,
//    so it compiles to plain serial loops;
//  * kSharded runs K ranges, one per ShardCrew worker (shard.cpp);
//  * an `ldc_shard` worker process runs its own range and ships its rows
//    to the coordinator as a frame (dist/worker.cpp).
//
// A round is a broadcast: every node, or the listed senders, sends one
// payload to all its neighbours — a message round posts each sender's
// writer, a word round one word per sender (mail.hpp). Every fill writes
// one range's rows starting at the range's base, the slot index
// MailArena::lay_out() hands out once every range's slot count is known,
// and the corrupted copies it writes into the range's own pool segment,
// sized by the same pass. The in-process engines lay their ranges back to
// back in the Network's master arena, which is the serial layout; a
// worker lays out its own range in an arena of its own. A range writes
// only the rows it fills, in the arena's stamped row table (mail.hpp),
// and lists its receivers in ascending order; its counters are zero
// between rounds, each round zeroing the ones it touched. So a round
// costs its deliveries and receivers, not its range.
//
// A round fills slots only when it has a sender list or a fault plan (a
// dense round, every node sending fault-free, fills none; mail.hpp). Such
// a round runs a count pass, then a fill pass, over one of two survivor
// walks that resolve the same pure decisions:
//
//  * pull (receiver-driven): each destination reads its live in-neighbours
//    in adjacency order — the full adjacency of the range, every pass,
//    against n transmit flags raised for the round (LiveFlags);
//  * push (sender-driven): each live sender, in ascending order, walks its
//    adjacency clipped to the range; the count pass counts per
//    destination and marks each one it counts in the range's bitmap, and
//    the fill pass opens the marked rows in ascending order (an
//    O(range/64) scan) and places slots at per-row cursors.
//
// Both put every inbox in ascending sender order, so the choice never
// changes a byte: a range pushes when its live senders are sparse against
// its edges (pushes(), a named constant), reading only the sender list and
// its degree sum, and the flags are raised only when some range pulls.
//
// Determinism: every fault decision is a pure function of (plan seed,
// round, edge), re-resolved wherever an edge is visited; staging records
// hold sums and maxes only and are merged in ascending range order. The
// kernel never writes RunMetrics, so a round that throws (a strict
// CONGEST violation) leaves the caller's metrics exactly as they were
// before the round.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "ldc/graph/graph.hpp"
#include "ldc/runtime/fault.hpp"
#include "ldc/runtime/mail.hpp"
#include "ldc/runtime/metrics.hpp"
#include "ldc/runtime/trace.hpp"

namespace ldc {

class CongestViolation : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Cross-shard traffic observed by the sharded and distributed engines.
/// Engine-private by design: these counters are NOT part of RunMetrics or
/// the trace, so digests and metrics stay byte-identical across engines;
/// e20/e21 read them through Network::cross_shard_traffic().
struct ShardTraffic {
  std::uint64_t messages = 0;
  std::uint64_t bits = 0;
};

/// One round's read-only context, shared by every range of the round.
struct RoundContext {
  const Graph* graph = nullptr;
  std::uint64_t round = 0;
  const FaultPlan* faults = nullptr;  ///< non-null only on a faulty round
  const char* down = nullptr;  ///< n crashed-or-asleep flags (faulty rounds)
  std::size_t budget_bits = 0;  ///< 0 = LOCAL model
  bool strict = false;          ///< throw on a budget violation

  /// u -> v is lost in transit: the receiver is down or the plan drops it
  /// (receiver first, so the drop stream is consulted for live edges only).
  bool lost(NodeId u, NodeId v) const {
    return down[v] != 0 || faults->drops_message(round, u, v);
  }
};

/// The transmitting senders of a broadcast round that fills slots: an
/// ascending id list with its degree sum, which the push walk, the
/// push/pull choice and the bulk accounting read, and, only while some
/// range takes the pull walk, n flags raised for the round (LiveFlags).
/// Network builds it from the round's sender list (Network::live_senders).
struct LiveSenders {
  std::span<const NodeId> ids;
  std::uint64_t degree_sum = 0;
  const char* flags = nullptr;
};

/// The n transmit flags a pull walk reads, all clear between rounds.
/// raise() sets one round's senders, sizing the buffer at the first pull,
/// and the guard it returns clears them again: O(senders) each way.
class LiveFlags {
 public:
  /// Clears the raised senders' flags when it dies.
  class Raised {
   public:
    Raised(const Raised&) = delete;
    Raised& operator=(const Raised&) = delete;
    ~Raised() {
      if (flags_ == nullptr) return;
      for (NodeId u : ids_) flags_[u] = 0;
    }

   private:
    friend class LiveFlags;
    Raised(char* flags, std::span<const NodeId> ids)
        : flags_(flags), ids_(ids) {}

    char* flags_;
    std::span<const NodeId> ids_;
  };

  /// With `pull` (some range of the round takes the pull walk), flags
  /// live's senders among n vertices and points live.flags at them;
  /// otherwise leaves live as it is.
  [[nodiscard]] Raised raise(NodeId n, LiveSenders& live, bool pull) {
    if (!pull) return Raised(nullptr, {});
    if (flags_.size() < n) flags_.resize(n, 0);
    for (NodeId u : live.ids) flags_[u] = 1;
    live.flags = flags_.data();
    return Raised(flags_.data(), live.ids);
  }

 private:
  std::vector<char> flags_;
};

/// One range's accounting for one round, merged by the caller in
/// ascending range order (sums and maxes only, so the totals equal the
/// serial accounting whatever the boundaries).
struct ShardStaging {
  std::uint64_t messages = 0;
  std::uint64_t total_bits = 0;
  std::uint64_t max_message_bits = 0;
  std::uint64_t congest_violations = 0;
  std::uint64_t round_max_bits = 0;
  std::uint64_t dropped = 0;
  std::uint64_t corrupted = 0;
  std::uint64_t traffic_messages = 0;  ///< deliveries crossing the range
  std::uint64_t traffic_bits = 0;

  /// Accounts `copies` transmitted messages of `bits` bits each against
  /// the CONGEST budget; strict mode throws CongestViolation instead.
  void account(std::size_t bits, std::uint64_t copies,
               std::size_t budget_bits, bool strict) {
    if (budget_bits != 0 && bits > budget_bits) {
      if (strict) throw_congest(bits, budget_bits);
      congest_violations += copies;
    }
    messages += copies;
    total_bits += copies * bits;
    max_message_bits = std::max<std::uint64_t>(max_message_bits, bits);
    round_max_bits = std::max<std::uint64_t>(round_max_bits, bits);
  }

  ShardStaging& operator+=(const ShardStaging& o);

  /// Folds the round's staging into the run: traffic fields into m, the
  /// round's widest message into round_max_bits, fault events into rf.
  /// Cut traffic is the engine's own (Network::cross_shard_traffic()).
  void merge_into(RunMetrics& m, std::size_t& round_max_bits,
                  RoundFaults& rf) const;

 private:
  [[noreturn]] static void throw_congest(std::size_t bits,
                                         std::size_t budget_bits);
};

/// One range's reusable round scratch: per destination of the range, the
/// survivor count of a push count pass (the fill's write cursor), and a
/// bit marking it counted, both zero between rounds — a round zeroes the
/// ones it touched, and `counting` flags a count whose round threw before
/// its fill (a failed layout allocation), for the next count to clear;
/// the range's receivers where the range lists them apart from the arena
/// (kSharded); and the pool words of the range's corrupted copies.
struct RangeScratch {
  std::vector<std::uint32_t> cursor;
  std::vector<std::uint64_t> marks;
  bool counting = false;
  std::vector<NodeId> receivers;
  std::uint64_t pool_words = 0;
};

class ShardRound {
 public:
  /// Bulk sender-side accounting of a broadcast round: every live sender
  /// (live == nullptr: all of them) sends degree-many copies of a
  /// bits_of(u)-bit payload, accounted in ascending sender order.
  template <typename BitsOf>
  static void account_broadcast(const RoundContext& rc,
                                const LiveSenders* live,
                                const BitsOf& bits_of, ShardStaging& st) {
    const Graph& g = *rc.graph;
    auto account = [&](NodeId u) {
      const std::size_t deg = g.degree(u);
      if (deg != 0) st.account(bits_of(u), deg, rc.budget_bits, rc.strict);
    };
    if (live == nullptr) {
      for (NodeId u = 0; u < g.n(); ++u) account(u);
    } else {
      for (NodeId u : live->ids) account(u);
    }
  }

  /// True when range [b, e) takes the push walk for this live set; a
  /// range that does not reads live.flags, which the engine raises first
  /// (LiveFlags).
  static bool pushes(const Graph& g, NodeId b, NodeId e,
                     const LiveSenders& live);

  /// The count pass of a broadcast round that fills slots: the
  /// survivors of `live` delivered to [b, e), with drop and corruption
  /// events counted into st. A push count leaves per-destination counts
  /// in s for the fill pass, which re-resolves the same pure decisions.
  /// Given the round's `posted` entries, s.pool_words gets the words of
  /// the range's corrupted copies; otherwise 0.
  static std::uint32_t count(const RoundContext& rc, NodeId b, NodeId e,
                             const LiveSenders& live, RangeScratch& s,
                             ShardStaging& st,
                             const MailSlot* posted = nullptr);

  /// The fill pass, after count() on the same range and scratch: writes
  /// the range's non-empty rows and receivers into `out` and
  /// put(slot, u, v, corrupt) per survivor, every row in ascending sender
  /// order. The events were counted by count().
  template <typename Slot, typename Put>
  static void fill_rows(const RoundContext& rc, NodeId b, NodeId e,
                        const LiveSenders& live, RangeScratch& s,
                        ArenaRange<Slot> out, Put&& put) {
    ShardStaging again;
    if (pushes(*rc.graph, b, e, live)) {
      const std::size_t opened = open_rows(b, e, s, out);
      push(rc, b, e, live.ids, again,
           [&](NodeId u, NodeId v, bool corrupt) {
             put(out.slots[s.cursor[v - b]++], u, v, corrupt);
           });
      close_rows(b, s, *out.receivers, opened);
      return;
    }
    std::uint32_t first = out.base;
    std::uint32_t at = first;
    scan(rc, b, e, live.flags, again,
         [&](NodeId v) {
           if (at == first) return;
           out.rows[v] = RowEntry{first, at - first, out.rows.stamp};
           out.receivers->push_back(v);
           first = at;
         },
         [&](NodeId u, NodeId v, bool corrupt) {
           put(out.slots[at++], u, v, corrupt);
         });
  }

  /// Broadcast fill of destinations [b, e) into `out`, sized by count()
  /// with the same `posted` entries: each survivor's slot is its sender's
  /// posted entry, and a corrupted one points at a flipped copy in the
  /// range's pool segment.
  static void fill_broadcast(const RoundContext& rc, NodeId b, NodeId e,
                             const LiveSenders& live, const MailSlot* posted,
                             RangeScratch& s, ArenaRange<MailSlot> out,
                             ShardStaging& st);

  /// Points `slot` (u -> v) at a copy of its payload written at pool word
  /// `to`, with the round's PRF-chosen bit flipped there: the entry it
  /// was copied from never changes.
  static void corrupt_copy(const RoundContext& rc, NodeId u, NodeId v,
                           std::uint64_t* pool, std::uint64_t to,
                           MailSlot& slot) {
    std::copy_n(pool + slot.at, payload_words(slot.bits), pool + to);
    slot.at = to;
    rc.faults->corrupt_payload(rc.round, u, v, pool + to, slot.bits);
  }

 private:
  /// The push/pull crossover. A pull pass reads each of the range's
  /// edges once. A push pass clips each live sender's row, which costs
  /// about kClipCost edge reads (the row is a cache miss that the range's
  /// few deliveries from it do not amortize), and delivers the range's
  /// share of their degree sum. A range pushes when that is no more work
  /// than a pull: on random 16-regular graphs, up to ~80% of the senders
  /// live on one range, ~50% on each of four (DESIGN.md §7).
  static constexpr double kClipCost = 4.0;

  /// The fault decisions for live edge u -> v of a faulty round, events
  /// counted into st: false when it is lost, else true with `corrupt`.
  static bool arrives(const RoundContext& rc, NodeId u, NodeId v,
                      ShardStaging& st, bool& corrupt) {
    if (rc.lost(u, v)) {
      ++st.dropped;
      return false;
    }
    corrupt = rc.faults->corrupts_message(rc.round, u, v);
    if (corrupt) ++st.corrupted;
    return true;
  }

  /// Readies range [b, e)'s counters for a count: sized at the range's
  /// first counted round, and zero — unless the last count here belongs
  /// to a round that threw before its fill, whose marked counters this
  /// clears.
  static void open_count(NodeId b, NodeId e, RangeScratch& s) {
    const std::size_t range = static_cast<std::size_t>(e - b);
    if (s.cursor.size() < range) {
      s.cursor.resize(range, 0);
      s.marks.resize((range + 63) / 64, 0);
    }
    if (s.counting) {
      for_marked(b, e, s, [&](NodeId v) { s.cursor[v - b] = 0; });
    }
    s.counting = true;
  }

  /// Counts one survivor for destination v, and marks v counted.
  static void count_row(NodeId b, RangeScratch& s, NodeId v) {
    ++s.cursor[v - b];
    s.marks[(v - b) >> 6] |= std::uint64_t{1} << ((v - b) & 63);
  }

  /// visit(v) for every marked destination of [b, e), ascending, clearing
  /// the marks: an O(range/64) word scan.
  template <typename Visit>
  static void for_marked(NodeId b, NodeId e, RangeScratch& s,
                         Visit&& visit) {
    const std::size_t words = (static_cast<std::size_t>(e - b) + 63) / 64;
    for (std::size_t i = 0; i < words; ++i) {
      for (std::uint64_t bits = std::exchange(s.marks[i], 0); bits != 0;
           bits &= bits - 1) {
        visit(b + static_cast<NodeId>((i << 6) + std::countr_zero(bits)));
      }
    }
  }

  /// Opens the rows counted into range [b, e), ascending: each gets its
  /// row entry in `out` (first slot, count), its counter becomes the
  /// fill's cursor, and it joins the receivers. Returns where in the
  /// receiver list the range's rows start, for close_rows().
  template <typename Slot>
  static std::size_t open_rows(NodeId b, NodeId e, RangeScratch& s,
                               ArenaRange<Slot> out) {
    const std::size_t opened = out.receivers->size();
    std::uint32_t at = out.base;
    for_marked(b, e, s, [&](NodeId v) {
      const std::uint32_t count = std::exchange(s.cursor[v - b], at);
      out.rows[v] = RowEntry{at, count, out.rows.stamp};
      at += count;
      out.receivers->push_back(v);
    });
    return opened;
  }

  /// Ends the count after the fill: zeroes the cursors of the rows
  /// open_rows() opened, receivers[opened...].
  static void close_rows(NodeId b, RangeScratch& s,
                         const std::vector<NodeId>& receivers,
                         std::size_t opened) {
    for (std::size_t i = opened; i < receivers.size(); ++i) {
      s.cursor[receivers[i] - b] = 0;
    }
    s.counting = false;
  }

  /// Pull walk of a broadcast round over destinations [b, e):
  /// emit(u, v, corrupt) runs per surviving live in-neighbour u (live[u]
  /// set) in adjacency order (the graph's sorted rows, so ascending
  /// sender order), then done(v) closes v's row.
  template <typename Done, typename Emit>
  static void scan(const RoundContext& rc, NodeId b, NodeId e,
                   const char* live, ShardStaging& st, Done&& done,
                   Emit&& emit) {
    const Graph& g = *rc.graph;
    const FaultPlan* f = rc.faults;
    for (NodeId v = b; v < e; ++v) {
      for (NodeId u : g.neighbors(v)) {
        if (live[u] == 0) continue;
        bool corrupt = false;
        if (f != nullptr && !arrives(rc, u, v, st, corrupt)) continue;
        emit(u, v, corrupt);
      }
      done(v);
    }
  }

  /// Push walk of a broadcast round over destinations [b, e): each live
  /// sender u in ascending order, its sorted adjacency clipped to the
  /// range with one lower_bound, emit(u, v, corrupt) per survivor — the
  /// edges and decisions scan() visits, sender-major.
  template <typename Emit>
  static void push(const RoundContext& rc, NodeId b, NodeId e,
                   std::span<const NodeId> senders, ShardStaging& st,
                   Emit&& emit) {
    const Graph& g = *rc.graph;
    const FaultPlan* f = rc.faults;
    for (NodeId u : senders) {
      const std::span<const NodeId> row = g.neighbors(u);
      for (auto it = std::lower_bound(row.begin(), row.end(), b);
           it != row.end() && *it < e; ++it) {
        bool corrupt = false;
        if (f != nullptr && !arrives(rc, u, *it, st, corrupt)) continue;
        emit(u, *it, corrupt);
      }
    }
  }
};

}  // namespace ldc
