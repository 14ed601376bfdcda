// Round-arena mailboxes: the delivery plane of the simulator.
//
// Every round delivers into a Network-owned MailArena: a flat mailbox
// (a row table locating each destination's slots, plus one flat array of
// (sender, bits, pool offset) slots) over one word pool that holds the
// round's payload bits. Every buffer is reused round after round, so the
// steady state of a run performs no per-round heap allocation. The caller
// receives a view over the arena: a RoundMail, whose inboxes hand out
// (sender, BitReader) deliveries reading the pool, or, for a word round,
// a WordMail, whose lanes hand out (sender, word) pairs from the same
// rows. A view is invalidated by the next round on the same Network (the
// arena is rewritten in place); stale access throws std::logic_error in
// every build type, so a call site that accidentally holds an inbox across
// rounds fails loudly instead of reading the next round's traffic. Callers
// that need delivered messages to outlive the round copy them out.
//
// The word pool. A payload lives exactly one round, so the pool is a bump
// allocator that every round empties (MailArena::open) — the one-round
// case of liveness-based buffer reuse. A round lays it out as
//
//   [posted payloads][range 0's segment][range 1's segment]...
//
// A broadcast posts each live sender's words once (MailArena::post; a word
// round posts one word per sender, MailArena::post_word, and with every
// node sending sender u's word is pool word u, MailArena::post_words), and
// every delivery of that sender is that one entry, so a fill writes ids
// and offsets and copies no payload. A corrupted delivery copies its
// sender's entry into its destination range's segment and flips the bit
// there: the sender's entry and the sibling deliveries never change.
// Ranges own disjoint segments, sized by the round's count pass, so
// concurrent fills never share a bump pointer.
//
// Dense rounds. A broadcast in which every node sends and no fault plan
// is attached delivers every neighbour's entry to every node, so it fills
// no slot on any engine (MailArena::lay_out_dense): destination v's row
// is its sorted adjacency row, and neighbour u's delivery is u's posted
// entry. Every other round has slots.
//
// Slot rounds. Every engine lands its rounds in this one arena, in this
// one layout. A slot round sizes its slots once for K contiguous vertex
// ranges laid back to back (MailArena::lay_out) and hands each range its
// base (first slot) and its pool segment; kSerial fills one range,
// kSharded K ranges on K threads, and the distributed coordinator splices
// the ranges its worker processes computed. Only an `ldc_shard` worker
// keeps an arena of its own, for its range alone.
//
// The row table. A slot round writes only the rows it fills: destination
// v's row is one RowEntry (first slot, count, round stamp: 12 bytes per
// vertex, allocated at the Network's first slot round), valid only while
// its stamp is the arena's current one, so a row the round never wrote
// reads as an empty inbox and no round resets the table. Every slot round
// takes this one representation: a push walk counts into its range's
// cursors and marks the rows it touches, then opens the marked rows in
// ascending order by an O(n/64) scan; a pull walk and the coordinator's
// splice write their non-empty rows in order. Each round also hands out
// its receivers, the destinations with at least one delivery, in
// ascending order (receivers()): kSharded concatenates the ranges' lists
// in range order, so a listed round costs its receivers and deliveries on
// every engine, not n.
//
// Delivery order contract: within one inbox, deliveries are in strictly
// ascending sender order (a broadcast sends each neighbour one copy).
// Every engine produces this order by construction — a dense row is the
// graph's sorted adjacency, and every slot round runs the shard-round
// kernel (shard_round.hpp), which fills each destination by walking
// source ranges in ascending order, and ranges are contiguous and
// ascending — which is what lets the plane skip the per-inbox sort
// entirely (a debug-build assertion keeps the invariant honest).
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "ldc/graph/graph.hpp"
#include "ldc/support/bitio.hpp"

namespace ldc {

class Network;

/// One delivery in the arena: its sender, and where its payload sits in
/// the round's word pool.
struct MailSlot {
  NodeId sender;
  std::uint32_t bits;  ///< payload length
  std::uint64_t at;    ///< the payload's first pool word
};
// A fill writes one slot per delivery: keep it at two words.
static_assert(sizeof(MailSlot) == 16);

/// One delivered message as an inbox hands it out: the sender and a
/// reader over the payload in the round's pool. Both are values, so
/// `for (auto [u, r] : inbox)` reads each payload from its start.
struct Delivery {
  NodeId sender;
  BitReader reader;
};

/// One delivered word with its sender, as a word round's lane hands it
/// out.
struct WordSlot {
  NodeId sender;
  std::uint64_t value;
};

/// One destination's row in a slot round: its `count` deliveries start at
/// slot `first`. It belongs to the round whose stamp it carries; a row
/// with any other stamp reads as an empty inbox.
struct RowEntry {
  std::uint32_t first;
  std::uint32_t count;
  std::uint32_t stamp;
};
static_assert(sizeof(RowEntry) == 12);

/// A slot round's row table as its writers see it: destination v's entry
/// is at[v - origin], and it counts for this round only once stamped with
/// `stamp`. Each vertex range writes the entries of its own rows only.
struct RowTable {
  RowEntry* at = nullptr;
  NodeId origin = 0;
  std::uint32_t stamp = 0;

  RowEntry& operator[](NodeId v) const { return at[v - origin]; }
};

/// Write access to one vertex range's deliveries in an arena sized by
/// MailArena::lay_out(): the range's rows go to `rows`, its slots fill
/// slots[base...] in ascending row order, its receivers are appended to
/// `receivers` in ascending order, and the corrupted copies it writes fill
/// pool[segment...]. Valid until the arena's next open(). Slot is
/// MailSlot, or NodeId for the sender ids an `ldc_shard` worker fills
/// into a kInboxIds reply.
template <typename Slot>
struct ArenaRange {
  RowTable rows;
  Slot* slots;
  std::uint32_t base;
  std::vector<NodeId>* receivers;
  std::uint64_t* pool = nullptr;
  std::uint64_t segment = 0;
};

/// A round laid out by MailArena::lay_out(): range k writes through
/// (*this)[k], whose receivers go to the arena's list. Valid until the
/// arena's next open().
struct ArenaLayout {
  RowTable rows;
  MailSlot* slots;
  const std::uint32_t* bases;
  std::vector<NodeId>* receivers;
  std::uint64_t* pool;
  const std::uint64_t* segments;

  ArenaRange<MailSlot> operator[](std::size_t k) const {
    return {rows, slots, bases[k], receivers, pool, segments[k]};
  }
};

/// One destination's deliveries: `size` slots from `slots`, or, in a
/// dense round, one per neighbour in `nbrs`, neighbour u's being its
/// posted entry slots[u]. Payloads sit in `pool`.
struct MailRow {
  const MailSlot* slots = nullptr;
  const NodeId* nbrs = nullptr;  ///< dense rounds only
  std::size_t size = 0;
  const std::uint64_t* pool = nullptr;

  const MailSlot& slot(std::size_t i) const {
    return nbrs == nullptr ? slots[i] : slots[nbrs[i]];
  }
};

/// Network-owned storage for one round's deliveries, reused across rounds.
class MailArena {
 public:
  MailArena() = default;
  MailArena(const MailArena&) = delete;
  MailArena& operator=(const MailArena&) = delete;

  /// Monotone round stamp; every round bumps it, invalidating the views
  /// handed out for earlier rounds.
  std::uint64_t epoch() const { return epoch_; }

  /// Opens the next round: invalidates the views handed out so far and
  /// every row of the table, and empties the word pool and the receiver
  /// list, keeping every buffer's capacity.
  void open() {
    ++epoch_;
    if (++stamp_ == 0) {
      // Once per 2^32 rounds: no entry may still carry the new stamp.
      for (RowEntry& r : rows_) r.stamp = 0;
      stamp_ = 1;
    }
    pool_.clear();
    receivers_.clear();
    dense_ = nullptr;
  }

  /// The row table of this round for `n` destinations from vertex
  /// `origin`, sized at the first slot round (lay_out() calls it); its
  /// entries are this round's once stamped.
  RowTable rows(std::size_t n, NodeId origin = 0) {
    if (rows_.size() < n) rows_.resize(n, RowEntry{0, 0, 0});
    origin_ = origin;
    return {rows_.data(), origin, stamp_};
  }

  /// The last slot round's slots, in ascending row order.
  const std::vector<MailSlot>& slots() const { return slots_; }

  /// The round's word pool. Serial code may append to it — the
  /// coordinator's splice decodes payloads straight into it — because
  /// slots address it by offset, not by pointer.
  std::vector<std::uint64_t>& pool() { return pool_; }
  const std::vector<std::uint64_t>& pool() const { return pool_; }

  /// The round's receiver list, for an engine that gathers its ranges'
  /// lists (kSharded appends them in range order).
  std::vector<NodeId>& receiver_list() { return receivers_; }

  /// Copies sender u's payload to the end of the pool, once, before a
  /// broadcast round's fills: every delivery of u is this entry.
  /// Throws std::length_error for a payload of 2^32 bits or more.
  void post(NodeId u, const BitWriter& w) {
    if (w.bit_count() > UINT32_MAX) {
      throw std::length_error("MailArena: payload of 2^32 bits or more");
    }
    post_entry(u, static_cast<std::uint32_t>(w.bit_count()));
    pool_.insert(pool_.end(), w.words().begin(), w.words().end());
  }

  /// post() for a one-word payload of `bits` bits: `word` must fit them.
  void post_word(NodeId u, std::uint64_t word, std::uint32_t bits) {
    post_entry(u, bits);
    pool_.push_back(word);
  }

  /// post_word() for every node of a round, in one pass, as the round's
  /// only posts: sender u's word is pool word u.
  void post_words(std::span<const std::uint64_t> words, std::uint32_t bits) {
    if (posted_.size() < words.size()) posted_.resize(words.size());
    for (NodeId u = 0; u < words.size(); ++u) {
      posted_[u] = MailSlot{u, bits, u};
    }
    pool_.assign(words.begin(), words.end());
  }

  /// The posted entries, by sender: valid for this round's posted
  /// senders only.
  const MailSlot* posted() const { return posted_.data(); }

  /// The layout of a dense round: no slots; destination v's row is its
  /// adjacency row in g, every neighbour's delivery its posted entry.
  void lay_out_dense(const Graph& g) { dense_ = &g; }

  /// The layout step of every slot round and the only write access to
  /// the slots: the row table for `n` destinations from vertex `origin`
  /// (rows()), the slots for counts[k] slots per vertex range k, and a
  /// pool segment of segments[k] words per range (none when `segments`
  /// is empty) after the posted payloads. Ranges lie back to back in
  /// ascending order, so range k's base is the sum of the counts before
  /// it. Everything is sized here, once, so K writers can then fill their
  /// ranges concurrently, each writing its own rows and segment.
  /// Allocates nothing in a steady state.
  ArenaLayout lay_out(std::size_t n, std::span<const std::uint32_t> counts,
                      NodeId origin = 0,
                      std::span<const std::uint64_t> segments = {}) {
    const RowTable table = rows(n, origin);
    bases_.resize(counts.size());
    segments_.resize(counts.size());
    std::uint32_t total = 0;
    std::uint64_t words = pool_.size();
    for (std::size_t k = 0; k < counts.size(); ++k) {
      bases_[k] = total;
      total += counts[k];
      segments_[k] = words;
      if (!segments.empty()) words += segments[k];
    }
    slots_.resize(total);
    pool_.resize(words);
    return {table,          slots_.data(), bases_.data(),
            &receivers_,    pool_.data(),  segments_.data()};
  }

  /// lay_out() for a single range of `n` destinations.
  ArenaRange<MailSlot> lay_out(std::size_t n, std::uint32_t count,
                               NodeId origin = 0, std::uint64_t segment = 0) {
    return lay_out(n, std::span(&count, 1), origin,
                   std::span(&segment, 1))[0];
  }

  /// True when the round has no slots (lay_out_dense()).
  bool dense() const { return dense_ != nullptr; }

  /// Destination v's deliveries this round: empty for a row the round
  /// did not write.
  MailRow row(NodeId v) const {
    if (dense_ != nullptr) {
      const std::span<const NodeId> nb = dense_->neighbors(v);
      return {posted_.data(), nb.data(), nb.size(), pool_.data()};
    }
    if (v - origin_ >= rows_.size()) return {};
    const RowEntry& r = rows_[v - origin_];
    if (r.stamp != stamp_) return {};
    return {slots_.data() + r.first, nullptr, r.count, pool_.data()};
  }

  /// The round's receivers: the destinations with at least one delivery,
  /// ascending. A dense round's are the graph's non-isolated vertices,
  /// listed at the first call in any dense round (O(n), once per arena:
  /// make that call from one thread).
  std::span<const NodeId> receivers() const {
    if (dense_ == nullptr) return receivers_;
    if (!dense_listed_) {
      for (NodeId v = 0; v < dense_->n(); ++v) {
        if (dense_->degree(v) != 0) dense_receivers_.push_back(v);
      }
      dense_listed_ = true;
    }
    return dense_receivers_;
  }

 private:
  /// Records sender u's entry: `bits` bits from the pool's end, where the
  /// caller appends them.
  void post_entry(NodeId u, std::uint32_t bits) {
    if (posted_.size() <= u) posted_.resize(std::size_t{u} + 1);
    posted_[u] = MailSlot{u, bits, pool_.size()};
  }

  std::vector<RowEntry> rows_;      ///< the row table, from origin_
  std::vector<MailSlot> slots_;     ///< flat delivery slots
  std::vector<std::uint64_t> pool_;  ///< the round's payload words
  std::vector<MailSlot> posted_;     ///< a broadcast's entries, by sender
  std::vector<NodeId> receivers_;    ///< a slot round's receivers
  std::vector<std::uint32_t> bases_;     ///< the last layout's range bases
  std::vector<std::uint64_t> segments_;  ///< ... and pool segments
  const Graph* dense_ = nullptr;  ///< a dense round's rows (else slots)
  mutable std::vector<NodeId> dense_receivers_;
  mutable bool dense_listed_ = false;
  NodeId origin_ = 0;
  std::uint32_t stamp_ = 0;  ///< the current round's row stamp, never 0
  std::uint64_t epoch_ = 0;
};

/// What RoundMail and WordMail share: the owning arena, its epoch at the
/// round the view was taken, and the stale-access check.
class ArenaView {
 public:
  /// Number of destinations (the graph's n).
  std::size_t size() const { return n_; }
  bool empty() const { return n_ == 0; }

  /// The destinations with at least one delivery this round, ascending
  /// and the same on every engine (MailArena::receivers()); throws
  /// std::logic_error if a later round invalidated this view.
  std::span<const NodeId> receivers() const {
    check_fresh("receivers");
    return arena_->receivers();
  }

 protected:
  ArenaView() = default;
  ArenaView(const MailArena* arena, std::uint32_t n)
      : arena_(arena), n_(n), epoch_(arena->epoch()) {}

  /// Destination v's row; throws std::logic_error if a later round on the
  /// owning Network invalidated this view.
  MailRow row(NodeId v, const char* what) const {
    check_fresh(what);
    if (v >= n_) {
      throw std::out_of_range(std::string(what) +
                              ": destination out of range");
    }
    return arena_->row(v);
  }

  void check_fresh(const char* what) const {
    if (arena_ == nullptr || arena_->epoch() != epoch_) {
      throw std::logic_error(
          std::string(what) +
          ": view outlived its round (a later exchange rewrote the arena; "
          "copy the deliveries out to keep them)");
    }
  }

 private:
  const MailArena* arena_ = nullptr;
  std::uint32_t n_ = 0;
  std::uint64_t epoch_ = 0;
};

/// Read-only view of one round's inboxes (see the file comment for the
/// lifetime and ordering contract).
class RoundMail : public ArenaView {
 public:
  /// One destination's deliveries, handed out as Delivery values.
  class InboxSpan {
   public:
    using value_type = Delivery;

    class const_iterator {
     public:
      using value_type = Delivery;

      Delivery operator*() const { return InboxSpan(row_)[i_]; }
      const_iterator& operator++() {
        ++i_;
        return *this;
      }
      bool operator==(const const_iterator& o) const { return i_ == o.i_; }
      bool operator!=(const const_iterator& o) const { return i_ != o.i_; }

     private:
      friend class InboxSpan;
      const_iterator(const MailRow& row, std::size_t i) : row_(row), i_(i) {}

      MailRow row_;
      std::size_t i_;
    };

    InboxSpan() = default;

    const_iterator begin() const { return const_iterator(row_, 0); }
    const_iterator end() const { return const_iterator(row_, row_.size); }
    std::size_t size() const { return row_.size; }
    bool empty() const { return row_.size == 0; }
    Delivery operator[](std::size_t i) const {
      const MailSlot& s = row_.slot(i);
      return Delivery{s.sender, BitReader(row_.pool + s.at, s.bits)};
    }
    Delivery front() const { return (*this)[0]; }
    Delivery back() const { return (*this)[size() - 1]; }

   private:
    friend class RoundMail;
    explicit InboxSpan(const MailRow& row) : row_(row) {}

    MailRow row_;
  };

  /// Iterates the per-destination spans, so `for (const auto& inbox : mail)`
  /// visits every node's inbox in node order.
  class const_iterator {
   public:
    using value_type = InboxSpan;

    InboxSpan operator*() const { return (*mail_)[v_]; }
    const_iterator& operator++() {
      ++v_;
      return *this;
    }
    bool operator==(const const_iterator& o) const { return v_ == o.v_; }
    bool operator!=(const const_iterator& o) const { return v_ != o.v_; }

   private:
    friend class RoundMail;
    const_iterator(const RoundMail* mail, NodeId v) : mail_(mail), v_(v) {}

    const RoundMail* mail_;
    NodeId v_;
  };

  RoundMail() = default;

  /// Inbox of destination v; throws std::logic_error if this view was
  /// invalidated by a later round on the owning Network.
  InboxSpan operator[](NodeId v) const {
    return InboxSpan(row(v, "RoundMail"));
  }

  const_iterator begin() const {
    check_fresh("RoundMail");
    return const_iterator(this, 0);
  }
  const_iterator end() const {
    return const_iterator(this, static_cast<NodeId>(size()));
  }

 private:
  friend class Network;
  RoundMail(const MailArena* arena, std::uint32_t n) : ArenaView(arena, n) {}
};

/// Read-only view of one word round's inboxes
/// (Network::exchange_broadcast_word): the same arena rows as RoundMail,
/// every delivery one word. A dense lane reads neighbour u's word as pool
/// word u, where the round posted it; a slot reads the word it points at,
/// and a 0-bit word (bound 0) reads 0 without touching the pool, since a
/// corrupted copy of it has no pool word. Same lifetime contract as
/// RoundMail. Lane iteration yields WordSlots by value in ascending sender
/// order.
class WordMail : public ArenaView {
 public:
  /// One destination's delivered (sender, word) pairs.
  class Lane {
   public:
    using value_type = WordSlot;

    class const_iterator {
     public:
      using value_type = WordSlot;

      WordSlot operator*() const { return Lane(row_)[i_]; }
      const_iterator& operator++() {
        ++i_;
        return *this;
      }
      bool operator==(const const_iterator& o) const { return i_ == o.i_; }
      bool operator!=(const const_iterator& o) const { return i_ != o.i_; }

     private:
      friend class Lane;
      const_iterator(const MailRow& row, std::size_t i) : row_(row), i_(i) {}

      MailRow row_;
      std::size_t i_;
    };

    Lane() = default;

    std::size_t size() const { return row_.size; }
    bool empty() const { return row_.size == 0; }
    // The dense path is the fallthrough and the slot path selects its
    // word's address without a branch: the lane loop of a dense round
    // then stays one tight block (measured: E18's clique row ran at ~60%
    // of its rounds/s when each delivery took two branches).
    WordSlot operator[](std::size_t i) const {
      if (row_.nbrs != nullptr) [[likely]] {
        const NodeId u = row_.nbrs[i];
        return WordSlot{u, row_.pool[u]};
      }
      static constexpr std::uint64_t kNoWord = 0;
      const MailSlot& s = row_.slots[i];
      return WordSlot{s.sender, *(s.bits == 0 ? &kNoWord : row_.pool + s.at)};
    }
    WordSlot front() const { return (*this)[0]; }
    const_iterator begin() const { return const_iterator(row_, 0); }
    const_iterator end() const { return const_iterator(row_, row_.size); }

   private:
    friend class WordMail;
    explicit Lane(const MailRow& row) : row_(row) {}

    MailRow row_;
  };

  WordMail() = default;

  /// Lane of destination v; throws std::logic_error if this view was
  /// invalidated by a later round on the owning Network.
  Lane operator[](NodeId v) const { return Lane(row(v, "WordMail")); }

 private:
  friend class Network;
  WordMail(const MailArena* arena, std::uint32_t n) : ArenaView(arena, n) {}
};

}  // namespace ldc
