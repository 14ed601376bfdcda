// Round-arena mailboxes: the delivery plane of the simulator.
//
// Every exchange() delivers into a Network-owned MailArena: a CSR-style
// flat mailbox (per-destination slot offsets plus one flat array of
// (sender, bits, pool offset) slots) over one word pool that holds the
// round's payload bits. Every buffer is reused round after round, so the
// steady state of a run performs no per-round heap allocation. The caller
// receives a RoundMail: a lightweight, read-only view over the arena whose
// inboxes hand out (sender, BitReader) deliveries reading the pool. A
// RoundMail is invalidated by the next exchange() on the same Network (the
// arena is rewritten in place); stale access throws std::logic_error in
// every build type, so a call site that accidentally holds an inbox across
// rounds fails loudly instead of reading the next round's traffic. Callers
// that need delivered messages to outlive the round call materialize(),
// which copies their bits out of the pool.
//
// The word pool. A payload lives exactly one round, so the pool is a bump
// allocator that every round empties (MailArena::open) — the one-round
// case of liveness-based buffer reuse. A round lays it out as
//
//   [posted payloads][range 0's segment][range 1's segment]...
//
// A broadcast posts each live sender's words once (MailArena::post), and
// every delivery of that sender points at that one entry, so a fill writes
// ids and offsets and copies no payload. A corrupted delivery copies its
// sender's entry into its destination range's segment and flips the bit
// there: the sender's entry and the sibling deliveries never change. An
// explicit exchange posts nothing; each range copies every message it
// receives into its own segment. Ranges own disjoint segments, sized by
// the round's count pass, so concurrent fills never share a bump pointer.
//
// Every engine lands its rounds in this one arena, in this one layout.
// MailArena::lay_out() sizes a round once for K contiguous vertex ranges
// laid back to back and hands each range its base (first slot) and its
// pool segment; kSerial fills one range, kSharded K ranges on K threads,
// and the distributed coordinator splices the ranges its worker processes
// computed. Only an `ldc_shard` worker keeps an arena of its own, for its
// range alone.
//
// Delivery order contract: within one inbox, slots are in strictly
// ascending sender order (each sender may send at most one message per
// destination per round). Every engine produces this order by construction
// — they all run the shard-round kernel (shard_round.hpp), which fills each
// destination by walking source ranges in ascending order, and ranges are
// contiguous and ascending — which is what lets the plane skip the
// per-inbox sort entirely (a debug-build assertion keeps the invariant
// honest).
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

#include "ldc/graph/graph.hpp"
#include "ldc/support/bitio.hpp"

namespace ldc {

class Network;
class RoundMail;
class WordMail;

/// A payload with an address, owning its bits: an outbox entry
/// (destination, payload) or a materialized delivery (sender, payload).
using Envelope = std::pair<NodeId, BitWriter>;

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

/// One delivered broadcast word with its sender (the fused-round plane).
struct WordSlot {
  NodeId sender;
  std::uint64_t value;
};

/// Write access to one vertex range's deliveries in an arena sized by
/// MailArena::lay_out(): destination v's row offset goes to
/// rows[v - origin], the range's slots fill slots[base...] in row order,
/// and the payload words it copies fill pool[segment...]. Valid until the
/// arena's next lay_out().
template <typename Slot>
struct ArenaRange {
  std::uint32_t* rows;
  Slot* slots;
  NodeId origin;
  std::uint32_t base;
  std::uint64_t* pool = nullptr;
  std::uint64_t segment = 0;
};

/// A round laid out by MailArena::lay_out(): range k writes through
/// (*this)[k]. Valid until the arena's next lay_out().
template <typename Slot>
struct ArenaLayout {
  std::uint32_t* rows;
  Slot* slots;
  NodeId origin;
  const std::uint32_t* bases;
  std::uint64_t* pool;
  const std::uint64_t* segments;

  ArenaRange<Slot> operator[](std::size_t k) const {
    return {rows, slots, origin, bases[k], pool, segments[k]};
  }
};

/// Network-owned storage for one round's deliveries, reused across rounds.
class MailArena {
 public:
  MailArena() = default;
  MailArena(const MailArena&) = delete;
  MailArena& operator=(const MailArena&) = delete;

  /// Monotone round stamp; every exchange() bumps it, invalidating the
  /// RoundMail views handed out for earlier rounds.
  std::uint64_t epoch() const { return epoch_; }

  /// Opens the next round: invalidates the views handed out so far and
  /// empties the word pool, keeping every buffer's capacity.
  void open() {
    ++epoch_;
    pool_.clear();
  }

  /// The last round's inbox CSR, for code that ships a range's inboxes
  /// elsewhere (the ldc_shard worker): destination origin + i's
  /// deliveries are slots()[offsets()[i] .. offsets()[i + 1]), their
  /// payloads in pool().
  const std::vector<std::uint32_t>& offsets() const { return offsets_; }
  const std::vector<MailSlot>& slots() const { return slots_; }

  /// The round's word pool. Serial code may append to it — the
  /// coordinator's splice decodes payloads straight into it — because
  /// slots address it by offset, not by pointer.
  std::vector<std::uint64_t>& pool() { return pool_; }
  const std::vector<std::uint64_t>& pool() const { return pool_; }

  /// Copies sender u's payload to the end of the pool, once, before a
  /// broadcast round's fills: every delivery of u points at this entry.
  /// Throws std::length_error for a payload of 2^32 bits or more.
  void post(NodeId u, const BitWriter& w) {
    if (w.bit_count() > UINT32_MAX) {
      throw std::length_error("MailArena: payload of 2^32 bits or more");
    }
    if (posted_.size() <= u) posted_.resize(std::size_t{u} + 1);
    posted_[u] = MailSlot{u, static_cast<std::uint32_t>(w.bit_count()),
                          pool_.size()};
    pool_.insert(pool_.end(), w.words().begin(), w.words().end());
  }

  /// The posted entries, by sender: valid for this round's posted
  /// senders only.
  const MailSlot* posted() const { return posted_.data(); }

  /// The layout step of every slot round and, with lay_out_words(), the
  /// only write access to the slots: sizes the row offsets for `rows`
  /// destinations starting at vertex `origin`, the Slot storage (MailSlot
  /// or WordSlot) for counts[k] slots per vertex range k, and a pool
  /// segment of segments[k] words per range (none when `segments` is
  /// empty) after the posted payloads. Ranges lie back to back in
  /// ascending order, so range k's base is the sum of the counts before
  /// it. Everything is sized here, once, so K writers can then fill their
  /// ranges concurrently, each writing its own rows and segment.
  /// Allocates nothing in a steady state.
  template <typename Slot>
  ArenaLayout<Slot> lay_out(std::size_t rows,
                            std::span<const std::uint32_t> counts,
                            NodeId origin = 0,
                            std::span<const std::uint64_t> segments = {}) {
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
    if (offsets_.size() < rows + 1) offsets_.resize(rows + 1);
    offsets_[rows] = total;
    std::vector<Slot>& slots = storage<Slot>();
    slots.resize(total);
    pool_.resize(words);
    return {offsets_.data(), slots.data(), origin,
            bases_.data(),   pool_.data(), segments_.data()};
  }

  /// lay_out() for a single range of `rows` destinations.
  template <typename Slot>
  ArenaRange<Slot> lay_out(std::size_t rows, std::uint32_t count,
                           NodeId origin = 0, std::uint64_t segment = 0) {
    return lay_out<Slot>(rows, std::span(&count, 1), origin,
                         std::span(&segment, 1))[0];
  }

  /// The dense fused-word layout: room for one word per sender of an
  /// n-vertex round; writers copy disjoint ranges of it.
  std::uint64_t* lay_out_words(std::size_t n) {
    if (words_.size() < n) words_.resize(n);
    return words_.data();
  }

 private:
  friend class Network;
  friend class RoundMail;
  friend class WordMail;

  template <typename Slot>
  std::vector<Slot>& storage() {
    if constexpr (std::is_same_v<Slot, MailSlot>) {
      return slots_;
    } else {
      static_assert(std::is_same_v<Slot, WordSlot>);
      return word_slots_;
    }
  }

  std::vector<std::uint32_t> offsets_;  ///< per-destination slot offsets
  std::vector<MailSlot> slots_;         ///< flat delivery slots
  std::vector<std::uint64_t> pool_;     ///< the round's payload words
  std::vector<MailSlot> posted_;        ///< a broadcast's entries, by sender
  std::vector<std::uint64_t> words_;    ///< fused dense mode: word per sender
  std::vector<WordSlot> word_slots_;    ///< fused sparse mode: CSR slots
  std::vector<std::uint32_t> bases_;    ///< the last layout's range bases
  std::vector<std::uint64_t> segments_;  ///< ... and pool segments
  std::uint64_t epoch_ = 0;
};

/// Read-only view of one round's inboxes (see the file comment for the
/// lifetime and ordering contract).
class RoundMail {
 public:
  /// One destination's deliveries: a contiguous run of slots over the
  /// round's pool, handed out as Delivery values.
  class InboxSpan {
   public:
    using value_type = Delivery;

    class const_iterator {
     public:
      using value_type = Delivery;

      Delivery operator*() const { return deliver(slot_, pool_); }
      const_iterator& operator++() {
        ++slot_;
        return *this;
      }
      bool operator==(const const_iterator& o) const {
        return slot_ == o.slot_;
      }
      bool operator!=(const const_iterator& o) const {
        return slot_ != o.slot_;
      }

     private:
      friend class InboxSpan;
      const_iterator(const MailSlot* slot, const std::uint64_t* pool)
          : slot_(slot), pool_(pool) {}

      const MailSlot* slot_;
      const std::uint64_t* pool_;
    };

    InboxSpan() = default;

    const_iterator begin() const { return const_iterator(begin_, pool_); }
    const_iterator end() const { return const_iterator(end_, pool_); }
    std::size_t size() const {
      return static_cast<std::size_t>(end_ - begin_);
    }
    bool empty() const { return begin_ == end_; }
    Delivery operator[](std::size_t i) const {
      return deliver(begin_ + i, pool_);
    }
    Delivery front() const { return (*this)[0]; }
    Delivery back() const { return (*this)[size() - 1]; }

   private:
    friend class RoundMail;
    InboxSpan(const MailSlot* b, const MailSlot* e, const std::uint64_t* pool)
        : begin_(b), end_(e), pool_(pool) {}

    static Delivery deliver(const MailSlot* s, const std::uint64_t* pool) {
      return Delivery{s->sender, BitReader(pool + s->at, s->bits)};
    }

    const MailSlot* begin_ = nullptr;
    const MailSlot* end_ = nullptr;
    const std::uint64_t* pool_ = nullptr;
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

  /// Number of destinations (the graph's n).
  std::size_t size() const { return n_; }
  bool empty() const { return n_ == 0; }

  /// Inbox of destination v; throws std::logic_error if this view was
  /// invalidated by a later exchange() on the owning Network.
  InboxSpan operator[](NodeId v) const {
    check_fresh();
    if (v >= n_) {
      throw std::out_of_range("RoundMail: destination out of range");
    }
    const MailSlot* base = arena_->slots_.data();
    return InboxSpan(base + arena_->offsets_[v],
                     base + arena_->offsets_[v + 1], arena_->pool_.data());
  }

  const_iterator begin() const {
    check_fresh();
    return const_iterator(this, 0);
  }
  const_iterator end() const { return const_iterator(this, n_); }

  /// Owning copy of every inbox, (sender, payload) per delivery, for
  /// callers that must hold deliveries across rounds: copies their bits
  /// out of the pool.
  std::vector<std::vector<Envelope>> materialize() const {
    check_fresh();
    std::vector<std::vector<Envelope>> out(n_);
    for (NodeId v = 0; v < n_; ++v) {
      for (const auto [u, r] : (*this)[v]) {
        BitWriter w;
        w.append(r);
        out[v].emplace_back(u, std::move(w));
      }
    }
    return out;
  }

 private:
  friend class Network;
  RoundMail(const MailArena* arena, std::uint32_t n)
      : arena_(arena), n_(n), epoch_(arena->epoch_) {}

  void check_fresh() const {
    if (arena_ == nullptr || arena_->epoch_ != epoch_) {
      throw std::logic_error(
          "RoundMail: view outlived its round (a later exchange() rewrote "
          "the arena; materialize() the inboxes to keep them)");
    }
  }

  const MailArena* arena_ = nullptr;
  std::uint32_t n_ = 0;
  std::uint64_t epoch_ = 0;
};

/// Read-only view of one fused broadcast round's inboxes
/// (Network::exchange_broadcast_word): every delivery is one word, so no
/// per-edge pool slots exist. Two storage modes behind one interface:
///
///  * dense (the all-live fast path): the arena holds just one word per
///    *sender*; destination v's lane is synthesized on the fly from the
///    graph's sorted adjacency — O(n) storage and fill for an O(m) logical
///    round, which is where the fused path's speed comes from.
///  * sparse (mask and/or faults attached): a CSR of (sender, word) slots,
///    exactly like RoundMail but with a word payload.
///
/// Same lifetime contract as RoundMail: the next exchange on the owning
/// Network invalidates the view, and stale access throws std::logic_error.
/// Lane iteration yields WordSlots by value in ascending sender order.
class WordMail {
 public:
  /// One destination's delivered (sender, word) pairs.
  class Lane {
   public:
    using value_type = WordSlot;

    class const_iterator {
     public:
      using value_type = WordSlot;

      WordSlot operator*() const { return (*lane_)[i_]; }
      const_iterator& operator++() {
        ++i_;
        return *this;
      }
      bool operator==(const const_iterator& o) const { return i_ == o.i_; }
      bool operator!=(const const_iterator& o) const { return i_ != o.i_; }

     private:
      friend class Lane;
      const_iterator(const Lane* lane, std::size_t i) : lane_(lane), i_(i) {}

      const Lane* lane_;
      std::size_t i_;
    };

    Lane() = default;

    std::size_t size() const { return n_; }
    bool empty() const { return n_ == 0; }
    WordSlot operator[](std::size_t i) const {
      if (slots_ != nullptr) return slots_[i];
      const NodeId u = nbrs_[i];
      return WordSlot{u, dense_[u]};
    }
    WordSlot front() const { return (*this)[0]; }
    const_iterator begin() const { return const_iterator(this, 0); }
    const_iterator end() const { return const_iterator(this, n_); }

   private:
    friend class WordMail;
    Lane(const WordSlot* slots, std::size_t n) : slots_(slots), n_(n) {}
    Lane(const NodeId* nbrs, const std::uint64_t* dense, std::size_t n)
        : nbrs_(nbrs), dense_(dense), n_(n) {}

    const WordSlot* slots_ = nullptr;       ///< sparse mode
    const NodeId* nbrs_ = nullptr;          ///< dense mode: adjacency
    const std::uint64_t* dense_ = nullptr;  ///< dense mode: word per sender
    std::size_t n_ = 0;
  };

  WordMail() = default;

  /// Number of destinations (the graph's n).
  std::size_t size() const { return n_; }
  bool empty() const { return n_ == 0; }

  /// Lane of destination v; throws std::logic_error if this view was
  /// invalidated by a later exchange on the owning Network.
  Lane operator[](NodeId v) const {
    check_fresh();
    if (v >= n_) {
      throw std::out_of_range("WordMail: destination out of range");
    }
    if (dense_) {
      const auto nb = graph_->neighbors(v);
      return Lane(nb.data(), arena_->words_.data(), nb.size());
    }
    return Lane(arena_->word_slots_.data() + arena_->offsets_[v],
                arena_->offsets_[v + 1] - arena_->offsets_[v]);
  }

 private:
  friend class Network;
  WordMail(const MailArena* arena, const Graph* graph, bool dense,
           std::uint32_t n)
      : arena_(arena), graph_(graph), dense_(dense), n_(n),
        epoch_(arena->epoch_) {}

  void check_fresh() const {
    if (arena_ == nullptr || arena_->epoch_ != epoch_) {
      throw std::logic_error(
          "WordMail: view outlived its round (a later exchange rewrote the "
          "arena; copy the words out to keep them)");
    }
  }

  const MailArena* arena_ = nullptr;
  const Graph* graph_ = nullptr;
  bool dense_ = false;
  std::uint32_t n_ = 0;
  std::uint64_t epoch_ = 0;
};

}  // namespace ldc
