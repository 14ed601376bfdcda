// Round-arena mailboxes: the zero-copy delivery plane of the simulator.
//
// Every exchange() delivers into a Network-owned MailArena — a CSR-style
// flat mailbox (per-destination slot offsets plus one flat array of
// (sender, Message) slots) whose buffers are reused round after round, so
// the steady state of a run performs no per-round heap allocation. The
// caller receives a RoundMail: a lightweight, read-only view over the
// arena. A RoundMail is invalidated by the next exchange() on the same
// Network (the arena is rewritten in place); stale access throws
// std::logic_error in every build type, so a call site that accidentally
// holds an inbox across rounds fails loudly instead of reading the next
// round's traffic. Callers that genuinely need delivered messages to
// outlive the round call materialize(), which is cheap: Message handles
// share refcounted payloads, so the copy is per-slot, not per-payload-word.
//
// Delivery order contract: within one inbox, slots are in strictly
// ascending sender order (each sender may send at most one message per
// destination per round). Every engine produces this order by construction
// — they all run the shard-round kernel (shard_round.hpp), which fills each
// destination by walking source ranges in ascending order, and ranges are
// contiguous and ascending — which is what lets the plane skip the
// per-inbox sort entirely (a debug-build assertion keeps the invariant
// honest).
//
// Under Engine::kSharded there is one MailArena per shard, indexed by
// *local* destination id, and the views carry a ShardMap that routes a
// global destination to its shard's arena. Freshness is still checked
// against the master (Network-owned) arena's epoch, which keeps advancing
// once per round regardless of engine.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "ldc/graph/graph.hpp"
#include "ldc/graph/partition.hpp"
#include "ldc/runtime/message.hpp"

namespace ldc {

class Network;
class RoundMail;
class WordMail;
class DistBackend;
class ShardRound;

/// One delivered message with its sender.
using MailSlot = std::pair<NodeId, Message>;

/// One delivered broadcast word with its sender (the fused-round plane).
struct WordSlot {
  NodeId sender;
  std::uint64_t value;
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

  /// The last round's inbox CSR, for code that ships a range's inboxes
  /// elsewhere (the ldc_shard worker): local destination i's deliveries
  /// are slots()[offsets()[i] .. offsets()[i + 1]).
  const std::vector<std::uint32_t>& offsets() const { return offsets_; }
  const std::vector<MailSlot>& slots() const { return slots_; }
  const std::vector<WordSlot>& word_slots() const { return word_slots_; }

 private:
  friend class Network;
  friend class RoundMail;
  friend class WordMail;
  friend class ShardRound;   ///< the round kernel fills the arena
  friend class DistBackend;  ///< attorney for src/ldc/dist/ (network.hpp)

  std::vector<std::uint32_t> offsets_;  ///< n+1 per-destination slot offsets
  std::vector<MailSlot> slots_;         ///< flat (sender, message) slots
  std::vector<std::uint64_t> words_;    ///< fused dense mode: word per sender
  std::vector<WordSlot> word_slots_;    ///< fused sparse mode: CSR slots
  std::vector<std::uint64_t> ghost_words_;  ///< sharded dense: halo snapshot
  std::uint64_t epoch_ = 0;
  std::vector<std::uint32_t> cursor_;  ///< exchange: per-destination count,
                                       ///< then write cursor
  std::vector<char> transmits_;        ///< broadcast: sender is live
  std::vector<NodeId> scratch_;        ///< duplicate-destination check
};

/// Internal routing tables for Engine::kSharded views (built by the
/// engine, owned by the Network's shard set; treat as opaque elsewhere).
/// One ShardView per shard: the shard's delivery arena (indexed by local
/// destination id) plus its local CSR so dense word lanes can be
/// synthesized entirely from shard-owned pages. Word/ghost storage is
/// always dereferenced through `arena` at access time — those vectors are
/// resized between rounds, so the view must not cache their data pointers.
struct ShardView {
  const MailArena* arena = nullptr;
  const std::uint64_t* xadj = nullptr;  ///< local row offsets (owned()+1)
  const std::uint32_t* adj = nullptr;   ///< local ids, global row order
  const NodeId* ghost_ids = nullptr;    ///< sorted global ids of the halo
  NodeId vbegin = 0;
  std::uint32_t owned = 0;
};

/// Routes a global vertex to its owning shard's view.
struct ShardMap {
  const ShardView* shards = nullptr;
  const Partition* part = nullptr;

  const ShardView& view_of(NodeId v) const {
    return shards[part->shard_of(v)];
  }
};

/// Read-only view of one round's inboxes (see the file comment for the
/// lifetime and ordering contract).
class RoundMail {
 public:
  /// A contiguous span of one destination's delivered messages.
  class InboxSpan {
   public:
    using value_type = MailSlot;

    InboxSpan() = default;

    const MailSlot* begin() const { return begin_; }
    const MailSlot* end() const { return end_; }
    std::size_t size() const {
      return static_cast<std::size_t>(end_ - begin_);
    }
    bool empty() const { return begin_ == end_; }
    const MailSlot& operator[](std::size_t i) const { return begin_[i]; }
    const MailSlot& front() const { return *begin_; }
    const MailSlot& back() const { return *(end_ - 1); }

   private:
    friend class RoundMail;
    InboxSpan(const MailSlot* b, const MailSlot* e) : begin_(b), end_(e) {}

    const MailSlot* begin_ = nullptr;
    const MailSlot* end_ = nullptr;
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
    if (smap_ != nullptr) {
      const ShardView& sv = smap_->view_of(v);
      const NodeId lv = v - sv.vbegin;
      const MailSlot* base = sv.arena->slots_.data();
      return InboxSpan(base + sv.arena->offsets_[lv],
                       base + sv.arena->offsets_[lv + 1]);
    }
    const MailSlot* base = arena_->slots_.data();
    return InboxSpan(base + arena_->offsets_[v],
                     base + arena_->offsets_[v + 1]);
  }

  const_iterator begin() const {
    check_fresh();
    return const_iterator(this, 0);
  }
  const_iterator end() const { return const_iterator(this, n_); }

  /// Owning copy of every inbox for callers that must hold deliveries
  /// across rounds. Cheap: Message copies share payloads.
  std::vector<std::vector<MailSlot>> materialize() const {
    check_fresh();
    std::vector<std::vector<MailSlot>> out(n_);
    for (NodeId v = 0; v < n_; ++v) {
      const InboxSpan s = (*this)[v];
      out[v].assign(s.begin(), s.end());
    }
    return out;
  }

 private:
  friend class Network;
  RoundMail(const MailArena* arena, std::uint32_t n)
      : arena_(arena), n_(n), epoch_(arena->epoch_) {}
  /// Sharded view: `arena` is the master arena (epoch source only);
  /// deliveries live in the per-shard arenas behind `smap`.
  RoundMail(const MailArena* arena, const ShardMap* smap, std::uint32_t n)
      : arena_(arena), smap_(smap), n_(n), epoch_(arena->epoch_) {}

  void check_fresh() const {
    if (arena_ == nullptr || arena_->epoch_ != epoch_) {
      throw std::logic_error(
          "RoundMail: view outlived its round (a later exchange() rewrote "
          "the arena; materialize() the inboxes to keep them)");
    }
  }

  const MailArena* arena_ = nullptr;
  const ShardMap* smap_ = nullptr;
  std::uint32_t n_ = 0;
  std::uint64_t epoch_ = 0;
};

/// Read-only view of one fused broadcast round's inboxes
/// (Network::exchange_broadcast_word): every delivery is one word, so no
/// per-edge Message slots exist. Two storage modes behind one interface:
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
      if (lids_ != nullptr) {
        // Sharded dense mode: translate the local id, reading the owned
        // word or the shard's halo snapshot — both shard-local pages.
        const std::uint32_t lid = lids_[i];
        if (lid < owned_) return WordSlot{vbegin_ + lid, dense_[lid]};
        return WordSlot{ghost_ids_[lid - owned_],
                        ghost_words_[lid - owned_]};
      }
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
    Lane(const std::uint32_t* lids, const std::uint64_t* owned_words,
         const std::uint64_t* ghost_words, const NodeId* ghost_ids,
         NodeId vbegin, std::uint32_t owned, std::size_t n)
        : dense_(owned_words), lids_(lids), ghost_words_(ghost_words),
          ghost_ids_(ghost_ids), vbegin_(vbegin), owned_(owned), n_(n) {}

    const WordSlot* slots_ = nullptr;       ///< sparse mode
    const NodeId* nbrs_ = nullptr;          ///< dense mode: adjacency
    const std::uint64_t* dense_ = nullptr;  ///< dense: word per sender/lid
    const std::uint32_t* lids_ = nullptr;   ///< sharded dense: local row
    const std::uint64_t* ghost_words_ = nullptr;  ///< sharded dense: halo
    const NodeId* ghost_ids_ = nullptr;     ///< sharded dense: halo ids
    NodeId vbegin_ = 0;                     ///< sharded dense: range base
    std::uint32_t owned_ = 0;               ///< sharded dense: range width
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
    if (smap_ != nullptr) {
      const ShardView& sv = smap_->view_of(v);
      const NodeId lv = v - sv.vbegin;
      if (dense_) {
        const std::uint64_t i0 = sv.xadj[lv];
        return Lane(sv.adj + i0, sv.arena->words_.data(),
                    sv.arena->ghost_words_.data(), sv.ghost_ids,
                    sv.vbegin, sv.owned,
                    static_cast<std::size_t>(sv.xadj[lv + 1] - i0));
      }
      return Lane(sv.arena->word_slots_.data() + sv.arena->offsets_[lv],
                  sv.arena->offsets_[lv + 1] - sv.arena->offsets_[lv]);
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
  /// Sharded view: `arena` is the master arena (epoch source only).
  WordMail(const MailArena* arena, const ShardMap* smap, bool dense,
           std::uint32_t n)
      : arena_(arena), smap_(smap), dense_(dense), n_(n),
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
  const ShardMap* smap_ = nullptr;
  bool dense_ = false;
  std::uint32_t n_ = 0;
  std::uint64_t epoch_ = 0;
};

}  // namespace ldc
