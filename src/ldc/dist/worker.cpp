// ShardWorker: the per-process delivery plane of the distributed engine.
//
// Every round runs the shard-round kernel (runtime/shard_round.hpp) over
// the worker's range — the same bodies kSerial and kSharded run — into
// an arena of the worker's own. MailArena::lay_out sizes it for the range
// alone (rows indexed from the range start, slots from base 0), and the
// reply frame carries its non-empty rows, as (receiver, count) pairs with
// their slots, which the coordinator lands at the range's base in the
// master arena. What is left here is transport: decoding and checking
// each frame's input, encoding cross-shard survivors into kBatch frames,
// the batch barrier, and encoding the range's rows back to the
// coordinator in a reply buffer reused round after round.
#include "ldc/dist/worker.hpp"

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <optional>
#include <stdexcept>
#include <string>

#include <unistd.h>

namespace ldc::dist {
namespace {

/// Coordinator told us to discard the in-flight round (another shard
/// errored); unwinds the round handler back to the serve loop.
struct AbortRound {
  std::uint64_t round;
};

/// kShutdown can arrive inside a round wait; unwinds run() to exit 0.
struct ShutdownRequested {};

}  // namespace

ShardWorker::ShardWorker(const std::string& corpus_path, int fd)
    : mg_(storage::MappedGraph::open(corpus_path)),
      graph_(mg_->graph()),
      fd_(fd) {}

ShardWorker::~ShardWorker() {
  if (fd_ >= 0) ::close(fd_);
}

void ShardWorker::send_frame(FrameKind kind, std::uint64_t round,
                             std::uint32_t dst, std::uint32_t count,
                             std::string_view payload) {
  write_all_fd(fd_, encode_frame(kind, round, shard_, dst, count, payload),
               "ldc_shard");
}

void ShardWorker::send_error(std::uint64_t round, std::uint32_t code,
                             const char* what) {
  abandoned_ = round;
  PayloadWriter w;
  w.u32(code);
  const std::string_view text(what);
  w.u32(static_cast<std::uint32_t>(text.size()));
  w.raw(text.data(), text.size());
  send_frame(FrameKind::kError, round, 0, code, w.take());
}

RoundContext ShardWorker::context(std::uint64_t round,
                                  const FaultCtx& ctx) const {
  RoundContext rc;
  rc.graph = &graph_;
  rc.round = round;
  if (ctx.faulty) {
    rc.faults = &ctx.plan;
    rc.down = ctx.down.data();
  }
  rc.budget_bits = budget_bits_;
  rc.strict = strict_;
  return rc;
}

int ShardWorker::run() {
  // HELLO: the digest handshake. The coordinator refuses any worker whose
  // corpus content digest differs from its own (AttachError), so a shard
  // can never silently run against a different graph.
  {
    PayloadWriter w;
    w.u64(mg_->meta().content_digest);
    w.u32(graph_.n());
    w.u64(mg_->meta().adj_entries);
    send_frame(FrameKind::kHello, 0, 0, 0, w.take());
  }
  try {
    // The content check runs while the coordinator finishes its attach,
    // and before any frame is read: a corpus whose sections do not match
    // the digest just announced ends the worker, whose EOF the
    // coordinator reports as an AttachError.
    mg_->verify();
    for (;;) {
      std::optional<Frame> f = read_frame_fd(fd_, reader_);
      if (!f) return 0;  // coordinator went away cleanly
      switch (f->header.kind) {
        case FrameKind::kAssign:
          handle_assign(*f);
          break;
        case FrameKind::kOutbox:
          handle_outbox(*f);
          break;
        case FrameKind::kBcast:
          handle_bcast(*f);
          break;
        case FrameKind::kAbort:
          break;  // stale: the round it names was already abandoned here
        case FrameKind::kBatch:
          // Relayed before the coordinator saw this worker's kError for
          // the round: as stale as the kAbort that follows it.
          if (abandoned_ && *abandoned_ == f->header.round) break;
          throw FrameError("ldc_shard: unexpected batch frame");
        case FrameKind::kHeartbeat:
          send_frame(FrameKind::kHeartbeat, f->header.round, 0, 0, {});
          break;
        case FrameKind::kShutdown:
          return 0;
        default:
          throw FrameError(std::string("ldc_shard: unexpected ") +
                           frame_kind_name(f->header.kind) + " frame");
      }
    }
  } catch (const ShutdownRequested&) {
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ldc_shard[%u]: fatal: %s\n", shard_, e.what());
    return 1;
  }
}

void ShardWorker::handle_assign(const Frame& f) {
  PayloadReader r(f.payload, "assign");
  shard_ = r.u32();
  const std::uint32_t shards = r.u32();
  budget_bits_ = static_cast<std::size_t>(r.u64());
  strict_ = r.u8() != 0;
  if (shards == 0 || shard_ >= shards || shards > kMaxDistWorkers) {
    throw FrameError("assign: bad shard index " + std::to_string(shard_) +
                     " of " + std::to_string(shards));
  }
  std::vector<NodeId> starts(shards + 1, 0);
  for (NodeId& s : starts) s = r.u32();
  r.expect_end();
  const Graph& g = graph_;
  try {
    part_ = Partition::from_starts(std::move(starts));
  } catch (const std::invalid_argument& e) {
    throw FrameError(std::string("assign: ") + e.what());
  }
  if (part_.n() != g.n()) {
    throw FrameError("assign: partition does not cover [0, n)");
  }
  topo_ = ShardTopology{};
  topo_.build(g, part_.begin(shard_), part_.end(shard_));
  scratch_ = RangeScratch{};  // its row marks are the old range's
  assigned_ = true;
  PayloadWriter w;
  w.u64(topo_.ghost_edges);
  w.u64(topo_.ghosts.size());
  send_frame(FrameKind::kAssignAck, f.header.round, 0, shard_, w.take());
}

void ShardWorker::handle_outbox(const Frame& f) {
  if (!assigned_) throw FrameError("outbox: worker not assigned");
  const Graph& g = graph_;
  const NodeId b = topo_.vbegin;
  const NodeId e = topo_.vend;
  const NodeId owned = topo_.owned();
  const std::uint64_t round = f.header.round;
  const std::size_t K = part_.shards();

  PayloadReader r(f.payload, "outbox");
  const FaultCtx ctx = decode_fault_ctx(r, g.n());
  if (f.header.count != owned) {
    throw FrameError("outbox: sender count " +
                     std::to_string(f.header.count) + " != owned " +
                     std::to_string(owned));
  }
  // Decoded into writers kept across rounds: allocation-free once they
  // have held the range's widest outboxes.
  outboxes_.resize(owned);
  for (NodeId lu = 0; lu < owned; ++lu) {
    std::vector<Envelope>& outbox = outboxes_[lu];
    const std::uint32_t len = r.u32();
    // Every entry carries at least its destination and bit count.
    if (len > r.remaining() / 8) {
      throw FrameError("outbox: " + std::to_string(len) +
                       " messages overrun the frame");
    }
    outbox.resize(len);
    for (auto& [dest, msg] : outbox) {
      dest = r.u32();
      decoded_.clear();
      const std::uint32_t bits = decode_message(r, decoded_);
      msg.clear();
      msg.append(BitReader(decoded_.data(), bits));
    }
  }
  r.expect_end();
  const RoundContext rc = context(round, ctx);
  auto outbox_of = [&](NodeId u) -> const std::vector<Envelope>& {
    return outboxes_[u - b];
  };

  // Phase A, with each cross-shard survivor serialized straight into its
  // (src, dst) batch. Algorithm errors go back as typed kError frames.
  ShardStaging sum;
  std::vector<PayloadWriter> batches(K);
  std::vector<std::uint32_t> batch_counts(K, 0);
  std::uint32_t slots = 0;
  try {
    slots = ShardRound::stage(
        rc, b, e, outbox_of, scratch_, sum,
        [&](NodeId u, NodeId dest, const BitWriter& msg) {
          const std::size_t j = part_.shard_of(dest);
          batches[j].u32(u);
          batches[j].u32(dest);
          encode_message(batches[j], BitReader(msg));
          ++batch_counts[j];
        });
  } catch (const CongestViolation& ex) {
    send_error(round, kErrCongest, ex.what());
    return;
  } catch (const std::invalid_argument& ex) {
    send_error(round, kErrInvalidArgument, ex.what());
    return;
  }

  // Ship all K batches in ascending destination order (the diagonal one is
  // always empty — local deliveries never leave the shard — but still
  // travels, so the coordinator's barrier is exactly K² frames per round).
  for (std::size_t j = 0; j < K; ++j) {
    send_frame(FrameKind::kBatch, round, static_cast<std::uint32_t>(j),
               batch_counts[j], batches[j].take());
  }

  // Barrier: K acks for our batches plus the K-1 batches destined here
  // (the coordinator relays them; our own diagonal is not echoed back).
  // Each source's payloads decode into its own word buffer, which phase B
  // reads in place.
  std::vector<std::vector<BatchEntry>> incoming(K);
  batch_words_.resize(K);
  std::uint64_t pool_words = scratch_.pool_words;
  std::vector<char> have(K, 0);
  have[shard_] = 1;
  std::size_t acks = 0;
  std::size_t got = 1;
  try {
    while (acks < K || got < K) {
      std::optional<Frame> nf = read_frame_fd(fd_, reader_);
      if (!nf) {
        throw WorkerError("ldc_shard: coordinator closed mid-round");
      }
      switch (nf->header.kind) {
        case FrameKind::kBatchAck: {
          if (nf->header.round != round || nf->header.src_shard != shard_) {
            throw FrameError("batch_ack: wrong round or source");
          }
          ++acks;
          break;
        }
        case FrameKind::kBatch: {
          const std::uint32_t src = nf->header.src_shard;
          if (nf->header.round != round || nf->header.dst_shard != shard_ ||
              src >= K || have[src] != 0) {
            throw FrameError("batch: wrong round, destination, or source");
          }
          PayloadReader br(nf->payload, "batch");
          std::vector<BatchEntry>& in = incoming[src];
          std::vector<std::uint64_t>& words = batch_words_[src];
          words.clear();
          in.reserve(nf->header.count);
          slots += nf->header.count;
          for (std::uint32_t i = 0; i < nf->header.count; ++i) {
            BatchEntry be;
            be.sender = br.u32();
            be.dest = br.u32();
            be.bits = decode_message(br, words);
            if (be.dest < b || be.dest >= e) {
              throw FrameError("batch: entry for non-owned destination");
            }
            in.push_back(be);
          }
          // The buffer is complete: point each entry at its words.
          std::size_t at = 0;
          for (BatchEntry& be : in) {
            be.words = words.data() + at;
            at += payload_words(be.bits);
          }
          pool_words += words.size();
          br.expect_end();
          have[src] = 1;
          ++got;
          break;
        }
        case FrameKind::kAbort:
          throw AbortRound{nf->header.round};
        case FrameKind::kHeartbeat:
          send_frame(FrameKind::kHeartbeat, nf->header.round, 0, 0, {});
          break;
        case FrameKind::kShutdown:
          throw ShutdownRequested{};
        default:
          throw FrameError(std::string("ldc_shard: unexpected ") +
                           frame_kind_name(nf->header.kind) +
                           " frame inside a round");
      }
    }
  } catch (const AbortRound&) {
    send_frame(FrameKind::kAbort, round, 0, 0, {});  // abort ack
    return;
  }

  // Phase B over the range, then its rows back to the coordinator.
  arena_.open();
  ShardRound::fill(
      rc, b, e, outbox_of, K, shard_,
      [&](std::size_t j) -> const std::vector<BatchEntry>& {
        return incoming[j];
      },
      scratch_, arena_.lay_out(owned, slots, b, pool_words));
  reply_.clear();
  encode_summary(reply_, sum);
  write_rows(arena_.rows(owned, b), [&](NodeId v) {
    const MailRow row = arena_.row(v);
    for (std::size_t i = 0; i < row.size; ++i) {
      const MailSlot& slot = row.slots[i];
      reply_.u32(slot.sender);
      encode_message(reply_, BitReader(row.pool + slot.at, slot.bits));
    }
  });
  send_frame(FrameKind::kInbox, round, 0, slots, reply_.view());
}

template <typename Slots>
void ShardWorker::write_rows(const RowTable& rows, const Slots& slots_of) {
  const std::span<const NodeId> receivers = arena_.receivers();
  reply_.u32(static_cast<std::uint32_t>(receivers.size()));
  NodeId next = topo_.vbegin;
  for (NodeId v : receivers) {
    write_row(reply_, next, v, rows[v].count);
    slots_of(v);
  }
}

void ShardWorker::handle_bcast(const Frame& f) {
  if (!assigned_) throw FrameError("bcast: worker not assigned");
  const Graph& g = graph_;
  const NodeId b = topo_.vbegin;
  const NodeId e = topo_.vend;
  const NodeId owned = topo_.owned();

  // The fault context, then the round's header.count senders.
  PayloadReader r(f.payload, "bcast");
  const FaultCtx ctx = decode_fault_ctx(r, g.n());
  decode_senders(r, f.header.count, g.n(), live_ids_);
  r.expect_end();
  std::uint64_t degree_sum = 0;
  for (NodeId u : live_ids_) degree_sum += g.degree(u);
  LiveSenders live{live_ids_, degree_sum};
  const auto raised =
      flags_.raise(g.n(), live, !ShardRound::pushes(g, b, e, live));

  // The count and fill passes over sender ids only: the coordinator holds
  // the posted payloads (a word round's one word each) and rebuilds the
  // slots, so a broadcast and a word round with the same senders and
  // faults move the same frames.
  const RoundContext rc = context(f.header.round, ctx);
  ShardStaging sum;
  const std::uint32_t total = ShardRound::count(rc, b, e, live, scratch_, sum);
  arena_.open();
  const RowTable rows = arena_.rows(owned, b);
  senders_.resize(total);
  ShardRound::fill_rows(
      rc, b, e, live, scratch_,
      ArenaRange<NodeId>{rows, senders_.data(), 0, &arena_.receiver_list()},
      [](NodeId& slot, NodeId u, NodeId, bool) { slot = u; });

  reply_.clear();
  reply_.u64(sum.dropped);
  reply_.u64(sum.corrupted);
  write_rows(rows, [&](NodeId v) {
    const RowEntry& row = rows[v];
    for (std::uint32_t i = row.first; i < row.first + row.count; ++i) {
      reply_.u32(senders_[i]);
    }
  });
  send_frame(FrameKind::kInboxIds, f.header.round, 0, total, reply_.view());
}

}  // namespace ldc::dist
