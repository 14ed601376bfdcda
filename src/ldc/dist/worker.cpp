// ShardWorker: the per-process delivery plane of the distributed engine.
//
// Every round runs the shard-round kernel (runtime/shard_round.hpp) over
// the worker's range — the same count and fill passes kSerial and
// kSharded run — into an arena of the worker's own, whose rows are
// indexed from the range start. The reply frame carries its non-empty
// rows, as (receiver, count) pairs with their sender ids, which the
// coordinator lands at the range's base in the master arena. What is
// left here is transport: decoding and checking each frame's input, and
// encoding the range's rows back to the coordinator in a reply buffer
// reused round after round.
#include "ldc/dist/worker.hpp"

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <optional>
#include <stdexcept>
#include <string>

#include <unistd.h>

namespace ldc::dist {

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

RoundContext ShardWorker::context(std::uint64_t round,
                                  const FaultCtx& ctx) const {
  RoundContext rc;
  rc.graph = &graph_;
  rc.round = round;
  if (ctx.faulty) {
    rc.faults = &ctx.plan;
    rc.down = ctx.down.data();
  }
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
        case FrameKind::kBcast:
          handle_bcast(*f);
          break;
        case FrameKind::kShutdown:
          return 0;
        default:
          throw FrameError(std::string("ldc_shard: unexpected ") +
                           frame_kind_name(f->header.kind) + " frame");
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ldc_shard[%u]: fatal: %s\n", shard_, e.what());
    return 1;
  }
}

void ShardWorker::handle_assign(const Frame& f) {
  PayloadReader r(f.payload, "assign");
  shard_ = r.u32();
  const std::uint32_t shards = r.u32();
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

  // The reply: the range's event counts, then its rows (wire.hpp
  // read_rows).
  reply_.clear();
  reply_.u64(sum.dropped);
  reply_.u64(sum.corrupted);
  const std::span<const NodeId> receivers = arena_.receivers();
  reply_.u32(static_cast<std::uint32_t>(receivers.size()));
  NodeId next = b;
  for (NodeId v : receivers) {
    const RowEntry& row = rows[v];
    write_row(reply_, next, v, row.count);
    for (std::uint32_t i = row.first; i < row.first + row.count; ++i) {
      reply_.u32(senders_[i]);
    }
  }
  send_frame(FrameKind::kInboxIds, f.header.round, 0, total, reply_.view());
}

}  // namespace ldc::dist
