// The `ldc_shard` worker process: one shard of the distributed engine.
//
// A worker owns one contiguous vertex range of the coordinator's
// partition and is the delivery plane for it: it runs the shard-round
// kernel (runtime/shard_round.hpp) over its range — the same count and
// fill passes every engine runs, push or pull by the same rule — and
// replies with its rows of sender ids. Between rounds the worker keeps
// only reusable buffers: everything a round needs (fault context, sender
// list) arrives in the round's kBcast frame, and every fault decision it
// resolves is a pure function of (plan seed, round, edge) — which is the
// whole determinism argument (DESIGN.md §12). Every error the worker
// meets (a malformed frame, a lost coordinator) ends it: the algorithm
// errors a round can raise all throw in the coordinator's Network, before
// any frame is sent.
//
// I/O is plain blocking reads/writes: the coordinator end is fully
// non-blocking and always drains, so a worker can never wedge the
// protocol by blocking on a write.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "ldc/dist/wire.hpp"
#include "ldc/graph/partition.hpp"
#include "ldc/runtime/mail.hpp"
#include "ldc/runtime/shard_round.hpp"
#include "ldc/storage/mapped_graph.hpp"

namespace ldc::dist {

class ShardWorker {
 public:
  /// Maps the corpus, checking its header only, and takes ownership of
  /// the connected socket fd. Throws CorpusError on a bad header.
  ShardWorker(const std::string& corpus_path, int fd);
  ~ShardWorker();

  ShardWorker(const ShardWorker&) = delete;
  ShardWorker& operator=(const ShardWorker&) = delete;

  /// Sends HELLO, verifies the corpus content (MappedGraph::verify), then
  /// serves coordinator frames until kShutdown or a clean EOF (returns 0)
  /// or any error, a failed verify included (logs to stderr, returns 1).
  int run();

 private:
  void send_frame(FrameKind kind, std::uint64_t round, std::uint32_t dst,
                  std::uint32_t count, std::string_view payload);

  void handle_assign(const Frame& f);
  void handle_bcast(const Frame& f);

  /// The round's kernel context over the decoded fault context.
  RoundContext context(std::uint64_t round, const FaultCtx& ctx) const;

  std::shared_ptr<const storage::MappedGraph> mg_;
  Graph graph_;  ///< zero-copy view pinning the mapping
  int fd_;
  FrameReader reader_;  ///< persistent: read(2) coalesces frames

  // Assigned at kAssign (re-assignable: a coordinator re-binds per run).
  bool assigned_ = false;
  std::uint32_t shard_ = 0;
  Partition part_;
  ShardTopology topo_;

  MailArena arena_;               ///< the range's inbox rows, reused
  RangeScratch scratch_;          ///< the kernel's row marks
  std::vector<NodeId> live_ids_;  ///< a broadcast's senders, ascending
  LiveFlags flags_;               ///< raised when the range pulls
  std::vector<NodeId> senders_;   ///< a kInboxIds reply's slots
  PayloadWriter reply_;           ///< the round's reply payload
};

}  // namespace ldc::dist
