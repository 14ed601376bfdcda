// The distributed engine's coordinator: owns the worker processes, the
// sockets, and the round protocol (DESIGN.md §12).
//
// A Coordinator is a DistBackend: attach it to a Network with
// attach_dist() and every round (message or word) that fills slots is
// executed by K `ldc_shard` worker processes, each running the
// shard-round kernel over its contiguous vertex range. A round is one
// digest-sealed frame pair per worker: the coordinator sends each the
// round's fault context and sender list (kBcast), and closes the round
// when all K replies (kInboxIds) are in — then splices the per-shard
// inbox rows into the Network's master arena through its layout helper,
// range k at base k, which (the ranges being contiguous and ascending)
// reproduces the serial layout byte for byte. Workers never talk to each
// other: the coordinator holds every posted payload. A dense round (every
// node sending, fault-free) fills no slot and sends no frame: the
// coordinator prices its cut traffic from the partition fixed at bind.
//
// Workers: the coordinator posix_spawns K `ldc_shard` processes over
// socketpairs (no page-table copy of the coordinator, whatever its size).
// Every socket fd is created close-on-exec and the spawn dup2s the
// child's end onto a fixed fd, which clears the flag on that copy only,
// so no worker inherits a sibling's socket — worker death is always
// visible as EOF.
//
// Attach validation: the coordinator verifies its own mapping's content
// digest while the workers start, then every worker HELLOs with its
// corpus content digest and shape; any mismatch with the coordinator's
// own mmap is a typed AttachError naming the worker. Liveness: the
// coordinator's I/O is fully non-blocking; while a round is in flight,
// heartbeat_ms of total silence (or any worker EOF) aborts the run with a
// WorkerError naming the shard and round, and a malformed reply with a
// FrameError. Either is fatal: the run is over.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include <sys/types.h>

#include "ldc/dist/wire.hpp"
#include "ldc/graph/partition.hpp"
#include "ldc/runtime/network.hpp"
#include "ldc/storage/mapped_graph.hpp"

namespace ldc::dist {

struct CoordinatorOptions {
  /// Worker-process count in [1, kMaxDistWorkers], clamped to n.
  std::size_t workers = 1;
  /// Max tolerated total silence while a round is in flight before the
  /// coordinator declares the slowest worker hung (WorkerError).
  std::uint64_t heartbeat_ms = 30000;
  /// Max wait for worker HELLOs and assign acks (AttachError).
  std::uint64_t attach_timeout_ms = 10000;
  /// Path of the `ldc_shard` binary; "" resolves via LDC_SHARD_BIN, then
  /// next to the running executable.
  std::string shard_binary;
};

/// Physical wire observability (frames and bytes actually moved over the
/// sockets, headers included) — deliberately separate from the LOGICAL
/// cross_shard_traffic() counters, which stay engine-independent.
struct WireStats {
  std::uint64_t frames_sent = 0;
  std::uint64_t frames_received = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_received = 0;
};

class Coordinator : public DistBackend {
 public:
  /// Maps the corpus, spawns the workers, verifies the corpus content
  /// while they start, and runs the HELLO digest handshake. Throws
  /// CorpusError on a bad corpus file (reaping any worker already
  /// started), AttachError on a worker binary that cannot start or a
  /// worker that fails the handshake, and std::invalid_argument on bad
  /// options.
  explicit Coordinator(const std::string& corpus_path,
                       CoordinatorOptions opt = {});
  ~Coordinator() override;

  Coordinator(const Coordinator&) = delete;
  Coordinator& operator=(const Coordinator&) = delete;

  /// The corpus-backed graph; construct the Network over exactly this.
  const Graph& corpus_graph() const { return graph_; }

  std::size_t shards() const override { return conns_.size(); }
  ShardTraffic traffic() const override { return traffic_; }
  WireStats wire_stats() const { return wire_; }

  /// Worker process ids in shard order. Observability for diagnostics
  /// and the failure-injection tests.
  std::vector<pid_t> worker_pids() const {
    std::vector<pid_t> pids;
    pids.reserve(conns_.size());
    for (const WorkerConn& c : conns_) pids.push_back(c.pid);
    return pids;
  }

 protected:
  void bind(const Graph& g) override;
  /// A round that fills slots is one frame pair per worker: each gets the
  /// fault context and the ascending sender list (kBcast), resolves its
  /// range's drop and corruption decisions, and returns its non-empty
  /// rows of surviving sender ids (kInboxIds). The coordinator holds every
  /// sender's posted payload, so it points each slot at it, re-applies
  /// the pure PRF corruption to the destination's own copy, and prices a
  /// delivery across the cut at its payload's bits. Hostile counts,
  /// receivers or sender orders throw FrameError.
  ShardStaging broadcast(const RoundContext& rc, const LiveSenders* live,
                         MailArena& a) override;

 private:
  struct WorkerConn {
    int fd = -1;
    pid_t pid = -1;
    FrameReader reader;
    std::deque<Frame> inq;  ///< decoded frames not yet consumed
    std::string outq;       ///< bytes not yet flushed
    std::size_t outq_off = 0;
    bool eof = false;
    /// The worker's range and halo, built at bind and verified against
    /// the worker's own kAssignAck, and the range's cut senders.
    ShardTopology topo;
    std::vector<CutSender> cut;
  };

  void spawn_workers(const std::string& corpus_path, std::size_t k);
  void handshake();
  void shutdown_workers();

  /// Appends a frame to worker k's out-queue (flushed by pump()).
  void queue_frame(std::size_t k, FrameKind kind, std::uint64_t round,
                   std::uint32_t src, std::uint32_t dst, std::uint32_t count,
                   std::string_view payload);
  /// One poll(2) pass: flush pending writes, read what's available,
  /// decode complete frames into the per-worker in-queues. Never blocks
  /// longer than timeout_ms. Throws FrameError on malformed worker bytes.
  void pump(int timeout_ms);
  /// A decoded frame tagged with the connection it arrived on (workers
  /// don't know their shard index until kAssign, so the socket — not the
  /// header — is the source of truth for identity).
  struct Incoming {
    std::size_t from;
    Frame frame;
  };

  /// Pops the next decoded frame (ascending worker order), pumping until
  /// one arrives. On worker EOF throws WorkerError (or AttachError when
  /// attaching); after window_ms of total silence throws naming `phase`,
  /// `round`, and the lowest shard still owed by the caller.
  Incoming await_frame(std::uint64_t round, const char* phase,
                       std::uint64_t window_ms, bool attaching,
                       const std::vector<char>& satisfied);

  /// Waits for exactly one `kind` reply from every worker for `round`
  /// (anything else is a FrameError) and returns them in shard order.
  std::vector<Frame> collect_replies(FrameKind kind, std::uint64_t round,
                                     const char* phase);

  /// Adds a finished round's cut traffic to traffic_; returns st.
  ShardStaging tally(const ShardStaging& st);

  std::shared_ptr<const storage::MappedGraph> mg_;
  Graph graph_;  ///< zero-copy view pinning the mapping
  CoordinatorOptions opt_;
  std::vector<WorkerConn> conns_;
  std::uint64_t last_rx_ms_ = 0;  ///< monotone ms of the last bytes read

  Partition part_;  ///< set at bind()

  ShardTraffic traffic_;
  WireStats wire_;
};

}  // namespace ldc::dist
