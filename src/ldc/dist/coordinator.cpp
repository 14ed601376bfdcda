// Coordinator: process management, the non-blocking socket pump, the
// per-round frame exchange, and the master-arena splice (DESIGN.md §12).
//
// Deadlock freedom: workers use plain blocking I/O, so the coordinator
// must never block on a write — all sends go through per-worker
// out-queues flushed by poll(2), and every wait is a poll with a
// deadline. Because the coordinator always drains its sockets while
// waiting, a worker's blocking writes always complete.
#include "ldc/dist/coordinator.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>

#include <fcntl.h>
#include <poll.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

extern char** environ;

namespace ldc::dist {
namespace {

std::uint64_t mono_ms() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  (void)::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

/// Locates the worker binary: explicit option, then LDC_SHARD_BIN, then
/// next to the running executable (build trees put the tests, the
/// benchmarks and ldc_shard under sibling directories).
std::string find_shard_binary(const std::string& override_path) {
  if (!override_path.empty()) return override_path;
  if (const char* env = std::getenv("LDC_SHARD_BIN");
      env != nullptr && *env != '\0') {
    return env;
  }
  char buf[4096];
  const ssize_t len = ::readlink("/proc/self/exe", buf, sizeof buf - 1);
  if (len > 0) {
    buf[len] = '\0';
    std::string dir(buf);
    const std::size_t slash = dir.find_last_of('/');
    dir = slash == std::string::npos ? "." : dir.substr(0, slash);
    for (const std::string& cand :
         {dir + "/ldc_shard", dir + "/../src/ldc_shard"}) {
      if (::access(cand.c_str(), X_OK) == 0) return cand;
    }
  }
  throw AttachError(
      "ldc_shard binary not found: set LDC_SHARD_BIN or pass "
      "CoordinatorOptions::shard_binary");
}

}  // namespace

Coordinator::Coordinator(const std::string& corpus_path,
                         CoordinatorOptions opt)
    : mg_(storage::MappedGraph::open(corpus_path)), opt_(std::move(opt)) {
  if (opt_.heartbeat_ms == 0 || opt_.attach_timeout_ms == 0) {
    throw std::invalid_argument(
        "Coordinator: heartbeat_ms and attach_timeout_ms must be >= 1");
  }
  if (opt_.workers == 0 || opt_.workers > kMaxDistWorkers) {
    throw std::invalid_argument("Coordinator: workers must be in [1, " +
                                std::to_string(kMaxDistWorkers) + "]");
  }
  const std::size_t k = std::min<std::uint64_t>(
      opt_.workers, std::max<std::uint64_t>(mg_->meta().n, 1));
  conns_.resize(k);
  try {
    spawn_workers(corpus_path, k);
    // The workers start (exec, map, verify their own mapping) while the
    // coordinator verifies the one it holds, so its digest pass is off
    // the attach's critical path; a mismatch reaps them below.
    mg_->verify();
    graph_ = mg_->graph();
    handshake();
  } catch (...) {
    // A throwing constructor never reaches the destructor: reap whatever
    // was already spawned so a failed attach leaves no orphans behind.
    shutdown_workers();
    throw;
  }
}

Coordinator::~Coordinator() { shutdown_workers(); }

void Coordinator::spawn_workers(const std::string& corpus_path,
                                std::size_t k) {
  const std::string bin = find_shard_binary(opt_.shard_binary);
  // Each child finds its socket end on this fd. Both ends are created
  // close-on-exec, and the spawn's dup2 clears the flag on the child's
  // copy only, so no worker inherits a sibling's socket: its death always
  // reads as EOF here.
  constexpr int kChildFd = 3;
  const std::string fd_arg = std::to_string(kChildFd);
  const char* argv[] = {"ldc_shard", "--corpus", corpus_path.c_str(),
                        "--fd",      fd_arg.c_str(), nullptr};
  for (std::size_t i = 0; i < k; ++i) {
    int sv[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, sv) != 0) {
      throw AttachError(std::string("socketpair failed: ") +
                        std::strerror(errno));
    }
    if (sv[1] == kChildFd) {
      // A dup2 onto itself would keep the flag: move the end first.
      const int moved = ::fcntl(sv[1], F_DUPFD_CLOEXEC, kChildFd + 1);
      const int err = errno;
      ::close(sv[1]);
      if (moved < 0) {
        ::close(sv[0]);
        throw AttachError(std::string("fcntl failed: ") + std::strerror(err));
      }
      sv[1] = moved;
    }
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    int err = posix_spawn_file_actions_adddup2(&actions, sv[1], kChildFd);
    pid_t pid = -1;
    if (err == 0) {
      err = ::posix_spawn(&pid, bin.c_str(), &actions, nullptr,
                          const_cast<char* const*>(argv), environ);
    }
    posix_spawn_file_actions_destroy(&actions);
    ::close(sv[1]);
    if (err != 0) {
      ::close(sv[0]);
      throw AttachError("cannot start worker binary " + bin + ": " +
                        std::strerror(err));
    }
    set_nonblocking(sv[0]);
    conns_[i].fd = sv[0];
    conns_[i].pid = pid;
  }
}

void Coordinator::queue_frame(std::size_t k, FrameKind kind,
                              std::uint64_t round, std::uint32_t src,
                              std::uint32_t dst, std::uint32_t count,
                              std::string_view payload) {
  const std::string bytes = encode_frame(kind, round, src, dst, count,
                                         payload);
  conns_[k].outq.append(bytes);
  ++wire_.frames_sent;
  wire_.bytes_sent += bytes.size();
}

void Coordinator::pump(int timeout_ms) {
  std::vector<pollfd> pfds;
  std::vector<std::size_t> owner;
  for (std::size_t k = 0; k < conns_.size(); ++k) {
    WorkerConn& c = conns_[k];
    if (c.fd < 0 || c.eof) continue;
    short events = POLLIN;
    if (c.outq_off < c.outq.size()) events |= POLLOUT;
    pfds.push_back(pollfd{c.fd, events, 0});
    owner.push_back(k);
  }
  if (pfds.empty()) return;
  const int rc = ::poll(pfds.data(), pfds.size(), timeout_ms);
  if (rc <= 0) return;  // timeout or EINTR; the caller re-checks deadlines
  for (std::size_t i = 0; i < pfds.size(); ++i) {
    WorkerConn& c = conns_[owner[i]];
    if (pfds[i].revents & POLLOUT) {
      while (c.outq_off < c.outq.size()) {
        // MSG_NOSIGNAL: a SIGKILLed worker's socket must yield EPIPE
        // (mapped to eof below), never a process-fatal SIGPIPE.
        const ssize_t n = ::send(c.fd, c.outq.data() + c.outq_off,
                                 c.outq.size() - c.outq_off, MSG_NOSIGNAL);
        if (n > 0) {
          c.outq_off += static_cast<std::size_t>(n);
          continue;
        }
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        if (n < 0 && errno == EINTR) continue;
        c.eof = true;  // EPIPE/ECONNRESET: the read side reports it
        break;
      }
      if (c.outq_off == c.outq.size()) {
        c.outq.clear();
        c.outq_off = 0;
      }
    }
    if (pfds[i].revents & (POLLIN | POLLHUP | POLLERR)) {
      char buf[1 << 16];
      for (;;) {
        const ssize_t n = ::read(c.fd, buf, sizeof buf);
        if (n > 0) {
          wire_.bytes_received += static_cast<std::uint64_t>(n);
          last_rx_ms_ = mono_ms();
          c.reader.feed(buf, static_cast<std::size_t>(n));
          continue;
        }
        if (n == 0) {
          c.eof = true;
          break;
        }
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        if (errno == EINTR) continue;
        c.eof = true;
        break;
      }
      try {
        while (std::optional<Frame> f = c.reader.next()) {
          ++wire_.frames_received;
          c.inq.push_back(std::move(*f));
        }
      } catch (const FrameError& e) {
        throw FrameError("shard " + std::to_string(owner[i]) + ": " +
                         e.what());
      }
      if (c.eof && c.reader.mid_frame()) {
        throw FrameError("shard " + std::to_string(owner[i]) +
                         ": torn frame (worker closed mid-frame)");
      }
    }
  }
}

Coordinator::Incoming Coordinator::await_frame(
    std::uint64_t round, const char* phase, std::uint64_t window_ms,
    bool attaching, const std::vector<char>& satisfied) {
  for (;;) {
    for (std::size_t k = 0; k < conns_.size(); ++k) {
      if (!conns_[k].inq.empty()) {
        Frame f = std::move(conns_[k].inq.front());
        conns_[k].inq.pop_front();
        return Incoming{k, std::move(f)};
      }
    }
    for (std::size_t k = 0; k < conns_.size(); ++k) {
      if (conns_[k].eof && (k >= satisfied.size() || satisfied[k] == 0)) {
        const std::string what =
            "worker for shard " + std::to_string(k) +
            " died (connection closed) during " + phase + " of round " +
            std::to_string(round);
        if (attaching) throw AttachError(what);
        throw WorkerError(what);
      }
    }
    const std::uint64_t now = mono_ms();
    if (now >= last_rx_ms_ + window_ms) {
      std::size_t slow = 0;
      while (slow < satisfied.size() && satisfied[slow] != 0) ++slow;
      const std::string what =
          "worker for shard " + std::to_string(slow) + " silent for " +
          std::to_string(window_ms) + " ms during " + phase + " of round " +
          std::to_string(round) + " (heartbeat timeout)";
      if (attaching) throw AttachError(what);
      throw WorkerError(what);
    }
    const std::uint64_t remain = last_rx_ms_ + window_ms - now;
    pump(static_cast<int>(std::min<std::uint64_t>(remain, 100)));
  }
}

void Coordinator::handshake() {
  const std::size_t K = conns_.size();
  std::vector<char> satisfied(K, 0);
  last_rx_ms_ = mono_ms();
  for (std::size_t have = 0; have < K;) {
    Incoming in = await_frame(0, "hello", opt_.attach_timeout_ms, true,
                              satisfied);
    if (in.frame.header.kind != FrameKind::kHello ||
        satisfied[in.from] != 0) {
      throw AttachError("worker " + std::to_string(in.from) +
                        ": expected one hello frame, got " +
                        frame_kind_name(in.frame.header.kind));
    }
    PayloadReader r(in.frame.payload, "hello");
    const std::uint64_t digest = r.u64();
    const std::uint32_t n = r.u32();
    const std::uint64_t adj = r.u64();
    r.expect_end();
    const storage::CorpusMeta& meta = mg_->meta();
    if (digest != meta.content_digest) {
      throw AttachError(
          "worker " + std::to_string(in.from) +
          ": corpus content digest mismatch (worker " +
          std::to_string(digest) + ", coordinator " +
          std::to_string(meta.content_digest) +
          ") — the shard is serving a different graph");
    }
    if (n != graph_.n() || adj != meta.adj_entries) {
      throw AttachError("worker " + std::to_string(in.from) +
                        ": corpus shape mismatch at attach");
    }
    satisfied[in.from] = 1;
    ++have;
  }
}

void Coordinator::bind(const Graph& g) {
  if (g.n() != graph_.n()) {
    throw AttachError(
        "Coordinator::bind: the Network's graph does not match the corpus "
        "(construct it over corpus_graph())");
  }
  const std::size_t K = conns_.size();
  part_ = Partition::degree_balanced(graph_, K);

  // Each shard's halo: workers build the same ShardTopology, and the
  // assign ack cross-checks it (ghost edges and ghost count), so a
  // topology disagreement can never survive the attach. The cut senders
  // price dense rounds.
  for (std::size_t k = 0; k < K; ++k) {
    conns_[k].topo.build(graph_, part_.begin(k), part_.end(k));
    conns_[k].cut = cut_senders(graph_, part_.begin(k), part_.end(k));
    PayloadWriter w;
    w.u32(static_cast<std::uint32_t>(k));
    w.u32(static_cast<std::uint32_t>(K));
    for (NodeId s : part_.starts()) w.u32(s);
    queue_frame(k, FrameKind::kAssign, 0, 0,
                static_cast<std::uint32_t>(k), 0, w.take());
  }
  std::vector<char> satisfied(K, 0);
  last_rx_ms_ = mono_ms();
  for (std::size_t have = 0; have < K;) {
    Incoming in = await_frame(0, "assign", opt_.attach_timeout_ms, true,
                              satisfied);
    const FrameHeader& h = in.frame.header;
    if (h.kind != FrameKind::kAssignAck || h.src_shard != in.from ||
        satisfied[in.from] != 0) {
      throw AttachError("worker " + std::to_string(in.from) +
                        ": expected one assign ack, got " +
                        frame_kind_name(h.kind));
    }
    PayloadReader r(in.frame.payload, "assign_ack");
    const std::uint64_t ghost_edges = r.u64();
    const std::uint64_t ghosts = r.u64();
    r.expect_end();
    const ShardTopology& t = conns_[in.from].topo;
    if (ghost_edges != t.ghost_edges || ghosts != t.ghosts.size()) {
      throw AttachError("worker " + std::to_string(in.from) +
                        ": shard topology disagreement at assign (worker "
                        "halo does not match the coordinator's partition)");
    }
    satisfied[in.from] = 1;
    ++have;
  }
  // Logical traffic is a per-run counter (the in-process engine's starts
  // at zero with each ShardSet); a bind marks the start of a run.
  traffic_ = ShardTraffic{};
}

ShardStaging Coordinator::tally(const ShardStaging& st) {
  traffic_.messages += st.traffic_messages;
  traffic_.bits += st.traffic_bits;
  return st;
}

std::vector<Frame> Coordinator::collect_replies(FrameKind kind,
                                                std::uint64_t round,
                                                const char* phase) {
  const std::size_t K = conns_.size();
  std::vector<std::optional<Frame>> got(K);
  std::vector<char> satisfied(K, 0);
  last_rx_ms_ = mono_ms();
  for (std::size_t have = 0; have < K;) {
    Incoming in = await_frame(round, phase, opt_.heartbeat_ms, false,
                              satisfied);
    const FrameHeader& h = in.frame.header;
    if (h.kind != kind || h.round != round || h.src_shard != in.from ||
        got[in.from].has_value()) {
      throw FrameError("shard " + std::to_string(in.from) +
                       ": expected one " + frame_kind_name(kind) +
                       " frame, got " + frame_kind_name(h.kind));
    }
    got[in.from] = std::move(in.frame);
    satisfied[in.from] = 1;
    ++have;
  }
  std::vector<Frame> out;
  out.reserve(K);
  for (auto& f : got) out.push_back(std::move(*f));
  return out;
}

ShardStaging Coordinator::broadcast(const RoundContext& rc,
                                    const LiveSenders* live, MailArena& a) {
  const MailSlot* posted = a.posted();
  if (live == nullptr) {
    // A dense round fills no slot and sends no frame: its cut traffic is
    // priced from the partition fixed at bind, as in-process.
    ShardStaging st;
    for (const WorkerConn& c : conns_) st += dense_cut_traffic(c.cut, posted);
    return tally(st);
  }

  // Each worker gets the fault context and the ascending sender list
  // (kBcast), resolves its range's drop and corruption decisions, and
  // returns its non-empty rows of surviving sender ids (kInboxIds).
  const std::uint32_t n = graph_.n();
  std::string payload;
  {
    PayloadWriter w;
    encode_fault_ctx(w, rc.faults, rc.down, n);
    encode_senders(w, live->ids, n);
    payload = w.take();
  }
  for (std::size_t k = 0; k < conns_.size(); ++k) {
    queue_frame(k, FrameKind::kBcast, rc.round, 0,
                static_cast<std::uint32_t>(k),
                static_cast<std::uint32_t>(live->ids.size()), payload);
  }
  const std::vector<Frame> replies =
      collect_replies(FrameKind::kInboxIds, rc.round, "broadcast");

  // The splice: the K replies' rows land in the master arena through its
  // layout helper, back to back in shard order, writing only the
  // non-empty rows. Each survivor points at its sender's posted entry; a
  // corrupted one gets its own flipped copy, appended to the pool.
  const std::size_t K = replies.size();
  std::vector<std::uint32_t> counts(K);
  for (std::size_t k = 0; k < K; ++k) {
    counts[k] = replies[k].header.count;
    // Every slot carries at least its sender's 4 bytes: a larger count is
    // hostile, and must not size the layout.
    if (counts[k] > replies[k].payload.size() / 4) {
      throw FrameError("shard " + std::to_string(k) +
                       ": inbox_ids slot count overruns the frame");
    }
  }
  const ArenaLayout out = a.lay_out(n, counts);
  std::vector<std::uint64_t>& pool = a.pool();
  ShardStaging st;
  for (std::size_t k = 0; k < K; ++k) {
    const std::string label = "shard " + std::to_string(k) + ": inbox_ids";
    PayloadReader r(replies[k].payload, "inbox_ids");
    st.dropped += r.u64();
    st.corrupted += r.u64();
    std::uint32_t at = out.bases[k];
    std::uint32_t first = at;
    read_rows(
        r, part_.begin(k), part_.end(k), counts[k], label,
        [&](NodeId v, std::uint32_t count) {
          out.rows[v] = RowEntry{at, count, out.rows.stamp};
          out.receivers->push_back(v);
          first = at;
        },
        [&](NodeId v) {
          const NodeId u = r.u32();
          if (!std::binary_search(live->ids.begin(), live->ids.end(), u)) {
            throw FrameError(label + ": sender did not transmit");
          }
          if (at != first && out.slots[at - 1].sender >= u) {
            throw FrameError(label + ": a row's senders are not ascending");
          }
          MailSlot slot = posted[u];
          if (u < part_.begin(k) || u >= part_.end(k)) {
            ++st.traffic_messages;
            st.traffic_bits += slot.bits;
          }
          if (rc.faults != nullptr &&
              rc.faults->corrupts_message(rc.round, u, v)) {
            const std::uint64_t to = pool.size();
            pool.resize(to + payload_words(slot.bits));
            ShardRound::corrupt_copy(rc, u, v, pool.data(), to, slot);
          }
          out.slots[at++] = slot;
        });
    r.expect_end();
  }
  return tally(st);
}

void Coordinator::shutdown_workers() {
  // Best-effort clean shutdown, then the hammer: no orphan processes and
  // no leaked sockets survive a coordinator, however the run ended.
  for (std::size_t k = 0; k < conns_.size(); ++k) {
    if (conns_[k].fd >= 0 && !conns_[k].eof) {
      try {
        queue_frame(k, FrameKind::kShutdown, 0, 0,
                    static_cast<std::uint32_t>(k), 0, {});
      } catch (const std::exception&) {
      }
    }
  }
  const std::uint64_t flush_deadline = mono_ms() + 500;
  for (;;) {
    bool pending = false;
    for (const WorkerConn& c : conns_) {
      if (c.fd >= 0 && !c.eof && c.outq_off < c.outq.size()) pending = true;
    }
    if (!pending || mono_ms() >= flush_deadline) break;
    try {
      pump(20);
    } catch (const std::exception&) {
      break;  // malformed trailing bytes cannot block shutdown
    }
  }
  for (WorkerConn& c : conns_) {
    if (c.fd >= 0) {
      ::close(c.fd);
      c.fd = -1;
    }
  }
  // Reap with a doubling nap from 50 µs: a worker that exits on
  // kShutdown is reaped about when it exits, not at a fixed sleep's end.
  const std::uint64_t kill_deadline = mono_ms() + 2000;
  for (WorkerConn& c : conns_) {
    useconds_t nap = 50;
    while (c.pid > 0) {
      const pid_t r = ::waitpid(c.pid, nullptr, WNOHANG);
      if (r == c.pid || (r < 0 && errno == ECHILD)) {
        c.pid = -1;
        break;
      }
      if (mono_ms() >= kill_deadline) {
        ::kill(c.pid, SIGKILL);
        ::waitpid(c.pid, nullptr, 0);
        c.pid = -1;
        break;
      }
      ::usleep(nap);
      nap = std::min<useconds_t>(2 * nap, 10 * 1000);
    }
  }
}

}  // namespace ldc::dist
