// The event-loop serving frontend under concurrency and hostile I/O:
// many simultaneous sessions over one shared Service must each see the
// exact byte stream a dedicated solo run would produce (1 worker), the
// union of emitted lines must be invariant to worker count, framing must
// survive arbitrarily small reads and writes, unpaused sessions over a
// listening socket must reconcile every admitted job under cancel churn,
// and a paused session whose input ends must still run its jobs and say
// "bye". Labelled "tsan": the ThreadSanitizer CI job runs this suite,
// whose services set their own worker counts (1, 2 and 7, more workers
// than cores).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include "ldc/harness/json.hpp"
#include "ldc/service/event_loop.hpp"
#include "ldc/service/job.hpp"

namespace ldc::service {
namespace {

constexpr const char* kAlgos[] = {"greedy", "luby", "linial", "kw"};

/// One submit request line: `algorithm` on an n-vertex ring.
std::string submit_line(const char* algorithm, std::uint64_t seed,
                        std::size_t n) {
  Job job;
  job.algorithm = algorithm;
  job.seed = seed;
  job.graph.family = "ring";
  job.graph.n = n;
  harness::Json req = harness::Json::object();
  req.add("op", "submit");
  req.add("job", job_to_json(job));
  return req.dump() + "\n";
}

/// A pause, then a burst of `jobs` submits that stay gated.
std::string paused_burst(std::size_t idx, std::size_t jobs) {
  std::string s = "{\"op\":\"pause\"}\n";
  for (std::size_t j = 0; j < jobs; ++j) {
    s += submit_line(kAlgos[(idx + j) % 4], 100 * idx + j + 1, 16);
  }
  return s;
}

/// Deterministic session script: pause, a burst of submits, cancel the
/// last while it is still gated, resume, drain, shutdown. Every line of
/// the response is pinned at one worker.
std::string script_for(std::size_t idx, std::size_t jobs) {
  std::string s = paused_burst(idx, jobs);
  s += "{\"op\":\"cancel\",\"id\":" + std::to_string(jobs) + "}\n";
  s += "{\"op\":\"resume\"}\n{\"op\":\"drain\"}\n{\"op\":\"shutdown\"}\n";
  return s;
}

void send_all(int fd, const char* data, std::size_t len) {
  std::size_t off = 0;
  while (off < len) {
    const ssize_t n = ::send(fd, data + off, len - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return;
    }
    off += static_cast<std::size_t>(n);
  }
}

std::string read_to_eof(int fd, std::size_t chunk = 4096) {
  std::string stream;
  std::vector<char> buf(chunk);
  for (;;) {
    const ssize_t n = ::read(fd, buf.data(), buf.size());
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (n == 0) break;
    stream.append(buf.data(), static_cast<std::size_t>(n));
  }
  return stream;
}

std::string run_script_client(int fd, const std::string& script) {
  send_all(fd, script.data(), script.size());
  std::string stream = read_to_eof(fd);
  ::close(fd);
  return stream;
}

ServiceConfig shared_config(std::size_t workers) {
  ServiceConfig cfg;
  cfg.workers = workers;
  cfg.queue_capacity = 512;  // every session's paused burst fits
  cfg.cache_bytes = 0;       // no cross-session cache hits
  return cfg;
}

/// K scripted sessions against one server: all concurrent, or strictly
/// one after another (the solo reference streams).
std::vector<std::string> run_sessions(std::size_t workers, std::size_t k,
                                      std::size_t jobs, bool concurrent) {
  EventLoopServer server(shared_config(workers), {});
  std::thread loop([&] { server.run(); });
  std::vector<std::string> streams(k);
  auto one = [&](std::size_t idx) {
    int sv[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
    server.adopt(sv[0]);
    streams[idx] = run_script_client(sv[1], script_for(idx, jobs));
  };
  if (concurrent) {
    std::vector<std::thread> clients;
    clients.reserve(k);
    for (std::size_t idx = 0; idx < k; ++idx) {
      clients.emplace_back(one, idx);
    }
    for (auto& t : clients) t.join();
  } else {
    for (std::size_t idx = 0; idx < k; ++idx) one(idx);
  }
  server.stop();
  loop.join();
  return streams;
}

std::vector<std::string> split_lines(const std::string& s) {
  std::vector<std::string> lines;
  std::size_t pos = 0, nl;
  while ((nl = s.find('\n', pos)) != std::string::npos) {
    lines.push_back(s.substr(pos, nl - pos));
    pos = nl + 1;
  }
  return lines;
}

std::vector<std::string> sorted_union(
    const std::vector<std::string>& streams) {
  std::vector<std::string> all;
  for (const auto& s : streams) {
    auto lines = split_lines(s);
    all.insert(all.end(), lines.begin(), lines.end());
  }
  std::sort(all.begin(), all.end());
  return all;
}

// ---------------------------------------------------------------------------
// Concurrent-session determinism

TEST(ServeConcurrent, SixtyFourSessionsByteIdenticalToSoloAtOneWorker) {
  constexpr std::size_t kSessions = 64;
  constexpr std::size_t kJobs = 2;
  const auto solo = run_sessions(1, kSessions, kJobs, /*concurrent=*/false);
  const auto mux = run_sessions(1, kSessions, kJobs, /*concurrent=*/true);
  for (std::size_t i = 0; i < kSessions; ++i) {
    ASSERT_FALSE(solo[i].empty()) << "session " << i;
    EXPECT_EQ(solo[i], mux[i]) << "session " << i
                               << ": multiplexed stream diverged";
  }
}

TEST(ServeConcurrent, SevenWorkerUnionMatchesOneWorkerUnion) {
  constexpr std::size_t kSessions = 64;
  constexpr std::size_t kJobs = 2;
  const auto one = run_sessions(1, kSessions, kJobs, /*concurrent=*/true);
  const auto seven = run_sessions(7, kSessions, kJobs, /*concurrent=*/true);
  // Per-session byte order may differ at 7 workers, but every session
  // must emit exactly the same multiset of lines.
  EXPECT_EQ(sorted_union(one), sorted_union(seven));
  for (std::size_t i = 0; i < kSessions; ++i) {
    EXPECT_EQ(sorted_union({one[i]}), sorted_union({seven[i]}))
        << "session " << i;
  }
}

// ---------------------------------------------------------------------------
// Unpaused load with cancel churn

/// An unpaused session: `jobs` submits over a hot set of eight specs (so
/// repeats hit the cache), each 9th id cancelled right after its submit,
/// then shutdown. Nothing gates the jobs, so results interleave with
/// admissions by worker timing, and only the counts are pinned.
std::string churn_script(std::size_t idx, std::size_t jobs) {
  std::string s;
  for (std::size_t id = 1; id <= jobs; ++id) {
    const std::size_t spec = (idx + id) % 8;
    s += submit_line(kAlgos[spec % 4], spec + 1, 32);
    if (id % 9 == 0) {
      s += "{\"op\":\"cancel\",\"id\":" + std::to_string(id) + "}\n";
    }
  }
  return s + "{\"op\":\"shutdown\"}\n";
}

int connect_unix(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  path.copy(addr.sun_path, sizeof addr.sun_path - 1);
  if (fd >= 0 &&
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

TEST(ServeConcurrent, UnpausedSocketSessionsReconcileUnderCancelChurn) {
  constexpr std::size_t kSessions = 4;
  constexpr std::size_t kJobs = 45;
  ServiceConfig cfg;
  cfg.workers = 2;
  cfg.queue_capacity = 256;  // the default result cache stays on
  EventLoopServer server(cfg, {});
  const std::string path = ::testing::TempDir() + "ldc_churn_" +
                           std::to_string(::getpid()) + ".sock";
  server.listen_on(path);
  std::thread loop([&] { server.run(); });
  std::vector<std::string> streams(kSessions);
  std::vector<std::thread> clients;
  for (std::size_t idx = 0; idx < kSessions; ++idx) {
    clients.emplace_back([&, idx] {
      const int fd = connect_unix(path);
      ASSERT_GE(fd, 0) << "connect " << path;
      streams[idx] = run_script_client(fd, churn_script(idx, kJobs));
    });
  }
  for (auto& t : clients) t.join();
  server.stop();
  loop.join();

  for (std::size_t idx = 0; idx < kSessions; ++idx) {
    const auto lines = split_lines(streams[idx]);
    ASSERT_FALSE(lines.empty()) << "session " << idx;
    EXPECT_EQ(lines.back(), "{\"event\":\"bye\"}") << "session " << idx;
    std::map<std::string, std::size_t> events, statuses;
    for (const auto& line : lines) {
      const harness::Json ev = harness::Json::parse_line(line);
      const std::string& kind = ev.at("event").as_string();
      ++events[kind];
      if (kind == "result") ++statuses[ev.at("status").as_string()];
    }
    EXPECT_EQ(events["error"], 0u) << streams[idx];
    EXPECT_EQ(events["admitted"] + events["rejected"], kJobs) << "session "
                                                              << idx;
    EXPECT_EQ(events["result"], events["admitted"]) << "session " << idx;
    EXPECT_EQ(statuses["ok"] + statuses["cancelled"] +
                  statuses["deadline_missed"] + statuses["failed"],
              events["result"])
        << "session " << idx;
  }
}

// ---------------------------------------------------------------------------
// Partial-I/O torture

TEST(ServeConcurrent, ByteAtATimeWritesAndReadsPreserveTheStream) {
  const std::string script = script_for(3, 3);

  // Reference: the same script over a cooperative client.
  EventLoopServer ref_server(shared_config(1), {});
  std::thread ref_loop([&] { ref_server.run(); });
  int rv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, rv), 0);
  ref_server.adopt(rv[0]);
  const std::string want = run_script_client(rv[1], script);
  ref_server.stop();
  ref_loop.join();
  ASSERT_FALSE(want.empty());

  // Torture: minimal socket buffers, one-byte writes, one-byte reads.
  EventLoopServer server(shared_config(1), {});
  std::thread loop([&] { server.run(); });
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  const int tiny = 1;  // the kernel clamps to its minimum — still small
  ::setsockopt(sv[0], SOL_SOCKET, SO_SNDBUF, &tiny, sizeof tiny);
  ::setsockopt(sv[0], SOL_SOCKET, SO_RCVBUF, &tiny, sizeof tiny);
  ::setsockopt(sv[1], SOL_SOCKET, SO_SNDBUF, &tiny, sizeof tiny);
  ::setsockopt(sv[1], SOL_SOCKET, SO_RCVBUF, &tiny, sizeof tiny);
  server.adopt(sv[0]);

  // Reader first (1-byte reads), so the byte-at-a-time writer can never
  // deadlock against a full return path.
  std::string got;
  std::thread reader([&] { got = read_to_eof(sv[1], 1); });
  for (const char c : script) {
    send_all(sv[1], &c, 1);
  }
  reader.join();
  ::close(sv[1]);
  server.stop();
  loop.join();

  // No dropped, duplicated or interleaved lines: the byte stream is
  // exactly the cooperative client's byte stream.
  EXPECT_EQ(got, want);
}

// ---------------------------------------------------------------------------
// Disconnects and session caps

TEST(ServeConcurrent, MidRequestDisconnectLeavesServerServing) {
  EventLoopServer server(shared_config(1), {});
  std::thread loop([&] { server.run(); });

  // A client that dies mid-line, one that dies with jobs in flight, and
  // one that just connects and leaves.
  {
    int sv[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
    server.adopt(sv[0]);
    const std::string partial = "{\"op\":\"sub";
    send_all(sv[1], partial.data(), partial.size());
    ::close(sv[1]);
  }
  {
    int sv[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
    server.adopt(sv[0]);
    const std::string wire = submit_line("greedy", 1, 16);
    send_all(sv[1], wire.data(), wire.size());
    ::close(sv[1]);  // abandon without reading anything
  }
  {
    int sv[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
    server.adopt(sv[0]);
    ::close(sv[1]);
  }

  // A well-behaved session afterwards still gets its full stream.
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  server.adopt(sv[0]);
  const std::string stream = run_script_client(sv[1], script_for(0, 2));
  server.stop();
  loop.join();

  const auto lines = split_lines(stream);
  ASSERT_FALSE(lines.empty());
  EXPECT_NE(stream.find("\"event\":\"drained\""), std::string::npos);
  EXPECT_EQ(lines.back(), "{\"event\":\"bye\"}");
}

TEST(ServeConcurrent, SessionCapRefusesTheExcessConnection) {
  EventLoopOptions opts;
  opts.max_sessions = 1;
  EventLoopServer server(shared_config(1), opts);
  std::thread loop([&] { server.run(); });

  int first[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, first), 0);
  server.adopt(first[0]);
  // Ensure the loop has materialized the first session before the
  // second fd arrives, so the cap decision is deterministic.
  while (server.session_count() < 1) {
    std::this_thread::yield();
  }

  int second[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, second), 0);
  server.adopt(second[0]);
  // The refused connection is closed outright: immediate EOF.
  EXPECT_EQ(read_to_eof(second[1]), "");
  ::close(second[1]);

  // The admitted session is unaffected.
  const std::string stream =
      run_script_client(first[1], script_for(1, 2));
  EXPECT_EQ(split_lines(stream).back(), "{\"event\":\"bye\"}");
  server.stop();
  loop.join();
}

// ---------------------------------------------------------------------------
// Ending input resumes a paused session

/// Polls `cond` for up to 10 s.
template <typename Cond>
bool within_10s(Cond cond) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!cond()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return true;
}

TEST(ServeConcurrent, PausedSessionDrainsWhenItsInputEnds) {
  // Each session pauses and queues two jobs, then its input ends one of
  // four ways. No request can resume it after that, so ending input
  // must: both jobs run, and a client that can still read gets both
  // results and "bye".
  EventLoopServer server(shared_config(1), {});
  std::atomic<bool> returned{false};
  std::thread loop([&] {
    server.run();
    returned = true;
  });

  enum { kShutdownOp, kHalfClose, kClose, kServerStop, kWays };
  int client[kWays];
  for (int way = 0; way < kWays; ++way) {
    int sv[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
    // A server that never answers fails the reads below after 10 s
    // instead of hanging them.
    const timeval limit{10, 0};
    ::setsockopt(sv[1], SOL_SOCKET, SO_RCVTIMEO, &limit, sizeof limit);
    server.adopt(sv[0]);
    const std::string burst = paused_burst(static_cast<std::size_t>(way), 2);
    send_all(sv[1], burst.data(), burst.size());
    client[way] = sv[1];
  }

  std::string streams[kWays];
  const std::string shutdown_op = "{\"op\":\"shutdown\"}\n";
  send_all(client[kShutdownOp], shutdown_op.data(), shutdown_op.size());
  streams[kShutdownOp] = read_to_eof(client[kShutdownOp]);
  ::shutdown(client[kHalfClose], SHUT_WR);
  streams[kHalfClose] = read_to_eof(client[kHalfClose]);
  ::close(client[kClose]);
  // The closed session is reaped only once its two jobs ran.
  EXPECT_TRUE(within_10s([&] { return server.session_count() == 1; }));
  server.stop();
  streams[kServerStop] = read_to_eof(client[kServerStop]);
  EXPECT_TRUE(within_10s([&] { return server.session_count() == 0; }));
  EXPECT_TRUE(within_10s([&] { return returned.load(); }));

  for (const int way : {kShutdownOp, kHalfClose, kServerStop}) {
    const auto lines = split_lines(streams[way]);
    const auto results = std::count_if(
        lines.begin(), lines.end(), [](const std::string& l) {
          return l.find("\"event\":\"result\"") != std::string::npos;
        });
    EXPECT_EQ(results, 2) << "way " << way << ": " << streams[way];
    ASSERT_FALSE(lines.empty()) << "way " << way;
    EXPECT_EQ(lines.back(), "{\"event\":\"bye\"}") << "way " << way;
  }

  // Closing the queue overrides every gate, so even a server that left
  // the sessions paused lets run() return here.
  server.service().shutdown();
  server.stop();
  loop.join();
  for (const int way : {kShutdownOp, kHalfClose, kServerStop}) {
    ::close(client[way]);
  }
}

}  // namespace
}  // namespace ldc::service
