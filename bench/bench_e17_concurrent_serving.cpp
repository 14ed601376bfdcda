// E17 (concurrent serving) — the event-loop frontend end to end.
//
// The determinism table (E17a) is the serving subsystem's core contract
// made measurable: K scripted sessions run twice against an in-process
// EventLoopServer — once solo (one session at a time) and once
// multiplexed (all K concurrent) — over a single shared Service at one
// worker. Each session's script uses the pause / submit burst /
// cancel-last / resume / drain / shutdown discipline, which pins every
// admission, cancellation and result order, so each session's *entire
// byte stream* must be identical solo vs multiplexed; at 7 workers only
// per-session result order may change, so the sorted union of all lines
// must match the 1-worker union exactly. Both digests are
// machine-independent (streams carry model-exact fields only) and are
// baseline-gated. The open-loop latency of ldc_serve is perfbench's
// serve-zipf workload.
#include "common.hpp"

#include <algorithm>
#include <cerrno>
#include <thread>

#include <sys/socket.h>
#include <unistd.h>

#include "ldc/service/event_loop.hpp"

namespace {
using namespace ldc;

constexpr const char* kAlgos[] = {"greedy", "luby", "linial", "kw"};
constexpr std::size_t kJobsPerSession = 3;

/// The scripted session for index `idx`: pause, burst of submits (algo
/// rotation, per-session seeds), cancel the last while still gated,
/// resume, drain, shutdown. Every response this script produces is
/// order- and value-deterministic at one worker.
std::string script_for(std::size_t idx) {
  std::string s = "{\"op\":\"pause\"}\n";
  for (std::size_t j = 0; j < kJobsPerSession; ++j) {
    service::Job job;
    job.algorithm = kAlgos[(idx + j) % 4];
    job.seed = 100 * idx + j + 1;
    job.graph.family = "ring";
    job.graph.n = 32;
    harness::Json req = harness::Json::object();
    req.add("op", "submit");
    req.add("job", service::job_to_json(job));
    s += req.dump();
    s.push_back('\n');
  }
  s += "{\"op\":\"cancel\",\"id\":" + std::to_string(kJobsPerSession) +
       "}\n";
  s += "{\"op\":\"resume\"}\n{\"op\":\"drain\"}\n{\"op\":\"shutdown\"}\n";
  return s;
}

/// Writes the whole script, then reads the session's full response
/// stream until the server closes the connection (after "bye").
std::string run_script_client(int fd, const std::string& script) {
  std::size_t off = 0;
  while (off < script.size()) {
    const ssize_t n =
        ::send(fd, script.data() + off, script.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    off += static_cast<std::size_t>(n);
  }
  std::string stream;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof buf);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (n == 0) break;
    stream.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return stream;
}

/// Runs the K scripted sessions against one EventLoopServer. With
/// `concurrent` every session is live at once (socketpairs adopted up
/// front); otherwise sessions run strictly one after another on the
/// same server — the solo reference streams.
std::vector<std::string> run_sessions(std::size_t workers, std::size_t k,
                                      bool concurrent) {
  service::ServiceConfig cfg;
  cfg.workers = workers;
  cfg.queue_capacity = 512;  // paused bursts from every session fit
  cfg.cache_bytes = 0;       // byte-determinism: no cross-session hits
  service::EventLoopServer server(cfg, {});
  std::thread loop([&] { server.run(); });

  std::vector<std::string> streams(k);
  auto one = [&](std::size_t idx) {
    int sv[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) return;
    server.adopt(sv[0]);
    streams[idx] = run_script_client(sv[1], script_for(idx));
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

/// Order-insensitive digest: every line from every stream, sorted.
std::uint64_t sorted_union_digest(const std::vector<std::string>& streams) {
  std::vector<std::string> lines;
  for (const auto& s : streams) {
    std::size_t pos = 0, nl;
    while ((nl = s.find('\n', pos)) != std::string::npos) {
      lines.push_back(s.substr(pos, nl - pos));
      pos = nl + 1;
    }
  }
  std::sort(lines.begin(), lines.end());
  std::string all;
  for (const auto& l : lines) {
    all += l;
    all.push_back('\n');
  }
  return bench::bytes_digest(all);
}

void run(harness::ExperimentContext& ctx) {
  // ---- E17a: solo-vs-multiplexed determinism. -------------------------
  auto& det = ctx.table(
      "E17a: concurrent sessions vs solo reference (shared service)",
      {"workers", "sessions", "jobs", "streams match", "union digest"});

  const std::size_t k = ctx.pick<std::size_t>(16, 8);
  const auto solo = run_sessions(1, k, /*concurrent=*/false);
  const auto mux1 = run_sessions(1, k, /*concurrent=*/true);
  std::size_t matches = 0;
  for (std::size_t i = 0; i < k; ++i) {
    if (!solo[i].empty() && solo[i] == mux1[i]) ++matches;
  }
  const std::uint64_t union1 = sorted_union_digest(mux1);
  det.add_row({std::uint64_t{1}, std::uint64_t{k},
               std::uint64_t{k * kJobsPerSession},
               std::string(matches == k
                               ? "ok (byte-identical)"
                               : "DIVERGED(" +
                                     std::to_string(k - matches) + ")"),
               union1});

  // At 7 workers per-session byte order is no longer pinned, but the
  // multiset of emitted lines must be exactly the 1-worker multiset.
  const auto mux7 = run_sessions(7, k, /*concurrent=*/true);
  const std::uint64_t union7 = sorted_union_digest(mux7);
  det.add_row({std::uint64_t{7}, std::uint64_t{k},
               std::uint64_t{k * kJobsPerSession},
               std::string(union7 == union1 ? "ok (same line multiset)"
                                            : "DIVERGED"),
               union7});
}

const harness::Registrar reg{{
    .name = "e17_concurrent_serving",
    .claim = "Event-loop serving: multiplexed sessions are byte-identical "
             "to solo runs at one worker and line-multiset-identical at "
             "seven",
    .axes = {"workers", "sessions"},
    .run = run,
}};

}  // namespace
