// Open-loop load generator for the ldc_serve unix-socket frontend.
//
// Open-loop means arrivals follow a fixed schedule that does NOT wait for
// responses: if the server falls behind, requests queue up and latency
// grows — the honest way to measure a service under load (closed-loop
// clients self-throttle and hide queueing delay). Each connection runs
// its own slice of the offered rate with deterministic arrival times;
// job popularity follows a Zipf(s) distribution over a small hot set so
// the server's LRU ResultCache sees a realistic skewed mix, and optional
// cancel/deadline churn exercises the control path concurrently with
// submissions.
//
// One thread per connection owns both directions of its socket (poll
// with a timeout equal to the gap before the next scheduled send), so
// latency bookkeeping is thread-local: the j-th submission on a
// connection is session-local id j (the event-loop frontend numbers each
// session independently), which lets send timestamps live in a plain
// vector indexed by id. After the send window closes the client issues
// `shutdown` and drains until `bye`/EOF, so every admitted job's result
// is still collected and counted.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <cerrno>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "ldc/harness/json.hpp"
#include "ldc/service/job.hpp"

namespace ldc::bench {

struct LoadOptions {
  std::string socket_path;
  std::size_t connections = 4;
  double rate = 200.0;           ///< offered submissions/s (all connections)
  std::uint64_t duration_ms = 1000;  ///< send window length
  std::size_t hot_jobs = 32;     ///< distinct job specs in the hot set
  double zipf_s = 1.1;           ///< popularity skew (0 = uniform)
  std::uint32_t cancel_every = 0;    ///< cancel every k-th submit (0 = off)
  std::uint32_t deadline_every = 0;  ///< deadline on every k-th (0 = off)
  std::uint64_t deadline_ms = 5;
  std::uint32_t graph_n = 48;    ///< ring size of the hot-set jobs
  std::uint64_t seed = 1;
};

struct LoadReport {
  std::uint64_t sent = 0;        ///< submit requests written
  std::uint64_t admitted = 0;
  std::uint64_t rejected = 0;    ///< queue-full backpressure
  std::uint64_t results = 0;
  std::uint64_t ok = 0;
  std::uint64_t cached = 0;      ///< ok results served from the cache
  std::uint64_t cancelled = 0;
  std::uint64_t deadline_missed = 0;
  std::uint64_t failed = 0;
  std::uint64_t errors = 0;      ///< protocol error events
  double wall_ms = 0;            ///< send window + drain, wall clock
  double goodput = 0;            ///< ok results per second of wall time
  /// Submit->result latency: the send timestamp of the submit line to the
  /// arrival of its result line (NOT admission — the admitted event is not
  /// timestamped, so queueing delay ahead of admission is included).
  double p50_us = 0, p99_us = 0, p999_us = 0;
  /// Per-connection breakdown (index = connection), for spotting a lane
  /// that starved while the aggregate looked healthy.
  struct PerConn {
    std::uint64_t sent = 0;
    std::uint64_t ok = 0;
    double goodput = 0;  ///< ok results per second of wall time
  };
  std::vector<PerConn> per_conn;
};

namespace loadgen_detail {

inline std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// Cumulative Zipf(s) distribution over ranks 0..n-1.
inline std::vector<double> zipf_cdf(std::size_t n, double s) {
  std::vector<double> cdf(n);
  double total = 0;
  for (std::size_t k = 0; k < n; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), s);
    cdf[k] = total;
  }
  for (double& c : cdf) c /= total;
  return cdf;
}

inline std::size_t sample(const std::vector<double>& cdf,
                          std::uint64_t& rng) {
  const double u =
      static_cast<double>(splitmix64(rng) >> 11) * 0x1.0p-53;
  const auto it = std::lower_bound(cdf.begin(), cdf.end(), u);
  return static_cast<std::size_t>(it - cdf.begin());
}

/// The rank-r member of the hot set: a rank-determined algorithm and
/// seed, so distinct ranks have distinct digests and repeats of a rank
/// are exact cache hits. Each runs on a generated ring.
inline service::Job hot_job(const LoadOptions& opt, std::size_t rank) {
  static const char* kAlgos[] = {"greedy", "luby", "linial", "kw"};
  service::Job job;
  job.algorithm = kAlgos[rank % 4];
  job.seed = 1000 + rank;
  job.graph.family = "ring";
  job.graph.n = opt.graph_n;
  return job;
}

inline int connect_unix(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("ldc_load: socket failed");
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof addr.sun_path) {
    ::close(fd);
    throw std::runtime_error("ldc_load: socket path too long");
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    throw std::runtime_error("ldc_load: connect " + path + ": " +
                             std::strerror(errno));
  }
  return fd;
}

inline void send_all(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return;  // server gone; the read side will see EOF
    }
    off += static_cast<std::size_t>(n);
  }
}

/// Nearest-rank percentile of an ascending-sorted sample: the element
/// with 1-based rank ceil(p * N), clamped to [1, N]. Empty input reports
/// 0. This is the standard convention — p99.9 of 100 samples is rank 100
/// (the maximum), where the floor-index form `sorted[size_t(p * (N-1))]`
/// would round down to sorted[98] and under-report the tail.
inline double percentile_sorted(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double n = static_cast<double>(sorted.size());
  const auto rank = static_cast<std::size_t>(std::ceil(p * n));
  const std::size_t idx =
      std::min(std::max<std::size_t>(rank, 1), sorted.size()) - 1;
  return sorted[idx];
}

struct ConnStats {
  std::uint64_t sent = 0, admitted = 0, rejected = 0, results = 0, ok = 0,
                cached = 0, cancelled = 0, deadline_missed = 0, failed = 0,
                errors = 0;
  std::vector<double> latency_us;
};

}  // namespace loadgen_detail

/// Runs the open-loop workload against a listening ldc_serve socket.
/// Blocks until every connection has drained (shutdown -> bye).
inline LoadReport run_open_loop(const LoadOptions& opt) {
  using Clock = std::chrono::steady_clock;
  namespace d = loadgen_detail;

  const std::vector<double> cdf =
      d::zipf_cdf(std::max<std::size_t>(opt.hot_jobs, 1),
                  std::max(opt.zipf_s, 0.0));
  const double per_conn_interval_s =
      static_cast<double>(opt.connections) / std::max(opt.rate, 1e-9);

  std::vector<d::ConnStats> stats(opt.connections);
  std::vector<std::thread> threads;
  const auto start = Clock::now();
  const auto window_end =
      start + std::chrono::milliseconds(opt.duration_ms);

  for (std::size_t c = 0; c < opt.connections; ++c) {
    threads.emplace_back([&, c] {
      d::ConnStats& st = stats[c];
      const int fd = d::connect_unix(opt.socket_path);
      std::uint64_t rng = opt.seed * 0x5851f42d4c957f2dull + c + 1;
      std::vector<Clock::time_point> sent_at;  // index = local id - 1
      std::string inbuf;
      bool saw_bye = false;

      auto consume = [&](bool until_eof) {
        char buf[4096];
        for (;;) {
          const ssize_t n = ::read(fd, buf, sizeof buf);
          if (n < 0) {
            if (errno == EINTR) continue;
            break;  // EAGAIN (poll said readable but race) or error
          }
          if (n == 0) return true;  // EOF
          inbuf.append(buf, static_cast<std::size_t>(n));
          std::size_t nl;
          while ((nl = inbuf.find('\n')) != std::string::npos) {
            const std::string line = inbuf.substr(0, nl);
            inbuf.erase(0, nl + 1);
            try {
              const harness::Json ev = harness::Json::parse_line(line);
              const std::string& kind = ev.at("event").as_string();
              if (kind == "result") {
                ++st.results;
                const std::uint64_t id = ev.at("id").as_uint();
                if (id >= 1 && id <= sent_at.size()) {
                  st.latency_us.push_back(
                      std::chrono::duration<double, std::micro>(
                          Clock::now() - sent_at[id - 1])
                          .count());
                }
                const std::string& status = ev.at("status").as_string();
                if (status == "ok") {
                  ++st.ok;
                  const harness::Json* cached = ev.find("cached");
                  if (cached != nullptr && cached->as_bool()) ++st.cached;
                } else if (status == "cancelled") {
                  ++st.cancelled;
                } else if (status == "deadline_missed") {
                  ++st.deadline_missed;
                } else {
                  ++st.failed;
                }
              } else if (kind == "admitted") {
                ++st.admitted;
              } else if (kind == "rejected") {
                ++st.rejected;
              } else if (kind == "error") {
                ++st.errors;
              } else if (kind == "bye") {
                saw_bye = true;
              }
            } catch (const harness::JsonError&) {
              ++st.errors;  // torn line: count, keep draining
            }
          }
          if (!until_eof) return false;  // one chunk per readiness
        }
        return false;
      };

      // ---- send window: fixed schedule, reads interleaved -------------
      for (;;) {
        const auto now = Clock::now();
        if (now >= window_end) break;
        const auto next_send =
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(
                            static_cast<double>(st.sent) *
                            per_conn_interval_s));
        if (now >= next_send) {
          const std::size_t rank = d::sample(cdf, rng);
          service::Job job = d::hot_job(opt, rank);
          const std::uint64_t id = st.sent + 1;  // session-local id
          if (opt.deadline_every != 0 && id % opt.deadline_every == 0) {
            job.deadline_ms = opt.deadline_ms;
          }
          harness::Json req = harness::Json::object();
          req.add("op", "submit");
          req.add("job", service::job_to_json(job));
          std::string wire = req.dump();
          wire.push_back('\n');
          if (opt.cancel_every != 0 && id % opt.cancel_every == 0) {
            harness::Json cancel = harness::Json::object();
            cancel.add("op", "cancel");
            cancel.add("id", id);
            wire += cancel.dump();
            wire.push_back('\n');
          }
          sent_at.push_back(Clock::now());
          ++st.sent;
          d::send_all(fd, wire);
          continue;  // schedule may already owe the next send (backlog)
        }
        const auto wait_until = std::min(next_send, window_end);
        const auto wait_ms =
            std::chrono::duration_cast<std::chrono::milliseconds>(
                wait_until - now)
                .count();
        pollfd pfd{fd, POLLIN, 0};
        const int rc =
            ::poll(&pfd, 1, static_cast<int>(std::max<long long>(
                                wait_ms, 0)));
        if (rc > 0 && (pfd.revents & (POLLIN | POLLHUP)) != 0) {
          if (consume(false)) break;  // premature EOF: server went away
        }
      }

      // ---- drain: ask for shutdown, read until bye/EOF ----------------
      d::send_all(fd, "{\"op\":\"shutdown\"}\n");
      while (!saw_bye) {
        pollfd pfd{fd, POLLIN, 0};
        if (::poll(&pfd, 1, 10000) <= 0) break;  // hung server: give up
        if (consume(false)) break;
      }
      ::close(fd);
    });
  }
  for (auto& t : threads) t.join();
  const double wall_ms = std::chrono::duration<double, std::milli>(
                             Clock::now() - start)
                             .count();

  LoadReport rep;
  std::vector<double> latencies;
  for (const auto& st : stats) {
    rep.sent += st.sent;
    rep.admitted += st.admitted;
    rep.rejected += st.rejected;
    rep.results += st.results;
    rep.ok += st.ok;
    rep.cached += st.cached;
    rep.cancelled += st.cancelled;
    rep.deadline_missed += st.deadline_missed;
    rep.failed += st.failed;
    rep.errors += st.errors;
    latencies.insert(latencies.end(), st.latency_us.begin(),
                     st.latency_us.end());
  }
  rep.wall_ms = wall_ms;
  rep.goodput = wall_ms > 0 ? 1000.0 * double(rep.ok) / wall_ms : 0.0;
  rep.per_conn.reserve(stats.size());
  for (const auto& st : stats) {
    LoadReport::PerConn pc;
    pc.sent = st.sent;
    pc.ok = st.ok;
    pc.goodput = wall_ms > 0 ? 1000.0 * double(st.ok) / wall_ms : 0.0;
    rep.per_conn.push_back(pc);
  }
  std::sort(latencies.begin(), latencies.end());
  rep.p50_us = loadgen_detail::percentile_sorted(latencies, 0.50);
  rep.p99_us = loadgen_detail::percentile_sorted(latencies, 0.99);
  rep.p999_us = loadgen_detail::percentile_sorted(latencies, 0.999);
  return rep;
}

}  // namespace ldc::bench
