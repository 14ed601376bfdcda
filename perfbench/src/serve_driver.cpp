#include "serve_driver.hpp"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <thread>

#include "host.hpp"
#include "spans.hpp"
#include "stats.hpp"

namespace pb {
namespace {

const char* const kAlgos[] = {"greedy", "luby", "linial", "kw", "d1lc"};
constexpr std::size_t kAlgoCount = 5;

int connect_unix(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof addr.sun_path) {
    throw std::runtime_error("socket path too long: " + path);
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) throw std::runtime_error("socket() failed");
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

void send_all(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN) {
        pollfd p{fd, POLLOUT, 0};
        ::poll(&p, 1, 100);
        continue;
      }
      throw std::runtime_error(std::string("send to ldc_serve failed: ") +
                               std::strerror(errno));
    }
    off += static_cast<std::size_t>(n);
  }
}

std::uint64_t json_u64(const harness::Json& ev, const char* key) {
  const harness::Json* v = ev.find(key);
  return v == nullptr ? 0 : v->as_uint();
}

}  // namespace

service::Job serve_spec(std::size_t algo, bool large,
                        std::uint64_t graph_seed) {
  service::Job job;
  job.algorithm = kAlgos[algo % kAlgoCount];
  job.graph.family = "regular";
  job.graph.n = large ? 1024 : 256;
  job.graph.d = 16;
  job.graph.seed = graph_seed;
  job.seed = graph_seed;
  return job;
}

ServePlan make_serve_plan(std::uint64_t seed, double seconds) {
  ServePlan plan;
  plan.hot = kHotSpecs;
  std::uint64_t rng = seed * 0x9e3779b97f4a7c15ull + 0x5e57e;
  // Hot rank r cycles through the algorithms, then the sizes, so every
  // seed has the same mix of job kinds and only the graphs differ.
  for (std::size_t r = 0; r < kHotSpecs; ++r) {
    plan.specs.push_back(
        serve_spec(r, (r / kAlgoCount) % 2 == 1, splitmix64(rng)));
  }
  std::vector<double> cdf(kHotSpecs);
  double total = 0;
  for (std::size_t k = 0; k < kHotSpecs; ++k) {
    total += 1.0 / std::pow(double(k + 1), kZipfS);
    cdf[k] = total;
  }
  for (double& c : cdf) c /= total;

  const auto count = static_cast<std::size_t>(std::llround(kServeRate * seconds));
  const double gap_ns = 1e9 / kServeRate;
  plan.arrivals.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    Arrival a;
    a.due_ns = static_cast<std::uint64_t>(std::llround(double(i) * gap_ns));
    if (uniform01(rng) < kColdShare) {
      const std::size_t algo = splitmix64(rng) % kAlgoCount;
      const bool large = (splitmix64(rng) & 1) != 0;
      a.spec = static_cast<std::uint32_t>(plan.specs.size());
      plan.specs.push_back(serve_spec(algo, large, splitmix64(rng)));
    } else {
      const double u = uniform01(rng);
      a.spec = static_cast<std::uint32_t>(
          std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
      a.spec = std::min<std::uint32_t>(a.spec, std::uint32_t(kHotSpecs - 1));
    }
    plan.arrivals.push_back(a);
  }
  return plan;
}

std::string submit_line(const service::Job& job) {
  harness::Json req = harness::Json::object();
  req.add("op", "submit");
  req.add("job", service::job_to_json(job));
  std::string line = req.dump();
  line.push_back('\n');
  return line;
}

ServeClient::ServeClient(const std::string& socket_path, std::size_t sessions,
                         int connect_timeout_ms) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(connect_timeout_ms);
  while (sessions_.size() < sessions) {
    const int fd = connect_unix(socket_path);
    if (fd >= 0) {
      ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
      Session s;
      s.fd = fd;
      sessions_.push_back(std::move(s));
      continue;
    }
    check_interrupt();
    if (std::chrono::steady_clock::now() >= deadline) {
      for (Session& s : sessions_) ::close(s.fd);
      throw std::runtime_error("ldc_serve did not accept on " + socket_path);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

ServeClient::~ServeClient() {
  for (Session& s : sessions_) {
    if (s.fd >= 0) ::close(s.fd);
  }
}

std::size_t ServeClient::submit(std::size_t session, std::uint32_t spec,
                                std::uint64_t due_ns, const std::string& line) {
  Session& s = sessions_[session];
  RequestRecord r;
  r.spec = spec;
  r.session = static_cast<std::uint32_t>(session);
  r.due_ns = due_ns;
  r.sent_ns = now_ns();
  reqs_.push_back(r);
  s.by_local_id.push_back(reqs_.size() - 1);
  send_all(s.fd, line);
  return reqs_.size() - 1;
}

void ServeClient::on_line(Session& s, const std::string& line) {
  const std::uint64_t t = now_ns();
  harness::Json ev;
  try {
    ev = harness::Json::parse_line(line);
  } catch (const harness::JsonError&) {
    ++errors_;
    return;
  }
  const harness::Json* kind_j = ev.find("event");
  if (kind_j == nullptr) {
    ++errors_;
    return;
  }
  const std::string& kind = kind_j->as_string();
  if (kind == "stats") {
    stats_ = ev.at("metrics");
    have_stats_ = true;
    return;
  }
  if (kind == "bye") {
    s.bye = true;
    return;
  }
  if (kind != "admitted" && kind != "rejected" && kind != "result") {
    ++errors_;  // error events and anything unexpected
    return;
  }
  const std::uint64_t id = json_u64(ev, "id");
  if (id == 0 || id > s.by_local_id.size()) {
    ++errors_;
    return;
  }
  RequestRecord& r = reqs_[s.by_local_id[id - 1]];
  if (kind == "admitted") {
    r.admitted_ns = t;
  } else if (kind == "rejected") {
    r.rejected = true;
  } else {
    r.result_ns = t;
    r.status = ev.at("status").as_string();
    const harness::Json* cached = ev.find("cached");
    r.cached = cached != nullptr && cached->as_bool();
    const harness::Json* valid = ev.find("valid");
    r.valid = valid != nullptr && valid->as_bool();
    r.n = json_u64(ev, "n");
    r.rounds = json_u64(ev, "rounds");
    r.messages = json_u64(ev, "messages");
    r.bits = json_u64(ev, "bits");
    r.color_digest = json_u64(ev, "color_digest");
  }
}

void ServeClient::pump(std::int64_t timeout_ns) {
  std::vector<pollfd> fds;
  for (const Session& s : sessions_) fds.push_back({s.fd, POLLIN, 0});
  timespec ts{};
  timeout_ns = std::max<std::int64_t>(timeout_ns, 0);
  ts.tv_sec = timeout_ns / 1000000000;
  ts.tv_nsec = timeout_ns % 1000000000;
  const int rc = ::ppoll(fds.data(), fds.size(), &ts, nullptr);
  if (rc <= 0) return;  // timeout or EINTR: the caller re-checks its clock
  char buf[1 << 16];
  for (std::size_t i = 0; i < sessions_.size(); ++i) {
    if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
    Session& s = sessions_[i];
    for (;;) {
      const ssize_t n = ::read(s.fd, buf, sizeof buf);
      if (n < 0) {
        if (errno == EINTR) continue;
        break;  // EAGAIN: drained
      }
      if (n == 0) {
        if (!s.bye) throw std::runtime_error("ldc_serve closed a session");
        break;
      }
      s.inbuf.append(buf, static_cast<std::size_t>(n));
      std::size_t start = 0;
      for (std::size_t nl; (nl = s.inbuf.find('\n', start)) != std::string::npos;
           start = nl + 1) {
        on_line(s, s.inbuf.substr(start, nl - start));
      }
      s.inbuf.erase(0, start);
    }
  }
}

void ServeClient::wait_all(double timeout_s) {
  const std::uint64_t deadline = now_ns() + std::uint64_t(timeout_s * 1e9);
  for (;;) {
    const bool done = std::all_of(reqs_.begin(), reqs_.end(),
                                  [](const RequestRecord& r) { return r.done(); });
    if (done) return;
    check_interrupt();
    const std::uint64_t t = now_ns();
    if (t >= deadline) throw std::runtime_error("ldc_serve results overdue");
    pump(0);  // busy-poll: see drive_open_loop
  }
}

harness::Json ServeClient::stats(double timeout_s) {
  have_stats_ = false;
  send_all(sessions_[0].fd, "{\"op\":\"stats\",\"counters_only\":true}\n");
  const std::uint64_t deadline = now_ns() + std::uint64_t(timeout_s * 1e9);
  while (!have_stats_) {
    check_interrupt();
    const std::uint64_t t = now_ns();
    if (t >= deadline) throw std::runtime_error("ldc_serve stats overdue");
    pump(std::min<std::int64_t>(std::int64_t(deadline - t), 50000000));
  }
  return stats_;
}

void ServeClient::shutdown(double timeout_s) {
  for (Session& s : sessions_) send_all(s.fd, "{\"op\":\"shutdown\"}\n");
  const std::uint64_t deadline = now_ns() + std::uint64_t(timeout_s * 1e9);
  for (;;) {
    const bool all_bye = std::all_of(sessions_.begin(), sessions_.end(),
                                     [](const Session& s) { return s.bye; });
    if (all_bye) return;
    const std::uint64_t t = now_ns();
    if (t >= deadline) throw std::runtime_error("ldc_serve did not say bye");
    pump(std::min<std::int64_t>(std::int64_t(deadline - t), 50000000));
  }
}

DriveResult drive_open_loop(ServeClient& client, const ServePlan& plan,
                            const std::vector<std::string>& lines,
                            double drain_timeout_s) {
  DriveResult out;
  out.first = client.requests().size();
  // Start a little ahead so the first due time is not already late.
  out.start_ns = now_ns() + 1000000;
  std::size_t next = 0;
  while (next < plan.arrivals.size()) {
    check_interrupt();
    const Arrival& a = plan.arrivals[next];
    const std::uint64_t due = out.start_ns + a.due_ns;
    const std::uint64_t t = now_ns();
    if (t >= due) {
      client.submit(next % client.sessions(), a.spec, due, lines[next]);
      out.lateness_ms.push_back(double(t - due) / 1e6);
      ++next;
      continue;
    }
    // Busy-poll rather than sleep until the due time. On a VM a sleeping
    // thread's vCPU halts, and waking it again takes as long as the host's
    // load makes it. In four interleaved pairs of runs the median latency
    // read 0.46-1.32 ms with a sleeping driver and 0.37-0.43 ms with a
    // polling one.
    client.pump(0);
  }
  out.last = client.requests().size();
  client.wait_all(drain_timeout_s);
  for (std::size_t i = out.first; i < out.last; ++i) {
    out.end_ns = std::max(out.end_ns, client.requests()[i].result_ns);
  }
  return out;
}

}  // namespace pb
