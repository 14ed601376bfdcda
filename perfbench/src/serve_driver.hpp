// The serve-zipf workload's open-loop driver: one thread, busy-polling
// poll() over all sessions of one `ldc_serve --socket` server.
//
// Arrivals follow a fixed-rate schedule made from the seed before timing
// starts; each request is timed from its due time (not from the moment it
// was written), so a stall in the generator or the server shows up as
// latency of every request behind it, and the generator's own lateness is
// reported separately.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ldc/harness/json.hpp"
#include "ldc/service/job.hpp"

namespace pb {

namespace harness = ldc::harness;
namespace service = ldc::service;

/// Offered load, submissions per second over all sessions: about a quarter
/// of what two workers sustain on the reference host (README.md). At half,
/// a third of arrivals queue and the median sits on the edge between
/// queued and unqueued cache hits.
constexpr double kServeRate = 150.0;
constexpr std::size_t kHotSpecs = 32;  ///< hot-set size
constexpr double kZipfS = 1.1;         ///< hot-set popularity skew
constexpr double kColdShare = 0.3;     ///< share of never-repeated specs

struct Arrival {
  std::uint64_t due_ns = 0;  ///< offset from the start of the window
  std::uint32_t spec = 0;    ///< index into ServePlan::specs
};

struct ServePlan {
  std::vector<service::Job> specs;  ///< [0, hot) hot set, then cold specs
  std::size_t hot = 0;
  std::vector<Arrival> arrivals;
};

/// kServeRate arrivals per second for `seconds`. A pure function of its
/// arguments: the same seed gives the same specs and arrival times.
ServePlan make_serve_plan(std::uint64_t seed, double seconds);

/// The spec the generator draws: one of greedy/luby/linial/kw/d1lc on a
/// 16-regular graph with n in {256, 1024}.
service::Job serve_spec(std::size_t algo, bool large, std::uint64_t graph_seed);

/// The submit line for a spec (newline included).
std::string submit_line(const service::Job& job);

struct RequestRecord {
  std::uint32_t spec = 0;
  std::uint32_t session = 0;
  std::uint64_t due_ns = 0;       ///< absolute steady-clock times
  std::uint64_t sent_ns = 0;
  std::uint64_t admitted_ns = 0;  ///< 0 until admitted
  std::uint64_t result_ns = 0;    ///< 0 until the result line arrived
  bool rejected = false;
  std::string status;             ///< result status (ok, failed, ...)
  bool cached = false;
  bool valid = false;
  std::uint64_t n = 0, rounds = 0, messages = 0, bits = 0, color_digest = 0;
  bool done() const { return rejected || result_ns != 0; }
};

/// Sessions of one server, multiplexed by one thread.
class ServeClient {
 public:
  /// Connects `sessions` sessions, retrying while the server starts (up
  /// to connect_timeout_ms).
  ServeClient(const std::string& socket_path, std::size_t sessions,
              int connect_timeout_ms = 10000);
  ~ServeClient();
  ServeClient(const ServeClient&) = delete;
  ServeClient& operator=(const ServeClient&) = delete;

  /// Writes the submit line on `session`; returns the request's index in
  /// requests(). `due_ns` is the absolute time the request was due.
  std::size_t submit(std::size_t session, std::uint32_t spec,
                     std::uint64_t due_ns, const std::string& line);

  /// Waits up to timeout_ns for input and consumes everything readable.
  /// Throws on a server that closed a session early.
  void pump(std::int64_t timeout_ns);

  /// Busy-polls until every submitted request is done; throws past
  /// timeout.
  void wait_all(double timeout_s);

  /// Asks for counters-only stats on session 0 and waits for them.
  harness::Json stats(double timeout_s);

  /// Sends shutdown on every session and waits for bye or EOF.
  void shutdown(double timeout_s);

  std::size_t sessions() const { return sessions_.size(); }
  const std::vector<RequestRecord>& requests() const { return reqs_; }
  std::uint64_t protocol_errors() const { return errors_; }

 private:
  struct Session {
    int fd = -1;
    std::string inbuf;
    std::vector<std::size_t> by_local_id;  ///< local id - 1 -> request
    bool bye = false;
  };
  void on_line(Session& s, const std::string& line);

  std::vector<Session> sessions_;
  std::vector<RequestRecord> reqs_;
  std::uint64_t errors_ = 0;
  bool have_stats_ = false;
  harness::Json stats_;
};

struct DriveResult {
  std::uint64_t start_ns = 0;        ///< window start (first due time)
  std::uint64_t end_ns = 0;          ///< last result
  std::size_t first = 0, last = 0;   ///< request index range of the window
  std::vector<double> lateness_ms;   ///< sent - due, per request
};

/// Runs the plan's arrivals open loop, alternating sessions, then drains.
DriveResult drive_open_loop(ServeClient& client, const ServePlan& plan,
                            const std::vector<std::string>& lines,
                            double drain_timeout_s);

}  // namespace pb
