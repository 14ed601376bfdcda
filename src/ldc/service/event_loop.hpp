// The serving frontend: one poll(2) loop thread multiplexes any number of
// EventSessions over ONE shared Service (one queue, one worker pool, one
// result cache for every client). Sessions come from a listening unix
// socket (listen_on + run), from adopt(), or — ldc_serve's stdin/stdout
// transport — from run_session(), which serves one descriptor pair until
// that session has finished.
//
// Structure per iteration:
//   1. Under the lock: start stopping if asked, turn pending fds (adopted
//      or accepted) into sessions — beyond max_sessions the fd is closed
//      at once (the client sees EOF) — and reap finished() sessions,
//      closing their descriptors.
//   2. poll() over {wake pipe, listener, each session's input and output
//      descriptor} with a bounded timeout (so a stop flag flipped by a
//      signal handler is still observed promptly).
//   3. Drain the wake pipe (workers write one byte when a session gained
//      output or finished a drain — the write is non-blocking and a full
//      pipe means a wakeup is already pending).
//   4. Accept until EAGAIN into the pending list. EINTR/ECONNABORTED are
//      non-fatal.
//   5. Dispatch readability/writability to sessions and tick() each one
//      (a worker may have unblocked its parsing).
//
// Shutdown: when the stop flag is set (or stop() is called) the listener
// closes, every session ends its input as if its client sent EOF —
// outstanding jobs finish, paused ones included, and flush — and run()
// returns once no sessions remain. The destructor shuts the Service down
// (joining workers) before any session teardown, so no result callback
// can fire into a dead loop.
#pragma once

#include <csignal>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "ldc/service/session.hpp"

namespace ldc::service {

struct EventLoopOptions {
  int backlog = 128;                ///< listen(2) backlog
  std::size_t max_sessions = 1024;  ///< beyond this, accepts are refused
  std::size_t max_line_bytes = 1 << 20;  ///< longer request lines error out
  /// Optional external stop request (e.g. a signal handler's flag);
  /// polled every iteration. May be null.
  const volatile std::sig_atomic_t* stop_flag = nullptr;
};

class EventLoopServer {
 public:
  EventLoopServer(const ServiceConfig& cfg, EventLoopOptions opts);
  ~EventLoopServer();

  EventLoopServer(const EventLoopServer&) = delete;
  EventLoopServer& operator=(const EventLoopServer&) = delete;

  /// Binds + listens on a unix socket path (unlinking a stale one).
  /// Throws std::runtime_error on failure. Call at most once, before
  /// run().
  void listen_on(const std::string& path);

  /// Hands an already-connected stream socket to the loop (takes
  /// ownership). Thread-safe; may be called while the loop is running.
  void adopt(int fd);

  /// Runs the loop on the calling thread until stop. Returns after every
  /// session has finished (all outstanding jobs emitted and flushed).
  void run();

  /// Runs the loop on the calling thread with one more session, reading
  /// `in_fd` and writing `out_fd` (ldc_serve's stdin/stdout: 0 and 1;
  /// equal for a socket), until that session has finished; takes
  /// ownership of both. On return the descriptors' file-status flags are
  /// restored and both are closed. Use instead of run(), not alongside.
  void run_session(int in_fd, int out_fd);

  /// Requests shutdown from any thread (idempotent).
  void stop();

  Service& service() { return service_; }
  std::size_t session_count() const;

 private:
  void wake();
  void accept_ready();
  /// The one place sessions are made. mu_ held.
  std::shared_ptr<EventSession> add_session_locked(int in_fd, int out_fd);
  /// run()/run_session(): loops until stopped and empty, or until
  /// `until` (when non-null) has finished.
  void loop(const EventSession* until);

  const EventLoopOptions opts_;
  Service service_;  // declared before sessions_: workers outlive no session

  int listener_ = -1;
  std::string socket_path_;
  int wake_rd_ = -1;
  int wake_wr_ = -1;

  mutable std::mutex mu_;  // guards sessions_/pending_/stop_ (loop + adopt/stop)
  std::vector<std::shared_ptr<EventSession>> sessions_;
  std::vector<int> pending_;  ///< adopted/accepted fds awaiting a session
  bool stop_ = false;
};

}  // namespace ldc::service
