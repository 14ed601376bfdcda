// One protocol session: the line-delimited JSON protocol over one byte
// stream, multiplexed by the poll loop in event_loop.hpp over a *shared*
// Service. It is the only implementation of the protocol: a --socket
// connection is a session that reads and writes one socket, and
// ldc_serve's stdin/stdout transport is a session that reads fd 0 and
// writes fd 1.
//
// Requests ({"op": ...}), one object per line:
//   submit   {"op":"submit","job":{...},"tag":"..."} -> admitted|rejected
//   cancel   {"op":"cancel","id":N}                  -> cancel (found flag)
//   pause    {"op":"pause"}                          -> paused
//   resume   {"op":"resume"}                         -> resumed
//   drain    {"op":"drain"}                          -> drained
//   stats    {"op":"stats","counters_only":true}     -> stats
//   shutdown {"op":"shutdown"}                       -> bye
//
// Events carry "event": admitted, rejected, result, cancel, paused,
// resumed, drained, stats, error, bye. A malformed line or unknown op
// produces an error event and the session continues — bad input must
// never take the server down. Result lines carry only model-exact fields
// (no latencies).
//
// Responsibilities:
//  * Read framing: reassembles request lines across arbitrarily short
//    reads (the transport gives no framing guarantees beyond the byte
//    stream); a line longer than EventLoopOptions::max_line_bytes is a
//    typed error event and the excess is discarded up to the next
//    newline — hostile input never kills the session. A final line
//    without a newline is still handled at EOF.
//  * Write buffering: every emitted line is appended to a per-session
//    output buffer; only the event-loop thread writes, draining the
//    buffer on writability. Input pauses while half of kMaxOutbufBytes
//    is unwritten. A write error (client gone) or a buffer past the cap
//    makes the session write-dead: buffered output is discarded and
//    outstanding jobs finish silently.
//  * Session-local ids: submissions are numbered 1.. per session, and
//    results are routed back through per-job callbacks — the shared
//    Service's global ids never leak to clients.
//  * Ordering invariants: the session mutex is held across
//    submit+admitted (a result emitted by a worker can never precede its
//    own admitted line) and across resume+resumed-ack (a result released
//    by the resume can never precede the ack). With one worker and the
//    pause/submit/resume/drain discipline, a session's full byte stream
//    is therefore identical whether it runs alone or multiplexed with
//    any number of other sessions.
//  * Asynchronous drain: `drain` must not block the loop thread, so it
//    suspends request parsing until the session's outstanding count hits
//    zero (the last result emits the drained event and resumes parsing).
//  * Input-done: EOF, `shutdown`, server stop and a dead write all end
//    input the same way. The session resumes its gate without emitting a
//    line, so a paused session's queued jobs still run; their results
//    are emitted, then "bye", and the session is reaped once that flushed.
//
// Threading: on_readable/on_writable/tick/end_input/close_fds run on the
// loop thread only. Result callbacks run on worker threads and only
// touch mutex-guarded state plus the wake hook. The session is shared_ptr-
// managed; per-job callbacks keep it alive until its last result lands.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "ldc/service/service.hpp"

namespace ldc::service {

class EventSession : public std::enable_shared_from_this<EventSession> {
 public:
  /// Output buffered for a slow reader before the session is declared
  /// write-dead. Keeps one stuck client from holding the server's memory.
  static constexpr std::size_t kMaxOutbufBytes = std::size_t{16} << 20;

  /// Takes ownership of `in_fd` and `out_fd` (equal for a socket). Both
  /// are made non-blocking here; close_fds() restores each descriptor's
  /// file-status flags before closing it, since stdio descriptors share
  /// their open file descriptions with the parent shell. `wake` is
  /// invoked — possibly from worker threads — whenever output becomes
  /// available or a state transition needs the loop's attention; it must
  /// be callable until the session is destroyed.
  EventSession(int in_fd, int out_fd, Service& service,
               std::size_t max_line_bytes, std::function<void()> wake);
  ~EventSession();

  EventSession(const EventSession&) = delete;
  EventSession& operator=(const EventSession&) = delete;

  int in_fd() const { return in_fd_; }
  int out_fd() const { return out_fd_; }

  // ---- event-loop thread interface ----------------------------------
  void on_readable();   ///< read one chunk, reassemble + handle lines
  void on_writable();   ///< flush as much buffered output as the fd takes
  void tick();          ///< resume parsing after a worker unblocked it
  void end_input();     ///< EOF, `shutdown` or server stop: input-done
  void close_fds();     ///< restore flags and close (idempotent)

  bool wants_read() const;
  bool wants_write() const;
  /// True once the session can be reaped: goodbye flushed, or the
  /// output is dead and no jobs are outstanding. Stays true.
  bool finished() const;

  // ---- observability (tests) ----------------------------------------
  std::uint64_t outstanding() const;

 private:
  void pump();                              // parse complete inbuf lines
  void handle_line(const std::string& line);
  void do_submit(const harness::Json& req);
  void do_cancel(const harness::Json& req);
  void do_stats(const harness::Json& req);
  void end_input_locked();                  // every input-done path
  void mark_write_dead_locked();            // write error/overflow
  void on_result(const JobResult& r, std::uint64_t local_id,
                 const std::string& tag);   // worker threads
  void append_locked(const harness::Json& event);  // mu_ held
  void error_event(std::string message);
  bool parse_blocked() const;

  int in_fd_;
  int out_fd_;
  const int in_flags_;   ///< F_GETFL at adoption (-1: not a valid fd)
  const int out_flags_;
  const bool out_is_socket_;  ///< send(MSG_NOSIGNAL), else write(2)
  Service& service_;
  const std::size_t max_line_bytes_;
  const std::function<void()> wake_;
  const std::shared_ptr<SessionGate> gate_;

  // Read-side state: loop thread only, no lock.
  std::string inbuf_;
  bool discarding_line_ = false;  ///< oversized line: drop until newline
  bool read_eof_ = false;

  // Cross-thread state.
  mutable std::mutex mu_;
  std::string outbuf_;            ///< framed lines awaiting the fd
  std::size_t out_off_ = 0;       ///< consumed prefix of outbuf_
  std::uint64_t next_local_ = 1;  ///< session-local submission ids
  std::unordered_map<std::uint64_t, std::uint64_t> local_to_global_;
  std::uint64_t outstanding_ = 0; ///< admitted, result not yet appended
  bool drain_pending_ = false;    ///< drained event owed at outstanding 0
  bool input_done_ = false;       ///< no more requests (EOF/shutdown/dead)
  bool bye_queued_ = false;
  bool write_dead_ = false;       ///< client unreachable; output discarded
  bool resume_parse_ = false;     ///< tick() must pump (drain finished)
};

}  // namespace ldc::service
