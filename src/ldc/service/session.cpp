#include "ldc/service/session.hpp"

#include <cerrno>
#include <fcntl.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>
#include <utility>

namespace ldc::service {

namespace {

using harness::Json;

/// Sets O_NONBLOCK and returns the flags found before (-1: not an fd).
int make_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  return flags;
}

bool is_socket(int fd) {
  struct stat st;
  return ::fstat(fd, &st) == 0 && S_ISSOCK(st.st_mode);
}

Json protocol_event(const char* name) {
  Json j = Json::object();
  j.add("event", name);
  return j;
}

/// The full result line: model-exact fields only, `tag` echoed when
/// non-empty.
Json protocol_result(const JobResult& r, const std::string& tag) {
  Json j = protocol_event("result");
  j.add("id", r.id);
  if (!tag.empty()) j.add("tag", tag);
  j.add("digest", r.digest);
  j.add("algorithm", r.algorithm);
  j.add("status", r.status);
  j.add("cached", r.cached);
  if (r.status == "ok") {
    j.add("valid", r.outcome.valid);
    j.add("n", std::uint64_t{r.outcome.n});
    j.add("colors", r.outcome.colors);
    j.add("palette", r.outcome.palette);
    j.add("rounds", r.outcome.rounds);
    j.add("messages", r.outcome.messages);
    j.add("bits", r.outcome.total_bits);
    j.add("color_digest", r.outcome.color_digest);
  } else if (!r.error.empty()) {
    j.add("error", r.error);
  }
  return j;
}

}  // namespace

EventSession::EventSession(int in_fd, int out_fd, Service& service,
                           std::size_t max_line_bytes,
                           std::function<void()> wake)
    : in_fd_(in_fd),
      out_fd_(out_fd),
      in_flags_(make_nonblocking(in_fd)),
      out_flags_(make_nonblocking(out_fd)),
      out_is_socket_(is_socket(out_fd)),
      service_(service),
      max_line_bytes_(max_line_bytes),
      wake_(std::move(wake)),
      gate_(std::make_shared<SessionGate>()) {}

EventSession::~EventSession() { close_fds(); }

void EventSession::close_fds() {
  if (in_fd_ < 0) return;
  // Reverse order of the constructor: when both descriptors share one open
  // file description, in_flags_ holds its flags from before either change.
  if (out_flags_ >= 0) ::fcntl(out_fd_, F_SETFL, out_flags_);
  if (in_flags_ >= 0) ::fcntl(in_fd_, F_SETFL, in_flags_);
  if (out_fd_ != in_fd_) ::close(out_fd_);
  ::close(in_fd_);
  in_fd_ = out_fd_ = -1;
}

bool EventSession::parse_blocked() const {
  std::lock_guard<std::mutex> lock(mu_);
  return drain_pending_ || input_done_;
}

bool EventSession::wants_read() const {
  std::lock_guard<std::mutex> lock(mu_);
  // Backpressure: input pauses while a slow reader owes half the output
  // cap, so only results already owed can reach kMaxOutbufBytes.
  return !drain_pending_ && !input_done_ &&
         outbuf_.size() - out_off_ < kMaxOutbufBytes / 2;
}

bool EventSession::wants_write() const {
  std::lock_guard<std::mutex> lock(mu_);
  return !write_dead_ && out_off_ < outbuf_.size();
}

bool EventSession::finished() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (write_dead_) return input_done_ && outstanding_ == 0;
  return bye_queued_ && out_off_ == outbuf_.size();
}

std::uint64_t EventSession::outstanding() const {
  std::lock_guard<std::mutex> lock(mu_);
  return outstanding_;
}

void EventSession::on_readable() {
  if (read_eof_ || parse_blocked()) return;
  // One chunk per readiness event, so the loop flushes output between
  // reads: a regular file is always readable and would otherwise hold
  // the loop until EOF.
  char buf[4096];
  const ssize_t n = ::read(in_fd_, buf, sizeof buf);
  if (n < 0 && (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK)) {
    return;
  }
  if (n <= 0) {
    // EOF, or a hard read error (the input is gone): either way the
    // outstanding jobs still drain before teardown.
    read_eof_ = true;
    pump();
    return;
  }
  std::size_t start = 0;
  const std::size_t len = static_cast<std::size_t>(n);
  if (discarding_line_) {
    // Drop bytes up to and including the newline that ends the
    // oversized line, then resume normal framing.
    while (start < len && buf[start] != '\n') ++start;
    if (start == len) return;  // still inside the oversized line
    discarding_line_ = false;
    ++start;
  }
  inbuf_.append(buf + start, len - start);
  // Oversized unterminated line: reject once, discard its remainder.
  if (inbuf_.size() > max_line_bytes_ &&
      inbuf_.find('\n') == std::string::npos) {
    inbuf_.clear();
    discarding_line_ = true;
    error_event("request line too long");
  }
  pump();
}

void EventSession::pump() {
  while (!parse_blocked()) {
    const std::size_t nl = inbuf_.find('\n');
    if (nl == std::string::npos) {
      if (!read_eof_) return;
      if (!inbuf_.empty()) {
        // A final line without a newline is still a request.
        std::string line;
        line.swap(inbuf_);
        handle_line(line);
        continue;  // handle_line may have blocked parsing (drain)
      }
      end_input();
      return;
    }
    std::string line = inbuf_.substr(0, nl);
    inbuf_.erase(0, nl + 1);
    if (line.size() > max_line_bytes_) {
      error_event("request line too long");
      continue;
    }
    handle_line(line);
  }
}

void EventSession::handle_line(const std::string& line) {
  Json req;
  try {
    req = Json::parse_line(line);
  } catch (const harness::JsonError& e) {
    error_event(std::string("bad request line: ") + e.what());
    return;
  }
  const Json* op = req.find("op");
  if (op == nullptr || op->kind() != Json::Kind::kString) {
    error_event("request needs a string 'op'");
    return;
  }
  const std::string& name = op->as_string();
  if (name == "submit") return do_submit(req);
  if (name == "cancel") return do_cancel(req);
  if (name == "pause") {
    // A worker can end input (output overflow) while this line is being
    // handled; a gate paused after that would never resume.
    std::lock_guard<std::mutex> lock(mu_);
    if (!input_done_) service_.pause_session(*gate_);
    append_locked(protocol_event("paused"));
    return;
  }
  if (name == "resume") {
    // Lock across resume + ack: a result released by this resume (a
    // worker can finish instantly) must not precede the "resumed" line,
    // or the session's stream stops being byte-deterministic.
    std::lock_guard<std::mutex> lock(mu_);
    service_.resume_session(*gate_);
    append_locked(protocol_event("resumed"));
    return;
  }
  if (name == "drain") {
    // Asynchronous: never blocks the loop thread. Parsing stays
    // suspended until the last outstanding result appends "drained".
    std::lock_guard<std::mutex> lock(mu_);
    if (outstanding_ == 0) {
      append_locked(protocol_event("drained"));
    } else {
      drain_pending_ = true;
    }
    return;
  }
  if (name == "stats") return do_stats(req);
  if (name == "shutdown") return end_input();
  error_event("unknown op '" + name + "'");
}

void EventSession::do_submit(const Json& req) {
  const Json* spec = req.find("job");
  if (spec == nullptr) {
    error_event("submit needs a 'job' object");
    return;
  }
  std::string tag;
  if (const Json* t = req.find("tag")) {
    if (t->kind() != Json::Kind::kString) {
      error_event("'tag' must be a string");
      return;
    }
    tag = t->as_string();
  }
  Job job;
  try {
    job = job_from_json(*spec);
  } catch (const JobSpecError& e) {
    error_event(e.what());
    return;
  }
  // Lock across submit + admitted so this job's result line (appended by
  // a worker under the same lock) cannot precede its admitted line.
  std::lock_guard<std::mutex> lock(mu_);
  const std::uint64_t local = next_local_++;
  SubmitOptions opts;
  opts.gate = gate_;
  auto self = shared_from_this();
  opts.on_result = [self, local, tag](const JobResult& r) {
    self->on_result(r, local, tag);
  };
  const Admission a = service_.submit(job, std::move(opts));
  if (a.admitted) {
    ++outstanding_;
    local_to_global_[local] = a.id;
  }
  Json j = protocol_event(a.admitted ? "admitted" : "rejected");
  j.add("id", local);
  if (!tag.empty()) j.add("tag", tag);
  if (a.admitted) {
    // The service's keying, not job.digest(): for corpus jobs it folds
    // in the resolved corpus content digest.
    j.add("digest", a.digest);
  } else {
    j.add("reason", a.reason);
  }
  append_locked(j);
}

void EventSession::do_cancel(const Json& req) {
  const Json* id = req.find("id");
  std::uint64_t value = 0;
  try {
    if (id != nullptr) value = id->as_uint();
  } catch (const harness::JsonError&) {
    id = nullptr;
  }
  if (id == nullptr) {
    error_event("cancel needs a numeric 'id'");
    return;
  }
  std::lock_guard<std::mutex> lock(mu_);
  bool found = false;
  auto it = local_to_global_.find(value);
  if (it != local_to_global_.end()) found = service_.cancel(it->second);
  Json j = protocol_event("cancel");
  j.add("id", value);
  j.add("found", found);
  append_locked(j);
}

void EventSession::do_stats(const Json& req) {
  bool counters_only = false;
  if (const Json* c = req.find("counters_only")) {
    counters_only = c->kind() == Json::Kind::kBool && c->as_bool();
  }
  // Service-wide snapshot: the shared core has one queue, one cache and
  // one pool, so stats are global by design (documented in README).
  Json j = protocol_event("stats");
  j.add("metrics", service_.stats(counters_only));
  std::lock_guard<std::mutex> lock(mu_);
  append_locked(j);
}

void EventSession::end_input() {
  inbuf_.clear();
  read_eof_ = true;
  std::lock_guard<std::mutex> lock(mu_);
  end_input_locked();
}

void EventSession::end_input_locked() {
  if (!input_done_) {
    input_done_ = true;
    // No request can resume this session any more: resume its gate
    // silently so its queued jobs still run and "bye" follows them.
    service_.resume_session(*gate_);
  }
  if (outstanding_ == 0 && !bye_queued_) {
    append_locked(protocol_event("bye"));
    bye_queued_ = true;
  }
}

void EventSession::mark_write_dead_locked() {
  write_dead_ = true;
  outbuf_.clear();
  out_off_ = 0;
  end_input_locked();
}

void EventSession::on_result(const JobResult& r, std::uint64_t local_id,
                             const std::string& tag) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    JobResult local = r;
    local.id = local_id;
    append_locked(protocol_result(local, tag));
    local_to_global_.erase(local_id);
    --outstanding_;
    if (outstanding_ == 0 && drain_pending_) {
      drain_pending_ = false;
      append_locked(protocol_event("drained"));
      resume_parse_ = true;  // the loop's next tick() re-enters pump()
    }
    if (input_done_) end_input_locked();  // "bye" once nothing is left
  }
  wake_();
}

void EventSession::tick() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!resume_parse_) return;
    resume_parse_ = false;
  }
  pump();
}

void EventSession::on_writable() {
  std::lock_guard<std::mutex> lock(mu_);
  while (!write_dead_ && out_off_ < outbuf_.size()) {
    const char* data = outbuf_.data() + out_off_;
    const std::size_t len = outbuf_.size() - out_off_;
    // Sockets take send() with MSG_NOSIGNAL: a peer that closed mid-stream
    // must surface as EPIPE here, not as a process-killing SIGPIPE. Pipes
    // and files take write(2); ldc_serve ignores SIGPIPE for them.
    const ssize_t n = out_is_socket_
                          ? ::send(out_fd_, data, len, MSG_NOSIGNAL)
                          : ::write(out_fd_, data, len);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      // Client unreachable: drop buffered output, stop reading, let
      // outstanding jobs finish (their results are discarded).
      mark_write_dead_locked();
      return;
    }
    out_off_ += static_cast<std::size_t>(n);
  }
  if (out_off_ == outbuf_.size()) {
    outbuf_.clear();
    out_off_ = 0;
  } else if (out_off_ > (std::size_t{1} << 16)) {
    outbuf_.erase(0, out_off_);
    out_off_ = 0;
  }
}

void EventSession::append_locked(const Json& event) {
  if (write_dead_) return;
  if (outbuf_.size() - out_off_ > kMaxOutbufBytes) {
    // Slow reader overflow: same terminal state as a broken pipe.
    mark_write_dead_locked();
    return;
  }
  outbuf_ += event.dump();
  outbuf_.push_back('\n');
}

void EventSession::error_event(std::string message) {
  Json j = protocol_event("error");
  j.add("message", std::move(message));
  std::lock_guard<std::mutex> lock(mu_);
  append_locked(j);
}

}  // namespace ldc::service
