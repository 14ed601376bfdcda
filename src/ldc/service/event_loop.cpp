#include "ldc/service/event_loop.hpp"

#include <cerrno>
#include <cstring>
#include <fcntl.h>
#include <poll.h>
#include <stdexcept>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>
#include <utility>

namespace ldc::service {

namespace {

constexpr int kPollIntervalMs = 200;  ///< poll timeout; bounds stop latency

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

}  // namespace

EventLoopServer::EventLoopServer(const ServiceConfig& cfg,
                                 EventLoopOptions opts)
    : opts_(opts), service_(cfg) {
  int fds[2];
  if (::pipe2(fds, O_NONBLOCK | O_CLOEXEC) != 0) fail("pipe");
  wake_rd_ = fds[0];
  wake_wr_ = fds[1];
}

EventLoopServer::~EventLoopServer() {
  // Join the workers FIRST: after shutdown() no result callback can run,
  // so sessions (and the wake pipe their callbacks write to) are safe to
  // tear down.
  service_.shutdown();
  {
    std::lock_guard<std::mutex> lock(mu_);
    sessions_.clear();
    for (int fd : pending_) ::close(fd);
    pending_.clear();
  }
  if (listener_ >= 0) ::close(listener_);
  if (!socket_path_.empty()) ::unlink(socket_path_.c_str());
  ::close(wake_rd_);
  ::close(wake_wr_);
}

void EventLoopServer::wake() {
  const char byte = 1;
  // Non-blocking: EAGAIN means the pipe already holds a pending wakeup.
  [[maybe_unused]] const ssize_t n = ::write(wake_wr_, &byte, 1);
}

void EventLoopServer::listen_on(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof addr.sun_path) {
    throw std::runtime_error("socket path too long: " + path);
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);

  listener_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listener_ < 0) fail("socket");
  ::unlink(path.c_str());  // stale socket from a previous run
  if (::bind(listener_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) !=
      0) {
    fail("bind " + path);
  }
  if (::listen(listener_, opts_.backlog) != 0) fail("listen");
  socket_path_ = path;
}

void EventLoopServer::adopt(int fd) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    pending_.push_back(fd);
  }
  wake();
}

void EventLoopServer::stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  wake();
}

std::size_t EventLoopServer::session_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sessions_.size();
}

std::shared_ptr<EventSession> EventLoopServer::add_session_locked(
    int in_fd, int out_fd) {
  sessions_.push_back(std::make_shared<EventSession>(
      in_fd, out_fd, service_, opts_.max_line_bytes, [this] { wake(); }));
  return sessions_.back();
}

void EventLoopServer::accept_ready() {
  for (;;) {
    // Close-on-exec, like every descriptor the server opens: no program
    // the process might start can hold a client's socket open after its
    // session closed it.
    const int fd = ::accept4(listener_, nullptr, nullptr, SOCK_CLOEXEC);
    if (fd < 0) {
      // EINTR: retry. ECONNABORTED: the client gave up between the
      // handshake and our accept — its problem, not a server error.
      if (errno == EINTR || errno == ECONNABORTED) continue;
      return;  // EAGAIN/EWOULDBLOCK or a transient error: next poll round
    }
    std::lock_guard<std::mutex> lock(mu_);
    pending_.push_back(fd);
  }
}

void EventLoopServer::run() { loop(nullptr); }

void EventLoopServer::run_session(int in_fd, int out_fd) {
  std::shared_ptr<EventSession> session;
  {
    std::lock_guard<std::mutex> lock(mu_);
    session = add_session_locked(in_fd, out_fd);
  }
  loop(session.get());
}

void EventLoopServer::loop(const EventSession* until) {
  std::vector<pollfd> fds;
  std::vector<std::shared_ptr<EventSession>> live;
  bool stopping = false;
  for (;;) {
    if (!stopping &&
        (opts_.stop_flag != nullptr && *opts_.stop_flag != 0)) {
      stop();
    }
    // Snapshot under the lock; poll and dispatch outside it (worker
    // callbacks never touch the loop's containers, only sessions).
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stop_ && !stopping) {
        stopping = true;
        if (listener_ >= 0) {
          ::close(listener_);
          listener_ = -1;
          if (!socket_path_.empty()) {
            ::unlink(socket_path_.c_str());
            socket_path_.clear();
          }
        }
        for (auto& s : sessions_) s->end_input();
      }
      for (int fd : pending_) {
        if (stopping || sessions_.size() >= opts_.max_sessions) {
          ::close(fd);  // immediate EOF; the client can retry later
        } else {
          add_session_locked(fd, fd);
        }
      }
      pending_.clear();
      // Reap finished sessions (goodbye flushed, or dead with no jobs).
      // Their descriptors close now, not when a worker drops its last
      // reference, so the client sees EOF right after "bye".
      std::erase_if(sessions_, [](const std::shared_ptr<EventSession>& s) {
        if (!s->finished()) return false;
        s->close_fds();
        return true;
      });
      if (until != nullptr ? until->finished()
                           : stopping && sessions_.empty()) {
        return;
      }
      live.assign(sessions_.begin(), sessions_.end());
    }

    fds.clear();
    fds.push_back({wake_rd_, POLLIN, 0});
    if (listener_ >= 0) fds.push_back({listener_, POLLIN, 0});
    const std::size_t session_base = fds.size();
    for (const auto& s : live) {
      // One entry per direction (a socket appears twice). A direction the
      // session does not want is fd -1, which poll(2) skips.
      fds.push_back({s->wants_read() ? s->in_fd() : -1, POLLIN, 0});
      fds.push_back({s->wants_write() ? s->out_fd() : -1, POLLOUT, 0});
    }

    const int rc = ::poll(fds.data(), fds.size(), kPollIntervalMs);
    if (rc < 0 && errno != EINTR) fail("poll");

    if (rc > 0) {
      if ((fds[0].revents & POLLIN) != 0) {
        char buf[256];
        while (::read(wake_rd_, buf, sizeof buf) > 0) {
        }
      }
      if (session_base == 2 && (fds[1].revents & POLLIN) != 0) {
        accept_ready();
      }
      // Any revents (HUP, ERR, NVAL included) goes to the handler, whose
      // read or write then reports the descriptor's state.
      for (std::size_t i = 0; i < live.size(); ++i) {
        if (fds[session_base + 2 * i + 1].revents != 0) {
          live[i]->on_writable();
        }
        if (fds[session_base + 2 * i].revents != 0) live[i]->on_readable();
      }
    }
    // Always tick: a worker may have finished a drain between polls.
    for (const auto& s : live) s->tick();
  }
}

}  // namespace ldc::service
