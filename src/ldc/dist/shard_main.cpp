// ldc_shard: one worker process of the distributed engine.
//
// Spawn mode (what ldc_coord and the Coordinator class use) passes an
// already-connected socket with --fd; listen-mode deployments start K of
// these by hand with --connect-unix/--connect-tcp pointing at the
// coordinator (README quickstart). Either way the worker HELLOs with its
// corpus content digest, verifies the corpus content, and then serves
// rounds until kShutdown.
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include <arpa/inet.h>
#include <netdb.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "ldc/dist/wire.hpp"
#include "ldc/dist/worker.hpp"
#include "ldc/runtime/shard.hpp"

namespace {

void usage(std::FILE* out) {
  std::fprintf(out,
               "usage: ldc_shard --corpus FILE "
               "(--fd N | --connect-unix PATH | --connect-tcp HOST:PORT)\n"
               "\n"
               "One shard worker of the distributed engine. Connects to an\n"
               "ldc_coord coordinator, announces its corpus content digest,\n"
               "and serves broadcast rounds for its assigned vertex range\n"
               "until told to shut down.\n");
}

int connect_unix(const std::string& path) {
  sockaddr_un ua{};
  if (path.size() >= sizeof ua.sun_path) {
    std::fprintf(stderr, "ldc_shard: unix socket path too long\n");
    return -1;
  }
  ua.sun_family = AF_UNIX;
  std::strncpy(ua.sun_path, path.c_str(), sizeof ua.sun_path - 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0 ||
      ::connect(fd, reinterpret_cast<sockaddr*>(&ua), sizeof ua) != 0) {
    std::fprintf(stderr, "ldc_shard: connect %s: %s\n", path.c_str(),
                 std::strerror(errno));
    if (fd >= 0) ::close(fd);
    return -1;
  }
  return fd;
}

int connect_tcp(const std::string& hostport) {
  const std::size_t colon = hostport.rfind(':');
  if (colon == std::string::npos || colon + 1 == hostport.size()) {
    std::fprintf(stderr, "ldc_shard: --connect-tcp needs HOST:PORT\n");
    return -1;
  }
  const std::string host = hostport.substr(0, colon);
  const std::string port = hostport.substr(colon + 1);
  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* res = nullptr;
  const int rc = ::getaddrinfo(host.c_str(), port.c_str(), &hints, &res);
  if (rc != 0) {
    std::fprintf(stderr, "ldc_shard: resolve %s: %s\n", hostport.c_str(),
                 ::gai_strerror(rc));
    return -1;
  }
  int fd = -1;
  for (addrinfo* ai = res; ai != nullptr; ai = ai->ai_next) {
    fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) continue;
    if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) break;
    ::close(fd);
    fd = -1;
  }
  ::freeaddrinfo(res);
  if (fd < 0) {
    std::fprintf(stderr, "ldc_shard: connect %s: %s\n", hostport.c_str(),
                 std::strerror(errno));
  }
  return fd;
}

}  // namespace

int main(int argc, char** argv) {
  std::string corpus;
  std::string conn_unix;
  std::string conn_tcp;
  long fd_arg = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "ldc_shard: %s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--help" || arg == "-h") {
      usage(stdout);
      return 0;
    }
    if (arg == "--corpus") {
      corpus = value();
    } else if (arg == "--fd") {
      try {
        fd_arg = static_cast<long>(
            ldc::parse_positive_u64("--fd", value(), 1 << 20));
      } catch (const std::invalid_argument& e) {
        std::fprintf(stderr, "ldc_shard: %s\n", e.what());
        return 2;
      }
    } else if (arg == "--connect-unix") {
      conn_unix = value();
    } else if (arg == "--connect-tcp") {
      conn_tcp = value();
    } else {
      std::fprintf(stderr, "ldc_shard: unknown option '%s'\n", arg.c_str());
      usage(stderr);
      return 2;
    }
  }
  if (corpus.empty()) {
    std::fprintf(stderr, "ldc_shard: --corpus is required\n");
    return 2;
  }
  const int transports = (fd_arg >= 0 ? 1 : 0) +
                         (conn_unix.empty() ? 0 : 1) +
                         (conn_tcp.empty() ? 0 : 1);
  if (transports != 1) {
    std::fprintf(stderr,
                 "ldc_shard: exactly one of --fd / --connect-unix / "
                 "--connect-tcp is required\n");
    return 2;
  }

  // The coordinator detects worker death via EOF; dying to a SIGPIPE
  // because the *coordinator* died first would mask the real error.
  std::signal(SIGPIPE, SIG_IGN);

  int fd = static_cast<int>(fd_arg);
  if (!conn_unix.empty()) fd = connect_unix(conn_unix);
  if (!conn_tcp.empty()) fd = connect_tcp(conn_tcp);
  if (fd < 0) return 1;

  try {
    ldc::dist::ShardWorker worker(corpus, fd);
    return worker.run();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ldc_shard: %s\n", e.what());
    return 1;
  }
}
