// ldc_serve: the coloring service as a line-delimited JSON server.
//
// Default transport is stdin/stdout — `ldc_serve < script.jsonl` — which
// composes with shell pipelines and is what CI smoke-tests. With
// --socket PATH it listens on a unix socket instead, multiplexing many
// concurrent client sessions over ONE shared Service (one queue, one
// worker pool, one result cache); each session sees its own submission
// numbering and a byte-deterministic stream at one worker. Both
// transports are sessions on the same poll(2) event loop: stdin/stdout is
// one session that reads fd 0 and writes fd 1.
//
// SIGTERM/SIGINT set a stop flag the loop polls; they are installed
// without SA_RESTART, so they also cut the loop's poll() short. Stopping
// ends every session's input exactly like EOF: queued jobs finish (a
// paused session's too), their results are emitted, "bye" is written,
// exit 0. SIGPIPE is ignored, so a vanished stdout reader makes the
// session write-dead instead of killing the process.
#include <cctype>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include <fcntl.h>
#include <unistd.h>

#include "ldc/runtime/shard.hpp"
#include "ldc/service/event_loop.hpp"

namespace {

volatile std::sig_atomic_t g_stop = 0;

void on_signal(int) { g_stop = 1; }

void install_signals() {
  struct sigaction sa;
  std::memset(&sa, 0, sizeof sa);
  sa.sa_handler = on_signal;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;  // no SA_RESTART: a signal cuts the loop's poll() short
  sigaction(SIGTERM, &sa, nullptr);
  sigaction(SIGINT, &sa, nullptr);
  std::signal(SIGPIPE, SIG_IGN);
}

void usage(std::FILE* out) {
  std::fprintf(out,
               "usage: ldc_serve [options]\n"
               "\n"
               "Serves coloring jobs as line-delimited JSON on stdin/stdout\n"
               "(or a unix socket). One request object per line in, one\n"
               "event object per line out; EOF or SIGTERM drains and exits.\n"
               "\n"
               "  --workers N         worker lanes (0 = hardware threads; "
               "default 1)\n"
               "  --queue-capacity N  admission bound before backpressure "
               "(default 64)\n"
               "  --cache-bytes N     result-cache budget, 0 disables "
               "(default 65536)\n"
               "  --corpus-dir DIR    serve {\"graph\":{\"corpus\":NAME}} "
               "jobs from\n"
               "                      DIR/NAME.ldcg (mmap, shared across "
               "workers)\n"
               "  --socket PATH       listen on a unix socket instead of "
               "stdin\n"
               "                      (event loop; many concurrent sessions)\n"
               "  --backlog N         listen(2) backlog (default 128)\n"
               "  --max-sessions N    concurrent session cap (default 1024)\n"
               "  --help              this text\n");
}

/// Digits only: strtoull alone would take "-1" as its largest value.
bool parse_size(const char* s, std::size_t& out) {
  if (!std::isdigit(static_cast<unsigned char>(*s))) return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (errno != 0 || end == s || *end != '\0') return false;
  out = static_cast<std::size_t>(v);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  ldc::service::ServiceConfig cfg;
  ldc::service::EventLoopOptions opts;
  std::string socket_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "ldc_serve: %s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--help" || arg == "-h") {
      usage(stdout);
      return 0;
    }
    if (arg == "--workers") {
      // 0 = the default; the cap is the crew's (one lane, one thread).
      const char* text = value();
      if (!parse_size(text, cfg.workers) ||
          cfg.workers > ldc::ShardCrew::kMaxThreads) {
        std::fprintf(stderr,
                     "ldc_serve: --workers must be an integer in [0, %zu]; "
                     "got \"%s\"\n",
                     ldc::ShardCrew::kMaxThreads, text);
        return 2;
      }
    } else if (arg == "--queue-capacity") {
      if (!parse_size(value(), cfg.queue_capacity) ||
          cfg.queue_capacity == 0) {
        std::fprintf(stderr, "ldc_serve: bad --queue-capacity\n");
        return 2;
      }
    } else if (arg == "--cache-bytes") {
      if (!parse_size(value(), cfg.cache_bytes)) {
        std::fprintf(stderr, "ldc_serve: bad --cache-bytes\n");
        return 2;
      }
    } else if (arg == "--corpus-dir") {
      cfg.corpus_dir = value();
    } else if (arg == "--socket") {
      socket_path = value();
    } else if (arg == "--backlog") {
      std::size_t backlog = 0;
      if (!parse_size(value(), backlog) || backlog == 0 ||
          backlog > 65535) {
        std::fprintf(stderr, "ldc_serve: bad --backlog\n");
        return 2;
      }
      opts.backlog = static_cast<int>(backlog);
    } else if (arg == "--max-sessions") {
      if (!parse_size(value(), opts.max_sessions) ||
          opts.max_sessions == 0) {
        std::fprintf(stderr, "ldc_serve: bad --max-sessions\n");
        return 2;
      }
    } else {
      std::fprintf(stderr, "ldc_serve: unknown option '%s'\n", arg.c_str());
      usage(stderr);
      return 2;
    }
  }

  // A standard descriptor the caller closed would be reused by the event
  // loop's wake pipe and read as requests; park /dev/null there instead.
  for (int fd = STDIN_FILENO; fd <= STDERR_FILENO; ++fd) {
    if (::fcntl(fd, F_GETFD) < 0) ::open("/dev/null", O_RDWR);
  }
  install_signals();
  opts.stop_flag = &g_stop;
  try {
    ldc::service::EventLoopServer server(cfg, opts);
    if (socket_path.empty()) {
      server.run_session(STDIN_FILENO, STDOUT_FILENO);
    } else {
      server.listen_on(socket_path);
      std::fprintf(stderr, "ldc_serve: listening on %s\n",
                   socket_path.c_str());
      server.run();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ldc_serve: %s\n", e.what());
    return 1;
  }
  return 0;
}
