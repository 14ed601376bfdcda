// ldc_shard: one worker process of the distributed engine.
//
// A dist::Coordinator spawns K of these, each with an already-connected
// socket on --fd. The worker HELLOs with its corpus content digest,
// verifies the corpus content, and then serves rounds until kShutdown.
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <stdexcept>
#include <string>

#include "ldc/dist/worker.hpp"
#include "ldc/runtime/shard.hpp"

namespace {

void usage(std::FILE* out) {
  std::fprintf(out,
               "usage: ldc_shard --corpus FILE --fd N\n"
               "\n"
               "One shard worker of the distributed engine, spawned by a\n"
               "dist::Coordinator over a connected socket on fd N. It\n"
               "announces its corpus content digest and serves broadcast\n"
               "rounds for its assigned vertex range until told to shut\n"
               "down.\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::string corpus;
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
    } else {
      std::fprintf(stderr, "ldc_shard: unknown option '%s'\n", arg.c_str());
      usage(stderr);
      return 2;
    }
  }
  if (corpus.empty() || fd_arg < 0) {
    std::fprintf(stderr, "ldc_shard: --corpus and --fd are required\n");
    return 2;
  }

  // The coordinator detects worker death via EOF; dying to a SIGPIPE
  // because the *coordinator* died first would mask the real error.
  std::signal(SIGPIPE, SIG_IGN);

  try {
    ldc::dist::ShardWorker worker(corpus, static_cast<int>(fd_arg));
    return worker.run();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ldc_shard: %s\n", e.what());
    return 1;
  }
}
