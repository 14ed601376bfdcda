// ldc_coord: run one coloring job on the distributed engine.
//
// Loads a corpus, brings up K `ldc_shard` worker processes (spawned over
// socketpairs by default, or accepted on --listen-unix/--listen-tcp for
// manually started workers), runs one algorithm from the service
// registry with every communication round executed by the workers, and
// prints the outcome — plus the logical cross-shard traffic and the
// physical wire counters — as text or JSON.
//
//   ldc_gen --family gnp --n 20000 --p 0.0008 --out g.ldcg
//   ldc_coord --corpus g.ldcg --algorithm linial --workers 4
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "ldc/dist/coordinator.hpp"
#include "ldc/harness/json.hpp"
#include "ldc/runtime/shard.hpp"
#include "ldc/service/algorithms.hpp"

namespace {

void usage(std::FILE* out) {
  std::fprintf(
      out,
      "usage: ldc_coord --corpus FILE [options]\n"
      "\n"
      "Runs one coloring job with every communication round executed by\n"
      "K ldc_shard worker processes (the distributed engine). Colors,\n"
      "metrics and trace digests are byte-identical to the serial engine.\n"
      "\n"
      "  --algorithm NAME      service registry id (default linial;\n"
      "                        greedy|luby|linial|kw|d1lc)\n"
      "  --workers N           worker processes (default: LDC_DIST_WORKERS\n"
      "                        or the hardware fallback, max %zu)\n"
      "  --seed N              algorithm seed (default 1)\n"
      "  --param K=V           integer algorithm parameter (repeatable)\n"
      "  --heartbeat-ms N      worker-silence tolerance (default 30000)\n"
      "  --attach-timeout-ms N handshake deadline (default 10000)\n"
      "  --shard-bin PATH      ldc_shard binary (default: LDC_SHARD_BIN or\n"
      "                        next to this executable)\n"
      "  --listen-unix PATH    accept externally started workers on a\n"
      "                        unix socket instead of spawning\n"
      "  --listen-tcp PORT     accept workers on a TCP port\n"
      "  --json                machine-readable output\n"
      "  --help                this text\n",
      ldc::dist::kMaxDistWorkers);
}

}  // namespace

int main(int argc, char** argv) {
  std::string corpus;
  std::string algorithm = "linial";
  ldc::dist::CoordinatorOptions opt;
  ldc::service::Job job;
  bool json = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      auto value = [&]() -> const char* {
        if (i + 1 >= argc) {
          throw std::invalid_argument("ldc_coord: " + arg + " needs a value");
        }
        return argv[++i];
      };
      if (arg == "--help" || arg == "-h") {
        usage(stdout);
        return 0;
      }
      if (arg == "--corpus") {
        corpus = value();
      } else if (arg == "--algorithm") {
        algorithm = value();
      } else if (arg == "--workers") {
        opt.workers = static_cast<std::size_t>(ldc::parse_positive_u64(
            "--workers", value(), ldc::dist::kMaxDistWorkers));
      } else if (arg == "--seed") {
        job.seed = ldc::parse_positive_u64(
            "--seed", value(), std::uint64_t(-1));
      } else if (arg == "--param") {
        const std::string kv = value();
        const std::size_t eq = kv.find('=');
        if (eq == std::string::npos || eq == 0) {
          throw std::invalid_argument("--param needs K=V; got \"" + kv +
                                      "\"");
        }
        const std::string key = "--param " + kv.substr(0, eq);
        job.params.emplace_back(
            kv.substr(0, eq),
            ldc::parse_positive_u64(key.c_str(), kv.c_str() + eq + 1,
                                    std::uint64_t(-1)));
      } else if (arg == "--heartbeat-ms") {
        opt.heartbeat_ms = ldc::parse_positive_u64(
            "--heartbeat-ms", value(), 86400000ull);
      } else if (arg == "--attach-timeout-ms") {
        opt.attach_timeout_ms = ldc::parse_positive_u64(
            "--attach-timeout-ms", value(), 86400000ull);
      } else if (arg == "--shard-bin") {
        opt.shard_binary = value();
      } else if (arg == "--listen-unix") {
        opt.listen_unix = value();
      } else if (arg == "--listen-tcp") {
        opt.listen_tcp = static_cast<std::uint16_t>(
            ldc::parse_positive_u64("--listen-tcp", value(), 65535));
      } else if (arg == "--json") {
        json = true;
      } else {
        std::fprintf(stderr, "ldc_coord: unknown option '%s'\n",
                     arg.c_str());
        usage(stderr);
        return 2;
      }
    }
    if (corpus.empty()) {
      throw std::invalid_argument("--corpus is required");
    }
    job.algorithm = algorithm;
    job.normalize();

    const ldc::service::AlgorithmInfo* algo =
        ldc::service::AlgorithmRegistry::instance().find(algorithm);
    if (algo == nullptr) {
      std::string names;
      for (const auto* a :
           ldc::service::AlgorithmRegistry::instance().all()) {
        names += (names.empty() ? "" : "|") + a->name;
      }
      throw std::invalid_argument("unknown algorithm '" + algorithm +
                                  "' (have " + names + ")");
    }

    ldc::dist::Coordinator coord(corpus, opt);
    ldc::service::ExecContext exec;
    exec.engine = ldc::Network::Engine::kDist;
    exec.dist = &coord;
    const ldc::service::JobOutcome out =
        algo->run(coord.corpus_graph(), job, exec);
    const ldc::ShardTraffic traffic = coord.traffic();
    const ldc::dist::WireStats wire = coord.wire_stats();

    if (json) {
      ldc::harness::Json j = ldc::harness::Json::object();
      j.add("algorithm", algorithm);
      j.add("workers", std::uint64_t{coord.shards()});
      j.add("valid", out.valid);
      j.add("n", out.n);
      j.add("colors", out.colors);
      j.add("palette", out.palette);
      j.add("rounds", out.rounds);
      j.add("messages", out.messages);
      j.add("total_bits", out.total_bits);
      j.add("color_digest", out.color_digest);
      j.add("cross_shard_messages", traffic.messages);
      j.add("cross_shard_bits", traffic.bits);
      j.add("frames_sent", wire.frames_sent);
      j.add("frames_received", wire.frames_received);
      j.add("bytes_sent", wire.bytes_sent);
      j.add("bytes_received", wire.bytes_received);
      std::printf("%s\n", j.dump().c_str());
    } else {
      std::printf("algorithm        %s\n", algorithm.c_str());
      std::printf("workers          %zu\n", coord.shards());
      std::printf("valid            %s\n", out.valid ? "yes" : "NO");
      std::printf("n                %u\n", out.n);
      std::printf("colors           %llu (palette %llu)\n",
                  static_cast<unsigned long long>(out.colors),
                  static_cast<unsigned long long>(out.palette));
      std::printf("rounds           %llu\n",
                  static_cast<unsigned long long>(out.rounds));
      std::printf("messages         %llu (%llu bits)\n",
                  static_cast<unsigned long long>(out.messages),
                  static_cast<unsigned long long>(out.total_bits));
      std::printf("color digest     %llu\n",
                  static_cast<unsigned long long>(out.color_digest));
      std::printf("cross-shard      %llu msgs, %llu bits (logical)\n",
                  static_cast<unsigned long long>(traffic.messages),
                  static_cast<unsigned long long>(traffic.bits));
      std::printf("wire             %llu+%llu frames, %llu+%llu bytes "
                  "(sent+received)\n",
                  static_cast<unsigned long long>(wire.frames_sent),
                  static_cast<unsigned long long>(wire.frames_received),
                  static_cast<unsigned long long>(wire.bytes_sent),
                  static_cast<unsigned long long>(wire.bytes_received));
    }
    return out.valid ? 0 : 1;
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "ldc_coord: %s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ldc_coord: %s\n", e.what());
    return 1;
  }
}
