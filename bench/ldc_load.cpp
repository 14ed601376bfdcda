// ldc_load: open-loop load generator for a running `ldc_serve --socket`.
//
//   ldc_serve --socket /tmp/ldc.sock --workers 4 &
//   ldc_load --socket /tmp/ldc.sock --rate 500 --duration-ms 2000
//   ldc_load --socket /tmp/ldc.sock --connections 8 --zipf-s 1.2
//            --cancel-every 10 --json
//
// Offered load is open-loop (arrivals never wait for responses), job
// popularity is Zipf-skewed over a hot set to exercise the result cache,
// and every connection drains to "bye" before the report prints — so
// sent/admitted/results always reconcile. Output is a human table by
// default, one JSON object with --json.
#include <clocale>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "load_gen.hpp"

namespace {

void usage(std::FILE* out) {
  std::fprintf(out,
               "usage: ldc_load --socket PATH [options]\n"
               "\n"
               "Open-loop load generator for ldc_serve's unix-socket\n"
               "frontend. Reports admission, result mix, goodput and\n"
               "latency percentiles.\n"
               "\n"
               "  --socket PATH       ldc_serve unix socket (required)\n"
               "  --connections N     concurrent sessions (default 4)\n"
               "  --rate R            offered submissions/s, all\n"
               "                      connections together (default 200)\n"
               "  --duration-ms N     send window (default 1000)\n"
               "  --hot-jobs N        distinct jobs in the hot set "
               "(default 32)\n"
               "  --zipf-s S          popularity skew, 0=uniform "
               "(default 1.1)\n"
               "  --cancel-every K    cancel every K-th submission "
               "(default off)\n"
               "  --deadline-every K  deadline on every K-th submission "
               "(default off)\n"
               "  --deadline-ms N     deadline budget (default 5)\n"
               "  --graph-n N         ring size of hot-set jobs "
               "(default 48)\n"
               "  --seed N            workload seed (default 1)\n"
               "  --json              one JSON object instead of text\n"
               "  --help              this text\n");
}

bool parse_u64(const char* s, std::uint64_t& out) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (errno != 0 || end == s || *end != '\0') return false;
  out = static_cast<std::uint64_t>(v);
  return true;
}

bool parse_double(const char* s, double& out) {
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(s, &end);
  if (errno != 0 || end == s || *end != '\0') return false;
  out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  ldc::bench::LoadOptions opt;
  bool json = false;
  std::uint64_t u = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "ldc_load: %s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    auto need_u64 = [&](std::uint64_t& out) {
      if (!parse_u64(value(), out)) {
        std::fprintf(stderr, "ldc_load: bad %s\n", arg.c_str());
        std::exit(2);
      }
    };
    if (arg == "--help" || arg == "-h") {
      usage(stdout);
      return 0;
    }
    if (arg == "--socket") {
      opt.socket_path = value();
    } else if (arg == "--connections") {
      need_u64(u);
      if (u == 0) { std::fprintf(stderr, "ldc_load: bad --connections\n");
                    return 2; }
      opt.connections = u;
    } else if (arg == "--rate") {
      if (!parse_double(value(), opt.rate) || opt.rate <= 0) {
        std::fprintf(stderr, "ldc_load: bad --rate\n");
        return 2;
      }
    } else if (arg == "--duration-ms") {
      need_u64(opt.duration_ms);
    } else if (arg == "--hot-jobs") {
      need_u64(u);
      if (u == 0) { std::fprintf(stderr, "ldc_load: bad --hot-jobs\n");
                    return 2; }
      opt.hot_jobs = u;
    } else if (arg == "--zipf-s") {
      if (!parse_double(value(), opt.zipf_s) || opt.zipf_s < 0) {
        std::fprintf(stderr, "ldc_load: bad --zipf-s\n");
        return 2;
      }
    } else if (arg == "--cancel-every") {
      need_u64(u);
      opt.cancel_every = static_cast<std::uint32_t>(u);
    } else if (arg == "--deadline-every") {
      need_u64(u);
      opt.deadline_every = static_cast<std::uint32_t>(u);
    } else if (arg == "--deadline-ms") {
      need_u64(opt.deadline_ms);
    } else if (arg == "--graph-n") {
      need_u64(u);
      if (u == 0 || u > (1u << 24)) {
        std::fprintf(stderr, "ldc_load: bad --graph-n\n");
        return 2;
      }
      opt.graph_n = static_cast<std::uint32_t>(u);
    } else if (arg == "--seed") {
      need_u64(opt.seed);
    } else if (arg == "--json") {
      json = true;
    } else {
      std::fprintf(stderr, "ldc_load: unknown option '%s'\n", arg.c_str());
      usage(stderr);
      return 2;
    }
  }
  if (opt.socket_path.empty()) {
    std::fprintf(stderr, "ldc_load: --socket is required\n");
    usage(stderr);
    return 2;
  }

  ldc::bench::LoadReport rep;
  try {
    rep = ldc::bench::run_open_loop(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ldc_load: %s\n", e.what());
    return 1;
  }

  if (json) {
    ldc::harness::Json j = ldc::harness::Json::object();
    j.add("offered_rate", opt.rate);
    j.add("connections", std::uint64_t{opt.connections});
    j.add("sent", rep.sent);
    j.add("admitted", rep.admitted);
    j.add("rejected", rep.rejected);
    j.add("results", rep.results);
    j.add("ok", rep.ok);
    j.add("cached", rep.cached);
    j.add("cancelled", rep.cancelled);
    j.add("deadline_missed", rep.deadline_missed);
    j.add("failed", rep.failed);
    j.add("errors", rep.errors);
    j.add("wall_ms", rep.wall_ms);
    j.add("goodput_per_s", rep.goodput);
    j.add("p50_us", rep.p50_us);
    j.add("p99_us", rep.p99_us);
    j.add("p999_us", rep.p999_us);
    ldc::harness::Json per = ldc::harness::Json::array();
    for (std::size_t c = 0; c < rep.per_conn.size(); ++c) {
      ldc::harness::Json pc = ldc::harness::Json::object();
      pc.add("connection", std::uint64_t{c});
      pc.add("sent", rep.per_conn[c].sent);
      pc.add("ok", rep.per_conn[c].ok);
      pc.add("goodput_per_s", rep.per_conn[c].goodput);
      per.push_back(std::move(pc));
    }
    j.add("per_connection", std::move(per));
    std::printf("%s\n", j.dump().c_str());
    return 0;
  }

  std::printf("offered     %.1f/s over %zu connection(s), %llu ms window\n",
              opt.rate, opt.connections,
              static_cast<unsigned long long>(opt.duration_ms));
  std::printf("sent        %llu (admitted %llu, rejected %llu)\n",
              static_cast<unsigned long long>(rep.sent),
              static_cast<unsigned long long>(rep.admitted),
              static_cast<unsigned long long>(rep.rejected));
  std::printf(
      "results     %llu (ok %llu, cached %llu, cancelled %llu, "
      "deadline_missed %llu, failed %llu, protocol errors %llu)\n",
      static_cast<unsigned long long>(rep.results),
      static_cast<unsigned long long>(rep.ok),
      static_cast<unsigned long long>(rep.cached),
      static_cast<unsigned long long>(rep.cancelled),
      static_cast<unsigned long long>(rep.deadline_missed),
      static_cast<unsigned long long>(rep.failed),
      static_cast<unsigned long long>(rep.errors));
  std::printf("goodput     %.1f ok/s over %.1f ms wall\n", rep.goodput,
              rep.wall_ms);
  std::printf("latency     p50 %.0f us, p99 %.0f us, p99.9 %.0f us\n",
              rep.p50_us, rep.p99_us, rep.p999_us);
  std::printf("conn        sent        ok   goodput/s\n");
  for (std::size_t c = 0; c < rep.per_conn.size(); ++c) {
    std::printf("%4zu  %10llu  %8llu  %10.1f\n", c,
                static_cast<unsigned long long>(rep.per_conn[c].sent),
                static_cast<unsigned long long>(rep.per_conn[c].ok),
                rep.per_conn[c].goodput);
  }
  return 0;
}
