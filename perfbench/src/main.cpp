// ldc_perfbench: runs one benchmark workload and prints its metrics.
//
//   ldc_perfbench --workload d1lc-serial --seed 1 --seconds 20 --trace 0
//
// Human-readable lines (fingerprint, each metric with unit and sample
// count) go first; the last line of standard output is one JSON object
// {"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
// end-to-end metrics; --trace 1 reports the per-layer metrics and writes
// the spans as Chrome trace_event JSON under --out-dir.
//
// Exit codes: 0 measured, 1 the run failed (set-up error, dead server or
// worker, interrupt), 2 bad usage or a build unfit to measure.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>

#include "host.hpp"
#include "ldc/harness/json.hpp"
#include "workloads.hpp"

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: ldc_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--out-dir DIR]\n"
               "                     [--rev REV] [--dirty 0|1|unknown]\n"
               "workloads:");
  for (const pb::WorkloadInfo& w : pb::workloads()) {
    std::fprintf(stderr, " %s", w.name);
  }
  std::fprintf(stderr, "\n");
}

bool parse_u64(const std::string& s, std::uint64_t& out) {
  if (s.empty() || s.find_first_not_of("0123456789") != std::string::npos) {
    return false;
  }
  out = std::strtoull(s.c_str(), nullptr, 10);
  return true;
}

std::string exe_dir(const char* argv0) {
  const std::string self = argv0;
  const std::size_t slash = self.rfind('/');
  return slash == std::string::npos ? "." : self.substr(0, slash);
}

}  // namespace

int main(int argc, char** argv) {
  pb::RunOptions opt;
  opt.bin_dir = exe_dir(argv[0]);
  std::string rev = "unknown", dirty = "unknown";
  std::uint64_t u = 0;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) {
      usage();
      return 2;
    }
    const std::string val = argv[++i];
    if (arg == "--workload") {
      opt.workload = val;
      have_workload = true;
    } else if (arg == "--seed" && parse_u64(val, u)) {
      opt.seed = u;
    } else if (arg == "--seconds" && parse_u64(val, u) && u > 0) {
      opt.seconds = double(u);
    } else if (arg == "--trace" && (val == "0" || val == "1")) {
      opt.trace = val == "1";
    } else if (arg == "--out-dir") {
      opt.out_dir = val;
    } else if (arg == "--fail-after-ops" && parse_u64(val, u)) {
      opt.fail_after_ops = u;
    } else if (arg == "--rev") {
      rev = val;
    } else if (arg == "--dirty") {
      dirty = val;
    } else {
      std::fprintf(stderr, "ldc_perfbench: bad argument %s %s\n", arg.c_str(),
                   val.c_str());
      usage();
      return 2;
    }
  }
  if (!have_workload) {
    usage();
    return 2;
  }
  const std::string unfit = pb::unfit_build_reason();
  if (!unfit.empty()) {
    std::fprintf(stderr, "ldc_perfbench: refusing to measure a %s\n",
                 unfit.c_str());
    return 2;
  }
  pb::install_interrupt_handlers();

  pb::SpanRecorder rec(opt.trace);
  pb::RunResult res;
  try {
    res = pb::run_workload(opt, rec);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "ldc_perfbench: %s\n", e.what());
    usage();
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ldc_perfbench: %s: %s\n", opt.workload.c_str(),
                 e.what());
    return 1;
  }

  using ldc::harness::Json;
  Json host = pb::fingerprint(rev, dirty);
  const auto& metrics = opt.trace ? res.per_layer : res.end_to_end;
  for (const pb::Metric& m : res.per_layer) {
    if (m.name == "host.mem_probe_ns") host.add("mem_probe_ns", m.value);
  }
  std::printf("# workload %s seed %llu seconds %.0f trace %d tail p%d\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0, res.tail_percentile);
  std::printf("# host %s\n", host.dump().c_str());
  std::printf("# %-26s %14s  %-6s %s\n", "metric", "value", "unit", "samples");
  for (const pb::Metric& m : metrics) {
    std::printf("# %-26s %14.6g  %-6s %zu%s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.samples, m.gated ? "" : " (not gated)");
  }
  const double failed_frac =
      res.attempted == 0 ? 0.0 : double(res.failed) / double(res.attempted);
  std::printf("# %-26s %14.6g  %-6s %llu\n", "failed_frac", failed_frac,
              "ratio", static_cast<unsigned long long>(res.attempted));

  if (opt.trace) {
    Json meta = Json::object();
    meta.add("workload", opt.workload);
    meta.add("seed", opt.seed);
    meta.add("host", host);
    const std::string path = opt.out_dir + "/trace-" + opt.workload + "-" +
                             std::to_string(opt.seed) + ".json";
    std::ofstream out(path);
    out << rec.to_chrome(std::move(meta)).dump() << "\n";
    if (!out) {
      std::fprintf(stderr, "ldc_perfbench: cannot write %s\n", path.c_str());
      return 1;
    }
    std::printf("# spans %zu written to %s\n", rec.spans().size(),
                path.c_str());
  }

  Json values = Json::object();
  for (const pb::Metric& m : metrics) {
    if (!m.gated) continue;
    Json v = Json::object();
    v.add("value", m.value);
    v.add("unit", m.unit);
    values.add(m.name, std::move(v));
  }
  Json result = Json::object();
  result.add("correct", res.failed == 0 && res.attempted > 0);
  result.add("attempted", res.attempted);
  result.add("failed", res.failed);
  result.add("metrics", std::move(values));
  std::printf("%s\n", result.dump().c_str());
  return 0;
}
