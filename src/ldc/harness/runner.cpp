#include "ldc/harness/runner.hpp"

#include <chrono>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>

#include "ldc/harness/registry.hpp"
#include "ldc/harness/sink.hpp"

namespace ldc::harness {
namespace {

constexpr const char* kUsage = R"(usage: ldc_bench [options]

selection
  --list                 list registered experiments and exit
  --filter SUBSTR        run experiments whose name/claim contains SUBSTR
                         (repeatable; default: run all)

execution
  --smoke                shrunk parameter sweeps (CI scale)
  --engine serial|sharded
  --shards N             shard count (implies --engine sharded)

output
  --out DIR              write results.jsonl, csv/, tables/ under DIR
  --no-tables            suppress table printing on stdout

baselines
  --write-baseline FILE  snapshot this run as the committed baseline
  --baseline FILE        baseline to compare against
  --check                diff this run against --baseline; exit 1 on drift
  --wall-tolerance X     wall-clock tolerance factor (default 1000; 0 = off)

exit codes: 0 ok, 1 drift/failure, 2 usage error
)";

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::string require_value(int argc, const char* const* argv, int& i,
                          const std::string& flag) {
  if (i + 1 >= argc) {
    throw std::invalid_argument(flag + " requires a value");
  }
  return argv[++i];
}

}  // namespace

CliOptions parse_cli(int argc, const char* const* argv) {
  CliOptions o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--list") {
      o.list = true;
    } else if (arg == "--filter") {
      o.filters.push_back(require_value(argc, argv, i, arg));
    } else if (arg == "--all") {
      // run-everything is the default; the flag documents intent
    } else if (arg == "--smoke") {
      o.smoke = true;
    } else if (arg == "--engine") {
      const std::string v = require_value(argc, argv, i, arg);
      if (v == "sharded") {
        o.sharded = true;
      } else if (v == "serial") {
        o.sharded = false;
      } else {
        throw std::invalid_argument("--engine must be serial or sharded");
      }
    } else if (arg == "--shards") {
      const std::string v = require_value(argc, argv, i, arg);
      char* end = nullptr;
      const unsigned long n = std::strtoul(v.c_str(), &end, 10);
      if (end == v.c_str() || *end != '\0' || n == 0 || n > 1024) {
        throw std::invalid_argument("--shards expects an integer in [1, 1024]");
      }
      o.shards = n;
      o.sharded = true;
    } else if (arg == "--out") {
      o.out_dir = require_value(argc, argv, i, arg);
    } else if (arg == "--no-tables") {
      o.print_tables = false;
    } else if (arg == "--write-baseline") {
      o.write_baseline_path = require_value(argc, argv, i, arg);
    } else if (arg == "--baseline") {
      o.baseline_path = require_value(argc, argv, i, arg);
    } else if (arg == "--check") {
      o.check = true;
    } else if (arg == "--wall-tolerance") {
      const std::string v = require_value(argc, argv, i, arg);
      char* end = nullptr;
      const double x = std::strtod(v.c_str(), &end);
      if (end == v.c_str() || *end != '\0' || x < 0) {
        throw std::invalid_argument("--wall-tolerance expects a factor >= 0");
      }
      o.baseline_options.wall_tolerance = x;
    } else if (arg == "--help" || arg == "-h") {
      throw std::invalid_argument("help");
    } else {
      throw std::invalid_argument("unknown option '" + arg + "'");
    }
  }
  if (o.check && o.baseline_path.empty()) {
    throw std::invalid_argument("--check requires --baseline FILE");
  }
  return o;
}

int run_cli(const CliOptions& options, std::ostream& out, std::ostream& err) {
  const Registry& registry = Registry::instance();

  if (options.list) {
    const auto all = registry.all();
    out << all.size() << " registered experiments:\n\n";
    for (const Experiment* e : all) {
      out << "  " << e->name << "\n      claim: " << e->claim
          << "\n      axes:  ";
      for (std::size_t i = 0; i < e->axes.size(); ++i) {
        out << (i == 0 ? "" : ", ") << e->axes[i];
      }
      out << "\n";
    }
    return 0;
  }

  const auto selected = registry.match(options.filters);
  if (selected.empty()) {
    // Running nothing must never look like success: a typo'd --filter in a
    // CI gate would otherwise silently skip the whole roster. Name the
    // offending filters so the fix is obvious, and exit as a usage error.
    err << "ldc_bench: no experiments match ";
    if (options.filters.empty()) {
      err << "(registry is empty)";
    } else {
      err << "--filter ";
      for (std::size_t i = 0; i < options.filters.size(); ++i) {
        err << (i == 0 ? "" : ", ") << "'" << options.filters[i] << "'";
      }
    }
    err << "; see --list for the registered experiments\n";
    return 2;
  }

  RunConfig config;
  config.smoke = options.smoke;
  config.engine = options.sharded ? Network::Engine::kSharded
                                  : Network::Engine::kSerial;
  // The shard count; set_engine resolves 0 via LDC_SHARDS (strict parse)
  // / hardware concurrency.
  config.threads = options.sharded ? options.shards : 0;
  const Provenance provenance = make_provenance(config);

  std::unique_ptr<Sink> sink;
  if (!options.out_dir.empty()) {
    try {
      sink = std::make_unique<Sink>(options.out_dir, provenance);
    } catch (const std::exception& e) {
      err << "ldc_bench: " << e.what() << "\n";
      return 2;
    }
  }

  std::vector<ExperimentResult> results;
  bool failed = false;
  for (const Experiment* e : selected) {
    out << "[" << (results.size() + 1) << "/" << selected.size() << "] "
        << e->name << (config.smoke ? "  (smoke)" : "") << "\n";
    out.flush();
    ExperimentContext ctx(e->name, config);
    const std::uint64_t start = now_ns();
    try {
      e->run(ctx);
    } catch (const std::exception& ex) {
      err << "ldc_bench: experiment '" << e->name << "' failed: " << ex.what()
          << "\n";
      failed = true;
      continue;
    }
    ExperimentResult result = ctx.take_result();
    result.wall_ns = now_ns() - start;
    if (options.print_tables) {
      for (const ResultTable& t : result.tables) t.to_table().print(out);
    }
    if (sink != nullptr) sink->write(result);
    results.push_back(std::move(result));
  }

  if (!options.write_baseline_path.empty()) {
    if (failed) {
      // A snapshot missing the failed experiments would silently shrink the
      // regression gate; refuse rather than commit a truncated baseline.
      err << "ldc_bench: refusing to write baseline: one or more experiments "
             "failed (snapshot would omit them)\n";
      return 1;
    }
    try {
      save_baseline(options.write_baseline_path,
                    baseline_json(results, provenance));
      out << "baseline written to " << options.write_baseline_path << "\n";
    } catch (const std::exception& e) {
      err << "ldc_bench: " << e.what() << "\n";
      return 1;
    }
  }

  if (options.check) {
    Json baseline;
    try {
      baseline = load_baseline(options.baseline_path);
    } catch (const std::exception& e) {
      err << "ldc_bench: " << e.what() << "\n";
      return 2;
    }
    BaselineDiff diff;
    try {
      // Refuse cross-mode diffs: smoke and full sweeps have different rows.
      const Json* cfg = baseline.find("config");
      const bool baseline_smoke =
          cfg != nullptr && cfg->find("smoke") != nullptr &&
          cfg->at("smoke").as_bool();
      if (baseline_smoke != options.smoke) {
        err << "ldc_bench: baseline was recorded with smoke="
            << (baseline_smoke ? "true" : "false")
            << " but this run has smoke="
            << (options.smoke ? "true" : "false") << "; refusing to diff\n";
        return 2;
      }
      diff = check_baseline(baseline, results, options.baseline_options,
                            options.filters.empty());
    } catch (const std::exception& e) {
      // Structural surprises (missing keys, wrong kinds) in a hand-edited
      // or truncated baseline are a usage error, not a crash.
      err << "ldc_bench: malformed baseline " << options.baseline_path << ": "
          << e.what() << "\n";
      return 2;
    }
    for (const auto& note : diff.notes) out << "note: " << note << "\n";
    if (!diff.ok()) {
      err << "ldc_bench: baseline drift (" << diff.mismatches.size()
          << " mismatches):\n";
      for (const auto& m : diff.mismatches) err << "  " << m << "\n";
      return 1;
    }
    out << "baseline check: " << results.size() << " experiments match "
        << options.baseline_path << "\n";
  }

  return failed ? 1 : 0;
}

int bench_main(int argc, const char* const* argv) {
  CliOptions options;
  try {
    options = parse_cli(argc, argv);
  } catch (const std::invalid_argument& e) {
    const bool help = std::string(e.what()) == "help";
    (help ? std::cout : std::cerr)
        << (help ? "" : std::string("ldc_bench: ") + e.what() + "\n\n")
        << kUsage;
    return help ? 0 : 2;
  }
  return run_cli(options, std::cout, std::cerr);
}

}  // namespace ldc::harness
