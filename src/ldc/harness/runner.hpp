// The `ldc_bench` command-line driver: selects registered experiments,
// runs them under one RunConfig, prints their tables, streams structured
// output through the Sink, and applies the baseline layer.
//
//   ldc_bench --list                      enumerate experiments
//   ldc_bench                             run everything, print tables
//   ldc_bench --filter oldc --filter e0   substring selection
//   ldc_bench --smoke                     CI-scale parameter sweeps
//   ldc_bench --shards 4                  sharded engine, 4 shards
//   ldc_bench --out bench_output          JSONL + CSV + table dumps
//   ldc_bench --smoke --write-baseline BENCH_seed.json
//   ldc_bench --smoke --baseline BENCH_seed.json --check
//
// Exit codes: 0 success, 1 baseline drift or a failed experiment,
// 2 usage error.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "ldc/harness/baseline.hpp"
#include "ldc/harness/experiment.hpp"

namespace ldc::harness {

struct CliOptions {
  bool list = false;
  bool smoke = false;
  bool check = false;
  bool print_tables = true;
  std::vector<std::string> filters;
  bool sharded = false;           ///< --engine sharded (or --shards)
  std::size_t shards = 0;         ///< 0 = LDC_SHARDS / hardware fallback
  std::string out_dir;            ///< empty = no structured output
  std::string baseline_path;      ///< --baseline
  std::string write_baseline_path;  ///< --write-baseline
  BaselineOptions baseline_options;
};

/// Parses argv; throws std::invalid_argument with a usage message on bad
/// input.
CliOptions parse_cli(int argc, const char* const* argv);

/// Runs the selected experiments and applies list/sink/baseline behaviour;
/// returns the process exit code. Output goes to `out` (tables, progress,
/// drift reports) and `err` (failures).
int run_cli(const CliOptions& options, std::ostream& out, std::ostream& err);

/// main() adapter: parse + run, mapping parse errors to exit code 2.
int bench_main(int argc, const char* const* argv);

}  // namespace ldc::harness
