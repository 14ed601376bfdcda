// Structured metric sink: serializes experiment results to JSONL and CSV
// alongside the human-readable tables, stamped with build provenance.
//
// Output layout under the chosen directory:
//   results.jsonl          one JSON object per line:
//                            {"type":"run", ...provenance...}        (first)
//                            {"type":"table_row", ...}   one per table row
//                            {"type":"metrics", ...}     one per tracked net
//                            {"type":"round", ...}       per-round trace rows
//                            {"type":"experiment", ...}  per-experiment close
//   csv/<experiment>.<k>.csv   one CSV per result table (k = table index)
//   tables/<experiment>.txt    the plain-text tables, as printed to stdout
//
// Everything in the JSONL except wall_ns fields is deterministic given the
// build; downstream tooling (plots, CI trend lines) can rely on exact
// reproduction.
#pragma once

#include <fstream>
#include <string>

#include "ldc/harness/experiment.hpp"
#include "ldc/harness/json.hpp"

namespace ldc::harness {

/// Build/run provenance stamped into every output file.
struct Provenance {
  std::string git_rev;      ///< configure-time `git rev-parse --short HEAD`
  std::string build_type;   ///< CMAKE_BUILD_TYPE
  std::string build_flags;  ///< CMAKE_CXX_FLAGS
  std::string engine;       ///< "serial" | "sharded" | "dist"
  std::size_t threads = 0;  ///< 0 = resolved at Network level
  bool smoke = false;
};

/// Provenance for this build under the given run configuration. git_rev /
/// build flags come from compile definitions injected by CMake at
/// configure time (so they go stale only until the next reconfigure).
Provenance make_provenance(const RunConfig& config);

Json to_json(const Provenance& p);
Json to_json(const RunMetrics& m);
/// One table cell; uint/int/double/string map to their JSON kinds.
Json to_json(const ResultTable::Cell& cell);

/// True for table columns holding host-time measurements ("wall" or
/// "(obs)" in the header): excluded from exact baseline comparison.
bool observational_column(const std::string& header);

class Sink {
 public:
  /// Creates `out_dir` (and csv/, tables/ beneath it) and opens
  /// results.jsonl with the provenance header record. Throws
  /// std::runtime_error when the directory or files cannot be created.
  Sink(std::string out_dir, const Provenance& provenance);

  /// Serializes one experiment's tables, metric records and per-round
  /// trace rows.
  void write(const ExperimentResult& result);

  const std::string& out_dir() const { return out_dir_; }

 private:
  void write_csv(const ExperimentResult& result);
  void write_tables(const ExperimentResult& result);

  std::string out_dir_;
  std::ofstream jsonl_;
};

}  // namespace ldc::harness
