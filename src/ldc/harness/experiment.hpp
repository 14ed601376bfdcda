// Experiment descriptors and the per-run context handed to their bodies.
//
// Every quantitative claim reproduced from the paper is one Experiment: a
// stable name, the claim it backs, the parameter axes it sweeps, and a run
// callback. The callback emits *typed rows* into ResultTables (the same
// cell variant the plain-text Table printer uses, so one run renders the
// markdown tables EXPERIMENTS.md quotes AND serializes to JSONL/CSV) and
// may register Networks with the context to capture their RunMetrics and
// per-round Trace into the structured output.
//
// Smoke mode (`ExperimentContext::smoke()`) asks the body to shrink its
// sweep to CI scale; bodies pick their axes with `ctx.pick(full, smoke)`.
// Everything an experiment emits must be deterministic given the build —
// the baseline checker (baseline.hpp) diffs rows and model-exact metrics
// bit-for-bit. The single observational quantity is wall-clock: it lives
// in RunMetrics::wall_ns / Trace rounds, and table columns whose header
// contains "wall" or "(obs)" are exempted from exact comparison.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "ldc/runtime/metrics.hpp"
#include "ldc/runtime/network.hpp"
#include "ldc/runtime/trace.hpp"
#include "ldc/support/tables.hpp"

namespace ldc::harness {

/// How one invocation of the harness executes every selected experiment.
struct RunConfig {
  bool smoke = false;  ///< shrunk parameter sweeps for CI
  Network::Engine engine = Network::Engine::kSerial;
  std::size_t threads = 0;  ///< shard count; 0 = LDC_SHARDS / hardware
};

/// A table of typed rows; the structured twin of ldc::Table.
class ResultTable {
 public:
  using Cell = Table::Cell;

  ResultTable(std::string title, std::vector<std::string> headers);

  /// Appends one row; throws std::invalid_argument on arity mismatch
  /// (unlike Table, which only asserts — harness rows feed the baseline
  /// checker, so malformed rows must not slip into release builds).
  void add_row(std::vector<Cell> cells);

  const std::string& title() const { return title_; }
  const std::vector<std::string>& headers() const { return headers_; }
  const std::vector<std::vector<Cell>>& rows() const { return rows_; }

  /// Renders through the plain-text Table printer.
  Table to_table() const;

 private:
  std::string title_;
  std::vector<std::string> headers_;
  std::vector<std::vector<Cell>> rows_;
};

/// Snapshot of one tracked Network sub-run.
struct MetricRecord {
  std::string label;          ///< e.g. "pipeline/Delta=16"
  RunMetrics metrics;
  std::uint64_t trace_digest = 0;   ///< 0 when the net was not prepared
  std::vector<Trace::Round> rounds; ///< per-round rows (empty when the
                                    ///< net was not prepared); a phase's
                                    ///< share: count_marked(rounds, prefix)
  Network::Engine engine = Network::Engine::kSerial;
  std::size_t threads = 1;
};

/// Everything one experiment produced. Tables and records live in deques
/// so the references ExperimentContext::table() and record() hand out stay
/// valid while the run body adds more.
struct ExperimentResult {
  std::string name;
  std::deque<ResultTable> tables;
  std::deque<MetricRecord> runs;
  std::uint64_t wall_ns = 0;  ///< whole-experiment host time (observational)
};

/// Handed to the run callback; collects tables and metric records.
class ExperimentContext {
 public:
  ExperimentContext(std::string name, const RunConfig& config);

  bool smoke() const { return config_.smoke; }
  const RunConfig& config() const { return config_; }

  /// Sweep selection: the full axis normally, the shrunk one under --smoke.
  /// Returns by value so `for (auto v : ctx.pick<...>({...}, {...}))` never
  /// dangles (C++20 range-for does not extend inner temporaries' lifetime).
  template <typename T>
  T pick(T full, T smoke_axis) const {
    return config_.smoke ? std::move(smoke_axis) : std::move(full);
  }

  /// Opens a new result table; the reference stays valid for the run.
  ResultTable& table(std::string title, std::vector<std::string> headers);

  /// Applies the run's engine/thread configuration to `net` and attaches a
  /// context-owned Trace so record() can capture per-round rows. Call
  /// right after constructing the Network, before any exchange.
  void prepare(Network& net);

  /// Snapshots `net`'s RunMetrics (and, if prepared, its trace digest and
  /// per-round rows) under `label` and returns the record. Call while `net`
  /// is still alive — typically right after the algorithm under
  /// measurement returns. Table round cells read the record (or the
  /// network), never a count the algorithm kept.
  const MetricRecord& record(std::string label, const Network& net);

  /// Moves the accumulated result out (the runner calls this once).
  ExperimentResult take_result();

 private:
  RunConfig config_;
  ExperimentResult result_;
  // Trace storage must be address-stable: Networks hold raw pointers to
  // their attached trace until destruction.
  std::vector<std::unique_ptr<Trace>> traces_;
  std::vector<std::pair<const Network*, const Trace*>> attached_;
};

/// One registered experiment.
struct Experiment {
  std::string name;   ///< stable key, e.g. "e01_rounds_vs_delta"
  std::string claim;  ///< the paper claim the experiment backs
  std::vector<std::string> axes;  ///< parameter axes swept
  std::function<void(ExperimentContext&)> run;
};

}  // namespace ldc::harness
