// The service's algorithm registry — the menu of servable colorings.
//
// Mirrors the harness registry pattern (src/ldc/harness/registry.hpp):
// algorithms self-describe with a stable id and run callback, the registry
// lists and resolves them, and the built-in roster is registered at first
// use. Bodies receive the job's graph, the parsed Job (seed + params) and
// an ExecContext carrying the cancellation token; they must call
// exec.configure(net) on every Network they create so cancellation and
// deadlines are honoured at round boundaries. Every Network a body makes
// runs on the serial engine: the service's parallelism is its lanes.
//
// Outcomes carry only model-exact quantities (validity, colors, rounds,
// traffic, a digest of the coloring) — an outcome is a pure function of
// the job digest, which is what makes the result cache sound.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "ldc/coloring/instance.hpp"
#include "ldc/runtime/network.hpp"
#include "ldc/service/cancel.hpp"
#include "ldc/service/job.hpp"

namespace ldc::service {

/// What one served job computed. Deterministic given the job digest.
struct JobOutcome {
  bool valid = false;            ///< validator verdict on the coloring
  std::uint32_t n = 0;           ///< nodes actually solved
  std::uint64_t colors = 0;      ///< distinct colors used
  std::uint64_t palette = 0;     ///< algorithm-reported palette bound
  std::uint64_t rounds = 0;      ///< the job network's metrics(), copied
  std::uint64_t messages = 0;
  std::uint64_t total_bits = 0;
  std::uint64_t color_digest = 0;  ///< FNV-1a over the color vector
};

/// Per-job execution environment handed to algorithm bodies.
struct ExecContext {
  const CancelToken* cancel = nullptr;

  /// Installs the round-boundary cancellation check on `net`. Call on
  /// every Network the body creates.
  void configure(Network& net) const;

  /// Explicit cancellation point for pre/post-network compute phases.
  void check() const {
    if (cancel != nullptr) cancel->check();
  }
};

using AlgorithmFn =
    std::function<JobOutcome(const Graph&, const Job&, const ExecContext&)>;

struct AlgorithmInfo {
  std::string name;     ///< stable wire id, e.g. "d1lc"
  std::string summary;  ///< one line for listings
  AlgorithmFn run;
};

class AlgorithmRegistry {
 public:
  /// Process-wide registry, pre-populated with the built-in roster
  /// (greedy, luby, linial, kw, d1lc) on first access.
  static AlgorithmRegistry& instance();

  /// Throws std::invalid_argument on empty/duplicate names or missing run.
  void add(AlgorithmInfo info);

  /// Exact-id lookup; nullptr when absent.
  const AlgorithmInfo* find(std::string_view name) const;

  /// All algorithms, sorted by name.
  std::vector<const AlgorithmInfo*> all() const;

 private:
  std::vector<AlgorithmInfo> algorithms_;
};

/// Digest of a coloring (FNV-1a over the 32-bit color values in node
/// order) — the cross-run identity of a result.
std::uint64_t coloring_digest(const std::vector<Color>& phi);

}  // namespace ldc::service
