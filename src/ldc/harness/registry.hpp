// Experiment registry. Experiment translation units self-register via a
// file-scope Registrar; the ldc_bench runner then lists, filters and runs
// them. Registration order is link order (unspecified), so all iteration
// APIs return experiments sorted by name — names are chosen sortable
// (a1..a4, e01..e21).
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "ldc/harness/experiment.hpp"

namespace ldc::harness {

class Registry {
 public:
  /// The process-wide registry the Registrar populates.
  static Registry& instance();

  /// Adds an experiment; throws std::invalid_argument on an empty or
  /// duplicate name, or a missing run callback.
  void add(Experiment e);

  std::size_t size() const { return experiments_.size(); }

  /// All experiments, sorted by name.
  std::vector<const Experiment*> all() const;

  /// Exact-name lookup; nullptr when absent.
  const Experiment* find(std::string_view name) const;

  /// Experiments whose name or claim contains any of the given substrings
  /// (case-sensitive), sorted by name. An empty filter list matches all.
  std::vector<const Experiment*> match(
      const std::vector<std::string>& filters) const;

 private:
  std::vector<Experiment> experiments_;
};

/// File-scope self-registration hook:
///   const harness::Registrar reg{{.name = "e01_...", ...}};
class Registrar {
 public:
  explicit Registrar(Experiment e);
};

}  // namespace ldc::harness
