#include "ldc/harness/experiment.hpp"

#include <algorithm>

namespace ldc::harness {

ResultTable::ResultTable(std::string title, std::vector<std::string> headers)
    : title_(std::move(title)), headers_(std::move(headers)) {}

void ResultTable::add_row(std::vector<Cell> cells) {
  if (cells.size() != headers_.size()) {
    throw std::invalid_argument(
        "ResultTable '" + title_ + "': row arity " +
        std::to_string(cells.size()) + " != header arity " +
        std::to_string(headers_.size()));
  }
  rows_.push_back(std::move(cells));
}

Table ResultTable::to_table() const {
  Table t(title_, headers_);
  for (const auto& row : rows_) t.add_row(row);
  return t;
}

ExperimentContext::ExperimentContext(std::string name,
                                     const RunConfig& config)
    : config_(config) {
  result_.name = std::move(name);
}

ResultTable& ExperimentContext::table(std::string title,
                                      std::vector<std::string> headers) {
  result_.tables.emplace_back(std::move(title), std::move(headers));
  return result_.tables.back();
}

void ExperimentContext::prepare(Network& net) {
  net.set_engine(config_.engine, config_.threads);
  traces_.push_back(std::make_unique<Trace>());
  net.attach_trace(traces_.back().get());
  // Loop-scoped Networks reuse the same stack address across iterations, so
  // a fresh prepare() invalidates any earlier mapping for this pointer.
  attached_.erase(std::remove_if(attached_.begin(), attached_.end(),
                                 [&](const auto& entry) {
                                   return entry.first == &net;
                                 }),
                  attached_.end());
  attached_.emplace_back(&net, traces_.back().get());
}

const MetricRecord& ExperimentContext::record(std::string label,
                                              const Network& net) {
  MetricRecord rec;
  rec.label = std::move(label);
  rec.metrics = net.metrics();
  rec.engine = net.engine();
  rec.threads = net.threads();
  // Newest-first so the latest prepare() wins for a reused address.
  for (auto it = attached_.rbegin(); it != attached_.rend(); ++it) {
    if (it->first == &net) {
      rec.trace_digest = it->second->digest();
      rec.rounds = it->second->rounds();
      break;
    }
  }
  return result_.runs.emplace_back(std::move(rec));
}

ExperimentResult ExperimentContext::take_result() {
  return std::move(result_);
}

}  // namespace ldc::harness
