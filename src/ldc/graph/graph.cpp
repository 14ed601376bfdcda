#include "ldc/graph/graph.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace ldc {

Graph::Graph(std::vector<std::uint32_t> offsets, std::vector<NodeId> adj,
             std::vector<std::uint64_t> ids)
    : own_adj_(std::move(adj)) {
  assert(!offsets.empty());
  assert(offsets.back() == own_adj_.size());
  own_offsets_.assign(offsets.begin(), offsets.end());
  offsets_ = own_offsets_;
  adj_ = own_adj_;
  const std::uint32_t nodes = n();
  for (NodeId v = 0; v < nodes; ++v) {
    max_degree_ = std::max(max_degree_, degree(v));
    assert(std::is_sorted(neighbors(v).begin(), neighbors(v).end()));
  }
  if (ids.empty()) {
    // Identity ids stay implicit (ids_ empty): id(v) == v.
    max_id_ = nodes == 0 ? 0 : nodes - 1;
  } else {
    set_ids(std::move(ids));
  }
}

Graph Graph::view(std::span<const std::uint64_t> offsets,
                  std::span<const NodeId> adj,
                  std::span<const std::uint64_t> ids,
                  std::uint32_t max_degree, std::uint64_t max_id,
                  std::shared_ptr<const void> pin) {
  if (offsets.empty() || offsets.back() != adj.size()) {
    throw std::invalid_argument("Graph::view: offsets do not match adj");
  }
  if (!ids.empty() && ids.size() != offsets.size() - 1) {
    throw std::invalid_argument("Graph::view: wrong id count");
  }
  Graph g;
  g.offsets_ = offsets;
  g.adj_ = adj;
  g.ids_ = ids;
  g.max_degree_ = max_degree;
  g.max_id_ = max_id;
  g.pin_ = std::move(pin);
  return g;
}

Graph& Graph::operator=(const Graph& other) {
  if (this == &other) return *this;
  // Each span either aliases the source's own_* vector (rebind to our
  // fresh copy) or external storage (copy the span + keepalive verbatim).
  own_offsets_ = other.own_offsets_;
  own_adj_ = other.own_adj_;
  own_ids_ = other.own_ids_;
  pin_ = other.pin_;
  offsets_ = other.offsets_.data() == other.own_offsets_.data()
                 ? std::span<const std::uint64_t>(own_offsets_)
                 : other.offsets_;
  adj_ = other.adj_.data() == other.own_adj_.data()
             ? std::span<const NodeId>(own_adj_)
             : other.adj_;
  ids_ = other.ids_.data() == other.own_ids_.data() && !other.ids_.empty()
             ? std::span<const std::uint64_t>(own_ids_)
             : other.ids_;
  max_degree_ = other.max_degree_;
  max_id_ = other.max_id_;
  return *this;
}

void Graph::set_ids(std::vector<std::uint64_t> ids) {
  if (ids.size() != n()) {
    throw std::invalid_argument("Graph::set_ids: wrong id count");
  }
  std::vector<std::uint64_t> sorted(ids);
  std::sort(sorted.begin(), sorted.end());
  if (std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end()) {
    throw std::invalid_argument("Graph::set_ids: ids must be unique");
  }
  own_ids_ = std::move(ids);
  ids_ = own_ids_;
  max_id_ = 0;
  for (auto id : ids_) max_id_ = std::max(max_id_, id);
}

bool Graph::has_edge(NodeId u, NodeId v) const {
  const auto nb = neighbors(u);
  return std::binary_search(nb.begin(), nb.end(), v);
}

std::uint32_t Graph::neighbor_index(NodeId v, NodeId u) const {
  const auto nb = neighbors(v);
  const auto it = std::lower_bound(nb.begin(), nb.end(), u);
  if (it == nb.end() || *it != u) return n();
  return static_cast<std::uint32_t>(it - nb.begin());
}

}  // namespace ldc
