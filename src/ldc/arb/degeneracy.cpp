#include "ldc/arb/degeneracy.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

namespace ldc {

DegeneracyResult degeneracy_orientation(const Graph& g) {
  const std::uint32_t n = g.n();
  std::vector<std::uint32_t> deg(n);
  std::uint32_t maxdeg = 0;
  for (NodeId v = 0; v < n; ++v) {
    deg[v] = g.degree(v);
    maxdeg = std::max(maxdeg, deg[v]);
  }
  // Bucket queue over current degrees.
  std::vector<std::vector<NodeId>> buckets(maxdeg + 1);
  for (NodeId v = 0; v < n; ++v) buckets[deg[v]].push_back(v);
  std::vector<bool> peeled(n, false);
  std::vector<std::uint32_t> order(n);  // peel position
  DegeneracyResult res;
  std::uint32_t cursor = 0;
  std::uint32_t current = 0;
  for (std::uint32_t step = 0; step < n; ++step) {
    // Find the smallest non-empty bucket (degrees only drop by one per
    // removal, so scanning from max(current-1, 0) is amortized linear).
    if (current > 0) --current;
    while (current <= maxdeg && buckets[current].empty()) ++current;
    while (true) {
      if (current > maxdeg) {
        throw std::logic_error("degeneracy_orientation: bucket underflow");
      }
      if (buckets[current].empty()) {
        ++current;
        continue;
      }
      const NodeId v = buckets[current].back();
      buckets[current].pop_back();
      if (peeled[v] || deg[v] != current) {
        // Stale entry; its true bucket is elsewhere (lazy deletion).
        if (!peeled[v] && deg[v] < current) buckets[deg[v]].push_back(v);
        continue;
      }
      peeled[v] = true;
      order[v] = cursor++;
      res.degeneracy = std::max(res.degeneracy, deg[v]);
      for (NodeId u : g.neighbors(v)) {
        if (!peeled[u]) {
          buckets[--deg[u]].push_back(u);
        }
      }
      break;
    }
  }
  // Orient each edge from the earlier-peeled endpoint to the later one:
  // v's out-neighbors are exactly those unpeeled when v was removed.
  std::vector<std::vector<NodeId>> out(n);
  for (NodeId v = 0; v < n; ++v) {
    for (NodeId u : g.neighbors(v)) {
      if (order[v] < order[u]) out[v].push_back(u);
    }
  }
  res.orientation = Orientation(g, std::move(out));
  return res;
}

PeelingResult distributed_peeling_orientation(Network& net, double eps) {
  if (eps <= 0.0) throw std::invalid_argument("peeling: eps > 0 required");
  const Graph& g = net.graph();
  const std::uint32_t n = g.n();
  PeelingResult res;
  std::vector<std::uint32_t> layer(n, ~0u);
  std::vector<std::uint32_t> rdeg(n);
  for (NodeId v = 0; v < n; ++v) rdeg[v] = g.degree(v);
  std::uint64_t rem_nodes = n;
  std::uint64_t rem_edges = g.m();
  // Every peeled node sends the same 1-bit announcement.
  BitWriter one;
  one.write(1, 1);
  const std::vector<BitWriter> msgs(n, one);
  std::vector<NodeId> peeled;  // ascending: the round's senders

  while (rem_nodes > 0) {
    // Threshold (2+eps) * average remaining degree (globally known
    // quantities in the model: n, m and the layer schedule are derived
    // from them).
    const double avg =
        rem_nodes == 0 ? 0.0
                       : 2.0 * static_cast<double>(rem_edges) /
                             static_cast<double>(rem_nodes);
    const auto threshold = static_cast<std::uint32_t>((2.0 + eps) * avg);
    // Peel; announce with a 1-bit message.
    peeled.clear();
    for (NodeId v = 0; v < n; ++v) {
      if (layer[v] != ~0u || rdeg[v] > threshold) continue;
      layer[v] = res.layers;
      peeled.push_back(v);
    }
    const std::uint64_t peeled_now = peeled.size();
    const auto inboxes = net.exchange_broadcast(msgs, peeled);
    if (peeled_now == 0) {
      throw std::logic_error("peeling: no progress (threshold below min)");
    }
    // Update remaining degrees / counts.
    for (NodeId v = 0; v < n; ++v) {
      if (layer[v] != ~0u && layer[v] != res.layers) continue;
      for (const auto [u, m] : inboxes[v]) {
        (void)u;
        (void)m;
        // u peeled this layer; if v is still unpeeled, its remaining
        // degree drops. Edges between two same-layer nodes are removed
        // once (handled below in the edge count).
        if (layer[v] == ~0u && rdeg[v] > 0) --rdeg[v];
      }
    }
    // Recompute remaining edge count exactly (simulator-side bookkeeping
    // of globally-derivable quantities).
    rem_nodes -= peeled_now;
    std::uint64_t edges = 0;
    for (NodeId v = 0; v < n; ++v) {
      if (layer[v] != ~0u) continue;
      for (NodeId u : g.neighbors(v)) {
        if (layer[u] == ~0u && u > v) ++edges;
      }
    }
    rem_edges = edges;
    ++res.layers;
  }

  // Orientation: toward later layers; within a layer, toward larger id.
  std::vector<std::vector<NodeId>> out(n);
  for (NodeId v = 0; v < n; ++v) {
    std::uint32_t outdeg = 0;
    for (NodeId u : g.neighbors(v)) {
      if (layer[v] < layer[u] ||
          (layer[v] == layer[u] && g.id(v) < g.id(u))) {
        out[v].push_back(u);
        ++outdeg;
      }
    }
    res.beta = std::max(res.beta, outdeg);
  }
  res.orientation = Orientation(g, std::move(out));
  return res;
}

}  // namespace ldc
