// Sender lists for the broadcast equivalence suites, one for each side
// of the shard-round kernel's push/pull crossover (ShardRound::pushes)
// and its extremes, beside the suites' own `v % 3 != 0` list.
#pragma once

#include <algorithm>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "ldc/graph/graph.hpp"

namespace ldc {

/// (label, ascending sender list) pairs over n nodes: no sender live,
/// only the highest id live and 1 in 16 live (sparse enough to push),
/// and all but one live (dense enough to pull).
inline std::vector<std::pair<std::string, std::vector<NodeId>>>
survivor_pass_lists(NodeId n) {
  std::vector<std::pair<std::string, std::vector<NodeId>>> out;
  out.emplace_back("none", std::vector<NodeId>{});
  std::vector<NodeId> highest;
  if (n > 0) highest.push_back(n - 1);
  out.emplace_back("highest", std::move(highest));
  std::vector<NodeId> sparse;
  for (NodeId v = 0; v < n; v += 16) sparse.push_back(v);
  out.emplace_back("1in16", std::move(sparse));
  std::vector<NodeId> dense;
  for (NodeId v = 1; v < n; ++v) dense.push_back(v);
  out.emplace_back("all-but-one", std::move(dense));
  return out;
}

/// A broadcast round's senders, as Network's broadcasts take them.
using SenderList = std::optional<std::span<const NodeId>>;

/// True when u sends under `senders` (no list: every node sends).
inline bool listed(SenderList senders, NodeId u) {
  return !senders || std::binary_search(senders->begin(), senders->end(), u);
}

}  // namespace ldc
