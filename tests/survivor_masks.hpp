// Transmit masks for the broadcast equivalence suites, one for each side
// of the shard-round kernel's push/pull crossover (ShardRound::pushes)
// and its extremes, beside the suites' own `v % 3 != 0` mask.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "ldc/graph/graph.hpp"

namespace ldc {

/// (label, mask) pairs over n senders: no sender live, only the highest
/// id live and 1 in 16 live (sparse enough to push), and all but one
/// live (dense enough to pull).
inline std::vector<std::pair<std::string, std::vector<bool>>>
survivor_pass_masks(NodeId n) {
  std::vector<std::pair<std::string, std::vector<bool>>> out;
  out.emplace_back("none", std::vector<bool>(n, false));
  std::vector<bool> highest(n, false);
  if (n > 0) highest[n - 1] = true;
  out.emplace_back("highest", std::move(highest));
  std::vector<bool> sparse(n);
  for (NodeId v = 0; v < n; ++v) sparse[v] = v % 16 == 0;
  out.emplace_back("1in16", std::move(sparse));
  std::vector<bool> dense(n, true);
  if (n > 0) dense[0] = false;
  out.emplace_back("all-but-one", std::move(dense));
  return out;
}

}  // namespace ldc
