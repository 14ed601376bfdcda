#include "ldc/graph/partition.hpp"

#include <algorithm>
#include <stdexcept>

namespace ldc {
namespace {

std::size_t clamp_shards(NodeId n, std::size_t shards) {
  if (shards == 0) shards = 1;
  if (n > 0 && shards > n) shards = n;
  return shards;
}

}  // namespace

Partition Partition::contiguous(NodeId n, std::size_t shards) {
  const std::size_t k = clamp_shards(n, shards);
  std::vector<NodeId> starts(k + 1, 0);
  const NodeId width = n / static_cast<NodeId>(k);
  const NodeId extra = n % static_cast<NodeId>(k);
  NodeId at = 0;
  for (std::size_t i = 0; i < k; ++i) {
    starts[i] = at;
    at += width + (i < extra ? 1 : 0);
  }
  starts[k] = n;
  return Partition(std::move(starts));
}

Partition Partition::degree_balanced(const Graph& g, std::size_t shards) {
  const NodeId n = g.n();
  const std::size_t k = clamp_shards(n, shards);
  const std::uint64_t total = 2 * g.m();  // adjacency entries
  if (total == 0 || k <= 1) return contiguous(n, k);

  // Prefix sums of degree, then for each boundary the smallest cut point
  // whose prefix reaches the ideal i*total/k target.
  std::vector<std::uint64_t> prefix(static_cast<std::size_t>(n) + 1, 0);
  for (NodeId v = 0; v < n; ++v) prefix[v + 1] = prefix[v] + g.degree(v);

  std::vector<NodeId> starts(k + 1, 0);
  starts[k] = n;
  for (std::size_t i = 1; i < k; ++i) {
    const std::uint64_t target = total * i / k;
    const auto it =
        std::lower_bound(prefix.begin(), prefix.end(), target);
    starts[i] = static_cast<NodeId>(it - prefix.begin());
  }
  // Non-empty ranges: push boundaries apart (n >= k guarantees room).
  for (std::size_t i = 1; i < k; ++i) {
    starts[i] = std::max<NodeId>(starts[i], starts[i - 1] + 1);
  }
  for (std::size_t i = k; i-- > 1;) {
    starts[i] = std::min<NodeId>(starts[i], starts[i + 1] - 1);
  }
  return Partition(std::move(starts));
}

Partition Partition::from_starts(std::vector<NodeId> starts) {
  if (starts.size() < 2 || starts.front() != 0 ||
      !std::is_sorted(starts.begin(), starts.end())) {
    throw std::invalid_argument(
        "Partition: boundaries must start at 0 and never descend");
  }
  return Partition(std::move(starts));
}

void ShardTopology::build(const Graph& g, NodeId b, NodeId e) {
  vbegin = b;
  vend = e;
  ghost_edges = 0;
  // Collect the halo via a bitmap over [0, n): deterministic, sorted
  // output without sorting a per-edge worklist.
  std::vector<std::uint64_t> seen(
      (static_cast<std::size_t>(g.n()) + 63) / 64, 0);
  for (NodeId v = b; v < e; ++v) {
    for (const NodeId u : g.neighbors(v)) {
      if (u < b || u >= e) {
        ++ghost_edges;
        seen[u >> 6] |= std::uint64_t{1} << (u & 63);
      }
    }
  }
  ghosts.clear();
  for (std::size_t w = 0; w < seen.size(); ++w) {
    std::uint64_t bits = seen[w];
    while (bits != 0) {
      const unsigned tz = static_cast<unsigned>(__builtin_ctzll(bits));
      ghosts.push_back(static_cast<NodeId>((w << 6) + tz));
      bits &= bits - 1;
    }
  }
}

std::vector<CutSender> cut_senders(const Graph& g, NodeId b, NodeId e) {
  std::vector<CutSender> cut;
  for (NodeId v = b; v < e; ++v) {
    std::uint32_t across = 0;
    for (const NodeId u : g.neighbors(v)) across += u < b || u >= e ? 1 : 0;
    if (across != 0) cut.push_back(CutSender{v, across});
  }
  return cut;
}

}  // namespace ldc
