// Contiguous vertex-range partitions of a CSR graph for sharded execution.
//
// A Partition splits [0, n) into K contiguous ascending ranges; shard k
// owns [begin(k), end(k)). Contiguity is the determinism lever: the
// concatenation of the shards' sender ranges in shard order *is* the
// serial sender order, so the shard-round kernel, which merges per-shard
// results ascending, reproduces the serial delivery order byte for byte
// (see DESIGN.md §7 and §11).
//
// A ShardTopology is one shard's halo facts: the owned range, the sorted
// ghost list (out-of-range neighbours of owned vertices) and the number of
// adjacency entries that point at a ghost — what a worker process needs
// shipped to it, and echoes at attach. A range's cut senders (owned
// vertices with neighbours across the cut, and how many) price a dense
// round's cut traffic.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <vector>

#include "ldc/graph/graph.hpp"

namespace ldc {

/// A partition of [0, n) into K contiguous, ascending, non-empty vertex
/// ranges (empty ranges only when n < K forces fewer real shards; callers
/// clamp K to n first). starts()[0] == 0 and starts()[K] == n.
class Partition {
 public:
  Partition() = default;

  /// Equal-width ranges; the first n % K shards take one extra vertex.
  static Partition contiguous(NodeId n, std::size_t shards);

  /// Ranges balanced by degree sum: boundaries sit as close to the ideal
  /// i*(2m)/K adjacency-prefix targets as contiguity and non-emptiness
  /// allow. Falls back to contiguous() on an edgeless graph.
  static Partition degree_balanced(const Graph& g, std::size_t shards);

  /// A partition from its K+1 boundaries, as shipped to a worker process.
  /// Throws std::invalid_argument unless they start at 0 and never
  /// descend.
  static Partition from_starts(std::vector<NodeId> starts);

  std::size_t shards() const {
    return starts_.empty() ? 0 : starts_.size() - 1;
  }
  NodeId begin(std::size_t k) const { return starts_[k]; }
  NodeId end(std::size_t k) const { return starts_[k + 1]; }
  NodeId n() const { return starts_.empty() ? 0 : starts_.back(); }

  /// Index of the shard owning vertex v (v must be < n()).
  std::size_t shard_of(NodeId v) const {
    assert(!starts_.empty() && v < starts_.back());
    const auto it = std::upper_bound(starts_.begin() + 1, starts_.end(), v);
    return static_cast<std::size_t>(it - starts_.begin()) - 1;
  }

  const std::vector<NodeId>& starts() const { return starts_; }

 private:
  explicit Partition(std::vector<NodeId> starts)
      : starts_(std::move(starts)) {}

  std::vector<NodeId> starts_;  ///< K+1 range boundaries
};

/// One shard's halo: its range and the out-of-range neighbours of it.
struct ShardTopology {
  NodeId vbegin = 0;
  NodeId vend = 0;
  std::vector<NodeId> ghosts;     ///< sorted global ids of halo vertices
  std::uint64_t ghost_edges = 0;  ///< adjacency entries that are ghosts

  NodeId owned() const { return vend - vbegin; }

  /// Collects the halo of [vbegin, vend) in g.
  void build(const Graph& g, NodeId vbegin, NodeId vend);
};

/// A vertex with neighbours outside its range, and how many: every
/// message it broadcasts crosses the cut that many times.
struct CutSender {
  NodeId v;
  std::uint32_t cut_degree;
};

/// The cut senders of range [b, e) in g, ascending; their degrees sum to
/// the range's ghost edges.
std::vector<CutSender> cut_senders(const Graph& g, NodeId b, NodeId e);

}  // namespace ldc
