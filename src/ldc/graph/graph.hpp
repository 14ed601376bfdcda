// Immutable undirected graph in CSR form.
//
// This is the communication topology for the simulated LOCAL/CONGEST network
// (Peleg'00): nodes carry unique O(log n)-bit identifiers and exchange
// messages over edges. The structure is immutable after construction; use
// GraphBuilder to assemble one.
//
// Storage model. A Graph reads its three CSR arrays (offsets, adjacency,
// ids) through spans. The owning constructor points them at private
// vectors; Graph::view() points them at caller-provided memory — the
// zero-copy path the mmap-backed corpus store (ldc/storage) uses to run
// algorithms directly over a mapped file. A view may carry a `pin`
// (shared_ptr keepalive, e.g. the mapping object) so by-value copies of
// the Graph can never outlive the bytes they read. Offsets are 64-bit so
// a mapped adjacency section may exceed 2^32 entries; node ids stay
// 32-bit. An empty ids span means identity ids (id(v) == v) — identity is
// never materialized, so a billion-vertex view costs no id storage.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

namespace ldc {

using NodeId = std::uint32_t;

class Graph {
 public:
  Graph() = default;

  /// Builds from CSR arrays (owning). `offsets` has n+1 entries; `adj`
  /// lists each undirected edge twice. `ids` are the unique node
  /// identifiers (defaults to the node index when empty).
  Graph(std::vector<std::uint32_t> offsets, std::vector<NodeId> adj,
        std::vector<std::uint64_t> ids = {});

  /// Zero-copy view over external CSR storage. `offsets` must have n + 1
  /// entries ending in adj.size(); `ids` may be empty (identity). The
  /// caller vouches for the invariants the owning constructor would check
  /// (sorted adjacency rows, unique ids) and supplies the precomputed
  /// stats — the corpus format stores them in its header precisely so a
  /// multi-gigabyte mapping is never scanned at open time. `pin` keeps
  /// the backing storage alive across by-value copies of the view (pass
  /// nullptr when the caller guarantees lifetime by other means).
  static Graph view(std::span<const std::uint64_t> offsets,
                    std::span<const NodeId> adj,
                    std::span<const std::uint64_t> ids,
                    std::uint32_t max_degree, std::uint64_t max_id,
                    std::shared_ptr<const void> pin);

  // Spans must track the owned vectors across copies; moves keep heap
  // buffers stable so the defaults are correct for them.
  Graph(const Graph& other) { *this = other; }
  Graph& operator=(const Graph& other);
  Graph(Graph&&) = default;
  Graph& operator=(Graph&&) = default;

  std::uint32_t n() const { return static_cast<std::uint32_t>(offsets_.empty() ? 0 : offsets_.size() - 1); }

  /// Number of undirected edges.
  std::uint64_t m() const { return adj_.size() / 2; }

  std::uint32_t degree(NodeId v) const {
    return static_cast<std::uint32_t>(offsets_[v + 1] - offsets_[v]);
  }

  std::span<const NodeId> neighbors(NodeId v) const {
    return {adj_.data() + offsets_[v], adj_.data() + offsets_[v + 1]};
  }

  /// Where v's row starts in the adjacency array: the degree sum of the
  /// vertices before v (v may be n(), giving 2m()).
  std::uint64_t row_begin(NodeId v) const { return offsets_[v]; }

  std::uint32_t max_degree() const { return max_degree_; }

  /// Unique identifier of node v (the initial "m-coloring by IDs").
  std::uint64_t id(NodeId v) const {
    return ids_.empty() ? v : ids_[v];
  }

  std::uint64_t max_id() const { return max_id_; }

  /// Replaces node identifiers (used by tests exercising the log* n
  /// dependence on the identifier space). Must be unique; checked. Works
  /// on views too: the new ids are owned by this Graph, the topology
  /// stays external.
  void set_ids(std::vector<std::uint64_t> ids);

  /// True if u and v are adjacent (binary search; adjacency lists sorted).
  bool has_edge(NodeId u, NodeId v) const;

  /// Index of neighbor u within v's adjacency list; n() if absent.
  std::uint32_t neighbor_index(NodeId v, NodeId u) const;

 private:
  // Owned storage (empty for the externally backed arrays of a view).
  std::vector<std::uint64_t> own_offsets_;
  std::vector<NodeId> own_adj_;
  std::vector<std::uint64_t> own_ids_;
  std::shared_ptr<const void> pin_;  ///< external-storage keepalive

  std::span<const std::uint64_t> offsets_;
  std::span<const NodeId> adj_;
  std::span<const std::uint64_t> ids_;  ///< empty => identity ids

  std::uint32_t max_degree_ = 0;
  std::uint64_t max_id_ = 0;
};

}  // namespace ldc
