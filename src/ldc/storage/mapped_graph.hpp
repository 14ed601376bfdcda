// Read-only mmap view of a corpus file (corpus.hpp).
//
// MappedGraph::open maps the file PROT_READ/MAP_SHARED and validates the
// header structurally (magic, version, endianness, header digest, section
// bounds against the true file size) — touching only the header page, so
// opening a 100 GB corpus is O(1). graph() then returns an ldc::Graph
// whose CSR spans point straight into the mapping: algorithm code,
// Network and the engines run over paged storage with zero copies, and
// the kernel shares the clean pages copy-on-write across every worker
// (and every process) mapping the same file.
//
// Lifetime/ownership rules: the mapping is owned by an internal
// refcounted block; every Graph handed out by graph() pins it, so a
// by-value Graph copy — e.g. one captured by a running job — keeps the
// bytes mapped even after the MappedGraph (or the registry entry) is
// dropped. Nothing is ever unmapped while a reader exists.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "ldc/graph/graph.hpp"
#include "ldc/storage/corpus.hpp"

namespace ldc::storage {

class MappedGraph {
 public:
  /// Maps and validates `path`. With verify_content, additionally runs
  /// verify() (reads the whole file — ldc_gen --verify and the hostility
  /// tests use it; the serve path does not). Throws CorpusError naming the
  /// failing check.
  static std::shared_ptr<const MappedGraph> open(const std::string& path,
                                                 bool verify_content = false);

  /// Streams every section recomputing the content digest, and checks
  /// the offsets' two ends against the adjacency section. Throws
  /// CorpusError on a mismatch. A caller may map first and verify later,
  /// as the distributed coordinator does while its workers start.
  void verify() const;

  const CorpusMeta& meta() const { return layout_.meta; }
  std::uint64_t file_bytes() const { return layout_.meta.file_bytes; }

  /// Zero-copy Graph view pinned to the mapping — safe to copy by value
  /// and to outlive this MappedGraph.
  Graph graph() const;

  /// How many pins (graph() copies still alive + registry handles) hold
  /// the mapping, excluding this object's own reference. Observability
  /// only (stats `corpora` section).
  long open_pins() const;

  /// Hints the kernel the mapping will be walked sequentially /
  /// revisited randomly (madvise; best-effort).
  void advise_sequential() const;
  void advise_random() const;

 private:
  struct Mapping;  // RAII munmap block
  MappedGraph() = default;

  std::string path_;
  std::shared_ptr<const Mapping> mapping_;
  CorpusLayout layout_;
};

}  // namespace ldc::storage
