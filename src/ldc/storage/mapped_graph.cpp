#include "ldc/storage/mapped_graph.hpp"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <string>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include "ldc/support/fnv.hpp"

namespace ldc::storage {

struct MappedGraph::Mapping {
  const unsigned char* data = nullptr;
  std::size_t len = 0;

  ~Mapping() {
    if (data != nullptr) {
      ::munmap(const_cast<unsigned char*>(data), len);
    }
  }
};

std::shared_ptr<const MappedGraph> MappedGraph::open(const std::string& path,
                                                     bool verify_content) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    throw CorpusError("corpus " + path + ": cannot open: " +
                      std::strerror(errno));
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    const int err = errno;
    ::close(fd);
    throw CorpusError("corpus " + path + ": stat failed: " +
                      std::strerror(err));
  }
  const auto file_bytes = static_cast<std::uint64_t>(st.st_size);
  if (file_bytes < kCorpusHeaderBytes) {
    ::close(fd);
    throw CorpusError("corpus " + path + ": truncated header (" +
                      std::to_string(file_bytes) + " of " +
                      std::to_string(kCorpusHeaderBytes) + " bytes)");
  }

  auto mapping = std::make_shared<Mapping>();
  void* addr = ::mmap(nullptr, file_bytes, PROT_READ, MAP_SHARED, fd, 0);
  ::close(fd);  // the mapping keeps its own reference to the file
  if (addr == MAP_FAILED) {
    throw CorpusError("corpus " + path + ": mmap failed: " +
                      std::strerror(errno));
  }
  mapping->data = static_cast<const unsigned char*>(addr);
  mapping->len = file_bytes;

  // Structural validation reads only the header page; a bad header must
  // never be followed by a section access.
  auto mg = std::shared_ptr<MappedGraph>(new MappedGraph());
  mg->path_ = path;
  mg->mapping_ = mapping;
  mg->layout_ = parse_corpus_header(
      {mapping->data, static_cast<std::size_t>(
                          std::min<std::uint64_t>(file_bytes, kCorpusPage))},
      file_bytes, path);

  if (verify_content) mg->verify();
  return mg;
}

void MappedGraph::verify() const {
  advise_sequential();
  const auto& lo = layout_;
  const unsigned char* data = mapping_->data;
  std::uint64_t section_digests[3] = {
      fnv1a64_bytes(data + lo.offsets_pos, lo.offsets_bytes),
      fnv1a64_bytes(data + lo.ids_pos, lo.ids_bytes),
      fnv1a64_bytes(data + lo.adj_pos, lo.adj_bytes)};
  if (fnv1a64_bytes(section_digests, sizeof section_digests) !=
      lo.meta.content_digest) {
    throw CorpusError("corpus " + path_ + ": content digest mismatch");
  }
  // The offsets rows feed Graph::view unchecked, so a verified open
  // also pins down the two structural invariants cheap enough to test
  // without a full monotonicity scan at every open.
  const auto* off =
      reinterpret_cast<const std::uint64_t*>(data + lo.offsets_pos);
  if (off[0] != 0 || off[lo.meta.n] != lo.meta.adj_entries) {
    throw CorpusError("corpus " + path_ +
                      ": offsets do not match the adjacency section");
  }
}

Graph MappedGraph::graph() const {
  const auto& lo = layout_;
  const unsigned char* base = mapping_->data;
  std::span<const std::uint64_t> offsets{
      reinterpret_cast<const std::uint64_t*>(base + lo.offsets_pos),
      static_cast<std::size_t>(lo.meta.n + 1)};
  std::span<const NodeId> adj{
      reinterpret_cast<const NodeId*>(base + lo.adj_pos),
      static_cast<std::size_t>(lo.meta.adj_entries)};
  std::span<const std::uint64_t> ids;
  if (lo.meta.has_ids) {
    ids = {reinterpret_cast<const std::uint64_t*>(base + lo.ids_pos),
           static_cast<std::size_t>(lo.meta.n)};
  }
  return Graph::view(offsets, adj, ids, lo.meta.max_degree, lo.meta.max_id,
                     mapping_);
}

long MappedGraph::open_pins() const { return mapping_.use_count() - 1; }

void MappedGraph::advise_sequential() const {
  ::madvise(const_cast<unsigned char*>(mapping_->data), mapping_->len,
            MADV_SEQUENTIAL);
}

void MappedGraph::advise_random() const {
  ::madvise(const_cast<unsigned char*>(mapping_->data), mapping_->len,
            MADV_RANDOM);
}

}  // namespace ldc::storage
