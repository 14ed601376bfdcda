// The out-of-core corpus store: streaming writer round-trips, the
// MappedGraph-vs-in-RAM digest equivalence the format promises, registry
// sharing, and — because corpus files are untrusted on-disk input — a
// hostility battery where every malformed file must surface as a typed
// CorpusError naming the failing check, never a crash or a silently
// wrong graph.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "ldc/graph/generators.hpp"
#include "ldc/storage/corpus.hpp"
#include "ldc/storage/mapped_graph.hpp"
#include "ldc/storage/registry.hpp"
#include "ldc/storage/stream_gen.hpp"

namespace ldc {
namespace {

using storage::CorpusError;
using storage::CorpusMeta;
using storage::CorpusWriter;
using storage::MappedGraph;

/// Unique corpus path under the test temp dir, removed on destruction.
class TempCorpus {
 public:
  explicit TempCorpus(const std::string& tag)
      : path_(testing::TempDir() + "corpus_" + tag + ".ldcg") {
    std::remove(path_.c_str());
  }
  ~TempCorpus() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// Streams an in-RAM graph through the writer (identity ids).
CorpusMeta write_graph(const Graph& g, const std::string& path) {
  CorpusWriter w(path, g.n(), /*with_ids=*/false);
  for (NodeId v = 0; v < g.n(); ++v) w.add_vertex(g.neighbors(v));
  return w.close();
}

void expect_same_graph(const Graph& a, const Graph& b) {
  ASSERT_EQ(a.n(), b.n());
  ASSERT_EQ(a.m(), b.m());
  ASSERT_EQ(a.max_degree(), b.max_degree());
  for (NodeId v = 0; v < a.n(); ++v) {
    ASSERT_EQ(a.id(v), b.id(v)) << "v=" << v;
    const auto na = a.neighbors(v);
    const auto nb = b.neighbors(v);
    ASSERT_EQ(na.size(), nb.size()) << "v=" << v;
    for (std::size_t i = 0; i < na.size(); ++i) {
      ASSERT_EQ(na[i], nb[i]) << "v=" << v << " i=" << i;
    }
  }
}

std::vector<char> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

void write_file(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(CorpusWriter, RoundTripsAGeneratedGraph) {
  const Graph g = gen::gnp(300, 0.05, 11);
  TempCorpus tc("roundtrip");
  const CorpusMeta meta = write_graph(g, tc.path());
  EXPECT_EQ(meta.n, g.n());
  EXPECT_EQ(meta.m(), g.m());
  EXPECT_EQ(meta.max_degree, g.max_degree());

  const auto mg = MappedGraph::open(tc.path(), /*verify_content=*/true);
  EXPECT_EQ(mg->meta().content_digest, meta.content_digest);
  expect_same_graph(g, mg->graph());
}

TEST(CorpusWriter, RoundTripsExternalIds) {
  Graph g = gen::ring(50);
  gen::scramble_ids(g, 1 << 20, 3);
  TempCorpus tc("ids");
  CorpusWriter w(tc.path(), g.n(), /*with_ids=*/true);
  for (NodeId v = 0; v < g.n(); ++v) w.add_vertex(g.neighbors(v), g.id(v));
  w.close();
  const auto mg = MappedGraph::open(tc.path(), /*verify_content=*/true);
  EXPECT_TRUE(mg->meta().has_ids);
  expect_same_graph(g, mg->graph());
}

TEST(CorpusWriter, DigestIsContentNotName) {
  const Graph g = gen::random_regular(64, 4, 5);
  TempCorpus a("digest_a"), b("digest_b");
  EXPECT_EQ(write_graph(g, a.path()).content_digest,
            write_graph(g, b.path()).content_digest);
  const Graph h = gen::random_regular(64, 4, 6);  // different seed
  TempCorpus c("digest_c");
  EXPECT_NE(write_graph(h, c.path()).content_digest,
            write_graph(g, a.path()).content_digest);
}

TEST(CorpusWriter, RejectsBadRows) {
  TempCorpus tc("badrows");
  {
    CorpusWriter w(tc.path(), 3, false);
    const NodeId self[] = {0};
    EXPECT_THROW(w.add_vertex(self), CorpusError);  // self-loop
  }
  {
    CorpusWriter w(tc.path(), 3, false);
    const NodeId range[] = {7};
    EXPECT_THROW(w.add_vertex(range), CorpusError);  // out of range
  }
  {
    CorpusWriter w(tc.path(), 3, false);
    const NodeId unsorted[] = {2, 1};
    EXPECT_THROW(w.add_vertex(unsorted), CorpusError);  // not ascending
  }
  {
    CorpusWriter w(tc.path(), 3, false);
    const NodeId row[] = {1};
    w.add_vertex(row);
    EXPECT_THROW(w.close(), CorpusError);  // 1 of 3 rows
  }
}

TEST(CorpusWriter, CrashedBuildIsNotACorpus) {
  TempCorpus tc("crashed");
  {
    CorpusWriter w(tc.path(), 2, false);
    const NodeId row[] = {1};
    w.add_vertex(row);
    // Writer destroyed without close(): header stays zeroed.
  }
  EXPECT_THROW(MappedGraph::open(tc.path()), CorpusError);
}

// ---- Streaming generators --------------------------------------------

TEST(StreamGen, MappedEqualsMaterializedForEveryFamily) {
  using namespace storage::gen;
  const StreamSpec specs[] = {
      stream_ring(97, 1),
      stream_random_regular(120, 6, 2),
      stream_gnp(150, 12, 0.3, 3),
      stream_kronecker(7, 8.0, 4),
      stream_rgg_2d(200, 0.1, 5),
  };
  for (const auto& spec : specs) {
    TempCorpus tc("family_" + spec.kind);
    const CorpusMeta meta = write_corpus(spec, tc.path());
    const auto mg = MappedGraph::open(tc.path(), /*verify_content=*/true);
    EXPECT_EQ(mg->meta().content_digest, meta.content_digest) << spec.kind;
    const Graph ram = materialize(spec);
    SCOPED_TRACE(spec.kind);
    expect_same_graph(ram, mg->graph());
  }
}

TEST(StreamGen, OutputIndependentOfChunkSize) {
  using namespace storage::gen;
  const StreamSpec spec = stream_kronecker(6, 10.0, 9);
  TempCorpus a("chunk_a"), b("chunk_b");
  const auto da = write_corpus(spec, a.path(), /*chunk_nodes=*/7);
  const auto db = write_corpus(spec, b.path(), /*chunk_nodes=*/1u << 16);
  EXPECT_EQ(da.content_digest, db.content_digest);
}

TEST(StreamGen, ScrambledIdsAreUniqueAndRecorded) {
  using namespace storage::gen;
  StreamSpec spec = stream_ring(64, 4);
  spec.scrambled_ids = true;
  TempCorpus tc("feistel");
  write_corpus(spec, tc.path());
  const auto mg = MappedGraph::open(tc.path(), /*verify_content=*/true);
  const Graph g = mg->graph();
  std::vector<std::uint64_t> seen;
  for (NodeId v = 0; v < g.n(); ++v) seen.push_back(g.id(v));
  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(std::unique(seen.begin(), seen.end()), seen.end());
  // Must match the materialized oracle (same Feistel key schedule).
  const Graph ram = materialize(spec);
  for (NodeId v = 0; v < g.n(); ++v) EXPECT_EQ(g.id(v), ram.id(v));
}

TEST(StreamGen, RegularIsExactlyRegular) {
  using namespace storage::gen;
  const Graph g = materialize(stream_random_regular(101, 8, 7));
  for (NodeId v = 0; v < g.n(); ++v) EXPECT_EQ(g.degree(v), 8u);
}

TEST(StreamGen, ValidatesSpecs) {
  using namespace storage::gen;
  EXPECT_THROW(validate(stream_ring(2, 1)), std::invalid_argument);
  EXPECT_THROW(validate(stream_random_regular(10, 3, 1)),
               std::invalid_argument);  // odd degree
  EXPECT_THROW(validate(stream_random_regular(6, 6, 1)),
               std::invalid_argument);  // too dense for circulant
  EXPECT_THROW(validate(stream_gnp(10, 0, 0.5, 1)), std::invalid_argument);
  EXPECT_THROW(validate(stream_gnp(10, 2, 1.5, 1)), std::invalid_argument);
  EXPECT_THROW(validate(stream_rgg_2d(10, 0.0, 1)), std::invalid_argument);
  StreamSpec bad = stream_ring(10, 1);
  bad.kind = "nope";
  EXPECT_THROW(validate(bad), std::invalid_argument);
}

// ---- Hostile corpus files --------------------------------------------

class HostileCorpus : public ::testing::Test {
 protected:
  void SetUp() override {
    // ctest runs each case as its own, concurrent process: one file each.
    tc_ = std::make_unique<TempCorpus>(
        std::string("hostile_") +
        ::testing::UnitTest::GetInstance()->current_test_info()->name());
    write_graph(gen::gnp(50, 0.1, 2), tc_->path());
    bytes_ = read_file(tc_->path());
    ASSERT_GE(bytes_.size(), storage::kCorpusHeaderBytes);
  }

  /// Rewrites the corpus with `bytes` and returns the open error message.
  std::string open_error(const std::vector<char>& bytes,
                         bool verify = false) {
    write_file(tc_->path(), bytes);
    try {
      MappedGraph::open(tc_->path(), verify);
    } catch (const CorpusError& e) {
      return e.what();
    }
    return "";
  }

  std::unique_ptr<TempCorpus> tc_;
  std::vector<char> bytes_;
};

TEST_F(HostileCorpus, TruncatedHeader) {
  std::vector<char> t(bytes_.begin(), bytes_.begin() + 40);
  EXPECT_NE(open_error(t).find("truncated header"), std::string::npos);
}

TEST_F(HostileCorpus, WrongMagic) {
  auto t = bytes_;
  t[0] = 'X';
  EXPECT_NE(open_error(t).find("bad magic"), std::string::npos);
}

TEST_F(HostileCorpus, WrongVersion) {
  auto t = bytes_;
  t[12] = 99;  // version field; header digest must be refreshed to match
  // A version bump alone also breaks the header digest — which is the
  // check that must fire first for a *corrupt* header. To test the
  // version check itself we must forge a valid digest, which the test
  // cannot do without reimplementing the writer — so accept either
  // message: both are typed CorpusErrors that refuse the file.
  const std::string err = open_error(t);
  EXPECT_TRUE(err.find("version") != std::string::npos ||
              err.find("digest") != std::string::npos)
      << err;
}

TEST_F(HostileCorpus, CorruptHeaderDigest) {
  auto t = bytes_;
  t[16] ^= 1;  // flip a bit of n
  EXPECT_NE(open_error(t).find("header digest mismatch"),
            std::string::npos);
}

TEST_F(HostileCorpus, FileShorterThanHeaderClaims) {
  // Keep the header page intact but drop the tail of the adjacency
  // section: the structural bounds check must catch it before any read.
  std::vector<char> t(bytes_.begin(), bytes_.end() - 64);
  EXPECT_NE(open_error(t).find("file shorter than header claims"),
            std::string::npos);
}

TEST_F(HostileCorpus, ContentCorruptionCaughtByVerify) {
  auto t = bytes_;
  t.back() ^= 0x40;  // flip a bit in the last adjacency entry
  EXPECT_NE(open_error(t, /*verify=*/true).find("content digest mismatch"),
            std::string::npos);
}

TEST_F(HostileCorpus, EmptyFile) {
  EXPECT_NE(open_error({}).find("truncated header"), std::string::npos);
}

TEST_F(HostileCorpus, MissingFile) {
  std::remove(tc_->path().c_str());
  EXPECT_THROW(MappedGraph::open(tc_->path()), CorpusError);
}

// ---- Registry ---------------------------------------------------------

TEST(CorpusRegistry, ValidatesNames) {
  EXPECT_TRUE(storage::valid_corpus_name("ring1m"));
  EXPECT_TRUE(storage::valid_corpus_name("a-b_c.2"));
  EXPECT_FALSE(storage::valid_corpus_name(""));
  EXPECT_FALSE(storage::valid_corpus_name(".hidden"));
  EXPECT_FALSE(storage::valid_corpus_name("../escape"));
  EXPECT_FALSE(storage::valid_corpus_name("a/b"));
  EXPECT_FALSE(storage::valid_corpus_name(std::string(200, 'a')));
}

TEST(CorpusRegistry, OpensOnceAndShares) {
  const std::string dir = testing::TempDir();
  TempCorpus tc("registry_reg");  // lives in dir as corpus_registry_reg.ldcg
  write_graph(gen::ring(30), tc.path());

  storage::CorpusRegistry reg(dir.substr(0, dir.size() - 1));
  const auto a = reg.get("corpus_registry_reg");
  const auto b = reg.get("corpus_registry_reg");
  EXPECT_EQ(a.get(), b.get());  // one mapping, shared

  const auto infos = reg.list();
  ASSERT_EQ(infos.size(), 1u);
  EXPECT_EQ(infos[0].name, "corpus_registry_reg");
  EXPECT_EQ(infos[0].vertices, 30u);
  EXPECT_EQ(infos[0].edges, 30u);

  EXPECT_THROW(reg.get("no/such"), CorpusError);
  EXPECT_THROW(reg.get("absent"), CorpusError);
}

TEST(CorpusRegistry, GraphOutlivesRegistryEntry) {
  const std::string dir = testing::TempDir();
  TempCorpus tc("registry_pin");
  write_graph(gen::path(16), tc.path());
  Graph g;
  {
    storage::CorpusRegistry reg(dir.substr(0, dir.size() - 1));
    g = reg.get("corpus_registry_pin")->graph();
  }
  // The registry (and its MappedGraph) are gone; the pin keeps the bytes.
  EXPECT_EQ(g.n(), 16u);
  EXPECT_EQ(g.m(), 15u);
  EXPECT_EQ(g.neighbors(1)[0], 0u);
}

}  // namespace
}  // namespace ldc
