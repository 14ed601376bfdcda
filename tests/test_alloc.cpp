// Heap-allocation gates. This binary replaces the global operator new
// with a counting one, so each test reads the exact number of allocations
// the code under test makes:
//
//  * a steady-state message round on the serial engine allocates nothing,
//    counting its senders' payload writes (each sender clears and
//    rewrites the writer it keeps);
//  * so does every round shape on the sharded engine (K = 4), and a node
//    program whose lambda captures four references, on either engine:
//    crew jobs and node programs travel as CallableRefs, where a
//    std::function allocated once its captures outgrew the small buffer;
//  * so does a listed round on either engine, sparse (the push walk over
//    stamped rows) or dense (the pull walk over raised flags), with a
//    colour-class round's decode over the round's receivers;
//  * one d1lc run (Theorem 1.4's colorer, default options) stays under
//    a fifth of the allocations it made while payloads were refcounted
//    blocks and node programs built per-node containers every round:
//    305,374 at (n = 1,024, Delta = 16) with (Delta+1)-lists, and 653,643
//    at perfbench's d1lc-serial shape (n = 2,000, Delta = 32, lists over
//    2(Delta+1) colors).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "ldc/coloring/instance_gen.hpp"
#include "ldc/d1lc/congest_colorer.hpp"
#include "ldc/graph/generators.hpp"
#include "ldc/runtime/class_rounds.hpp"
#include "ldc/runtime/network.hpp"
#include "ldc/runtime/mail.hpp"

namespace {
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace ldc {
namespace {

std::uint64_t allocs() { return g_allocs.load(std::memory_order_relaxed); }

TEST(Allocations, SteadyStateBroadcastRoundAllocatesNothing) {
  const Graph g = gen::random_regular(256, 16, 7);
  Network net(g);
  std::vector<BitWriter> msgs(g.n());
  std::vector<NodeId> half;
  for (NodeId v = 0; v < g.n(); v += 2) half.push_back(v);
  std::uint64_t sum = 0;
  auto round = [&](std::uint64_t r) {
    for (NodeId v = 0; v < g.n(); ++v) {
      msgs[v].clear();
      msgs[v].write_bounded((v + r) % 1000, 999);
      if (v % 7 == 0) msgs[v].write(r, 64);  // some two-word payloads
    }
    const auto all = net.exchange_broadcast(msgs);
    for (auto [u, rd] : all[r % g.n()]) sum += u + rd.read_bounded(999);
    const auto masked = net.exchange_broadcast(msgs, half);
    for (auto [u, rd] : masked[r % g.n()]) sum += u + rd.read_bounded(999);
  };
  for (std::uint64_t r = 0; r < 3; ++r) round(r);  // grow every buffer
  const std::uint64_t before = allocs();
  for (std::uint64_t r = 3; r < 40; ++r) round(r);
  EXPECT_EQ(allocs() - before, 0u);
  EXPECT_GT(sum, 0u);
}

/// Allocations of rounds 3..39 of round(r), after rounds 0..2 grew every
/// buffer.
template <typename Round>
std::uint64_t steady_state_allocations(const Round& round) {
  for (std::uint64_t r = 0; r < 3; ++r) round(r);
  const std::uint64_t before = allocs();
  for (std::uint64_t r = 3; r < 40; ++r) round(r);
  return allocs() - before;
}

TEST(Allocations, ShardedBroadcastRoundsAllocateNothing) {
  const Graph g = gen::random_regular(256, 16, 7);
  Network net(g);
  net.set_engine(Network::Engine::kSharded, 4);
  std::vector<BitWriter> msgs(g.n());
  std::vector<NodeId> half;
  for (NodeId v = 0; v < g.n(); v += 2) half.push_back(v);
  std::uint64_t sum = 0;
  EXPECT_EQ(steady_state_allocations([&](std::uint64_t r) {
              for (NodeId v = 0; v < g.n(); ++v) {
                msgs[v].clear();
                msgs[v].write_bounded((v + r) % 1000, 999);
              }
              const auto all = net.exchange_broadcast(msgs);
              for (auto [u, rd] : all[r % g.n()]) sum += u + rd.read(10);
              const auto listed = net.exchange_broadcast(msgs, half);
              for (auto [u, rd] : listed[r % g.n()]) sum += u + rd.read(10);
            }),
            0u);
  EXPECT_GT(sum, 0u);
}

TEST(Allocations, ShardedWordRoundsAllocateNothing) {
  const Graph g = gen::random_regular(256, 16, 7);
  Network net(g);
  net.set_engine(Network::Engine::kSharded, 4);
  std::vector<std::uint64_t> words(g.n());
  std::vector<NodeId> half;
  for (NodeId v = 0; v < g.n(); v += 2) half.push_back(v);
  std::uint64_t sum = 0;
  EXPECT_EQ(steady_state_allocations([&](std::uint64_t r) {
              for (NodeId v = 0; v < g.n(); ++v) words[v] = (v + r) % 1000;
              const WordMail all = net.exchange_broadcast_word(words, 999);
              for (const auto [u, w] : all[r % g.n()]) sum += u + w;
              const WordMail listed =
                  net.exchange_broadcast_word(words, 999, half);
              for (const auto [u, w] : listed[r % g.n()]) sum += u + w;
            }),
            0u);
  EXPECT_GT(sum, 0u);
}

/// Allocations of 10 run_node_programs calls whose lambda captures four
/// references, all nodes and a node list, on `shards` shards (0: serial).
std::uint64_t node_program_allocations(std::size_t shards) {
  const Graph g = gen::random_regular(256, 16, 7);
  Network net(g);
  if (shards != 0) net.set_engine(Network::Engine::kSharded, shards);
  std::vector<std::uint64_t> a(g.n()), b(g.n()), c(g.n());
  std::vector<NodeId> half;
  for (NodeId v = 0; v < g.n(); v += 2) half.push_back(v);
  std::uint64_t k = 3;
  auto program = [&a, &b, &c, &k](NodeId v) { a[v] = b[v] + c[v] + k; };
  net.run_node_programs(program);  // wakes the crew
  const std::uint64_t before = allocs();
  for (int i = 0; i < 10; ++i) {
    net.run_node_programs([&a, &b, &c, &k](NodeId v) {
      a[v] = b[v] + c[v] + k;
    });
    net.run_node_programs(half, [&a, &b, &c, &k](NodeId v) {
      b[v] = a[v] + c[v] + k;
    });
  }
  return allocs() - before;
}

TEST(Allocations, SerialNodeProgramsWithFourCapturesAllocateNothing) {
  EXPECT_EQ(node_program_allocations(0), 0u);
}

TEST(Allocations, ShardedNodeProgramsWithFourCapturesAllocateNothing) {
  EXPECT_EQ(node_program_allocations(4), 0u);
}

/// Allocations of a second cycle of listed rounds on `shards` shards (0:
/// serial), after a first cycle grew every buffer: per round, one colour
/// class (1/16 of the nodes, the push walk) speaks through ClassRounds,
/// whose decode runs over the round's receivers, then 7/8 of the nodes
/// (the pull walk) speak in a listed word round.
std::uint64_t listed_round_allocations(std::size_t shards) {
  const Graph g = gen::random_regular(1024, 16, 7);
  Network net(g);
  if (shards != 0) net.set_engine(Network::Engine::kSharded, shards);
  ClassRounds rounds(net);
  rounds.bucket(16, [](NodeId v) { return v % 16; });
  std::vector<NodeId> dense;
  for (NodeId v = 0; v < g.n(); ++v) {
    if (v % 8 != 0) dense.push_back(v);
  }
  std::vector<std::uint64_t> heard(g.n(), 0);
  std::uint64_t sum = 0;
  auto round = [&](std::uint64_t r) {
    for (NodeId v = 0; v < g.n(); ++v) rounds.words()[v] = (v + r) % 1000;
    rounds.exchange(rounds.members(r % 16), 999,
                    [&](NodeId v, WordMail::Lane lane) {
                      for (const auto [u, w] : lane) heard[v] += u + w;
                    });
    const WordMail in = net.exchange_broadcast_word(rounds.words(), 999, dense);
    for (NodeId v : in.receivers()) sum += in[v].size();
  };
  for (std::uint64_t r = 0; r < 16; ++r) round(r);
  const std::uint64_t before = allocs();
  for (std::uint64_t r = 16; r < 48; ++r) round(r);
  const std::uint64_t used = allocs() - before;
  EXPECT_GT(sum, 0u);
  EXPECT_GT(heard[1], 0u);
  return used;
}

TEST(Allocations, SerialListedRoundsAllocateNothing) {
  EXPECT_EQ(listed_round_allocations(0), 0u);
}

TEST(Allocations, ShardedListedRoundsAllocateNothing) {
  EXPECT_EQ(listed_round_allocations(4), 0u);
}

/// Heap allocations of one d1lc run, the colouring checked valid.
std::uint64_t d1lc_allocations(const Graph& g, const LdcInstance& inst) {
  Network net(g);
  const std::uint64_t before = allocs();
  const d1lc::PipelineResult res = d1lc::color(net, inst);
  const std::uint64_t used = allocs() - before;
  EXPECT_TRUE(res.valid);
  return used;
}

TEST(Allocations, D1lcRunAt1024Nodes16Regular) {
  const Graph g = gen::random_regular(1024, 16, 7);
  const LdcInstance inst = delta_plus_one_instance(g);
  EXPECT_LE(d1lc_allocations(g, inst), 305'374u / 5);
}

TEST(Allocations, D1lcRunAtTheD1lcSerialShape) {
  const Graph g = gen::random_regular(2000, 32, 1);
  const LdcInstance inst = degree_plus_one_instance(
      g, 2 * (std::uint64_t{g.max_degree()} + 1), 101);
  EXPECT_LE(d1lc_allocations(g, inst), 653'643u / 5);
}

}  // namespace
}  // namespace ldc
