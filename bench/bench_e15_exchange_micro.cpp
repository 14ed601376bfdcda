// E15 (harness) — exchange-plane micro-benchmark: the allocation-free
// round.
//
// The simulator's hot loop is Network::exchange_broadcast(); this
// experiment pins down what the pooled message plane buys there, per
// topology (ring / random-regular / clique) and model (LOCAL / CONGEST),
// on the serial engine (E20 covers the sharded one). Deterministic
// columns: the per-round traffic and the steady-state allocation verdict
// — the committed baseline therefore *enforces* that a steady-state
// serial round performs zero heap allocations, counting the senders'
// own payload writes: each sender clears and rewrites the writer it
// keeps, the round copies the payloads into the arena's reused word
// pool, and no trace is attached to the timing network. The verdict
// reads "none" only when the whole timed window allocated nothing.
// Observational columns report rounds/sec and the measured allocations
// and bytes per round.
//
// A second table (E15b) times masked rounds — 1/64, 1/2 and all but one
// of the senders live, listed to exchange_broadcast and
// exchange_broadcast_word — the rounds the kernel's push/pull crossover
// (ShardRound::pushes) splits between its two survivor walks, under the
// same zero-allocation gate.
//
// This TU also carries the binary-wide operator new/delete replacement
// that implements the counters. It is malloc-backed and counting-only, so
// every other experiment in ldc_bench is unaffected beyond two relaxed
// atomic increments per allocation.
#include "common.hpp"

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <new>

namespace ldc::bench {

std::atomic<std::uint64_t> g_alloc_count{0};
std::atomic<std::uint64_t> g_alloc_bytes{0};

namespace {
void count_alloc(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(size, std::memory_order_relaxed);
}
}  // namespace
}  // namespace ldc::bench

void* operator new(std::size_t size) {
  ldc::bench::count_alloc(size);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  ldc::bench::count_alloc(size);
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return ::operator new(size, std::nothrow);
}
void* operator new(std::size_t size, std::align_val_t al) {
  ldc::bench::count_alloc(size);
  const std::size_t a = static_cast<std::size_t>(al);
  const std::size_t rounded = (size + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded == 0 ? a : rounded)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t al) {
  return ::operator new(size, al);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace {
using namespace ldc;

struct Topo {
  std::string name;
  Graph g;
  int payload_bits;
};

struct Probe {
  double rounds_per_sec = 0.0;
  std::uint64_t allocs = 0;  ///< heap allocations over the timed window
  std::uint64_t bytes = 0;
  std::uint64_t rounds = 0;

  /// The deterministic gate: "none" only if the timed window allocated
  /// nothing at all.
  std::string alloc_verdict() const {
    return allocs == 0 ? "none" : "ALLOC(" + std::to_string(allocs) + ")";
  }
  double allocs_per_round() const { return double(allocs) / double(rounds); }
  double bytes_per_round() const { return double(bytes) / double(rounds); }
};

// Times `timed_rounds` steady-state rounds of one_round() (after a
// warm-up that sizes the arena) and measures the heap traffic they cause.
template <typename Round>
Probe time_rounds(std::uint64_t timed_rounds, const Round& one_round) {
  for (int i = 0; i < 3; ++i) one_round();  // warm up
  const std::uint64_t allocs0 =
      bench::g_alloc_count.load(std::memory_order_relaxed);
  const std::uint64_t bytes0 =
      bench::g_alloc_bytes.load(std::memory_order_relaxed);
  const auto t0 = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < timed_rounds; ++i) one_round();
  const auto t1 = std::chrono::steady_clock::now();
  Probe p;
  p.rounds_per_sec = static_cast<double>(timed_rounds) /
                     std::chrono::duration<double>(t1 - t0).count();
  p.allocs = bench::g_alloc_count.load(std::memory_order_relaxed) - allocs0;
  p.bytes = bench::g_alloc_bytes.load(std::memory_order_relaxed) - bytes0;
  p.rounds = timed_rounds;
  return p;
}

// Every sender rewrites the writer it keeps: the payload writes of a
// round, counted inside the timed window like the round itself.
void write_payloads(std::vector<BitWriter>& msgs, int payload_bits) {
  for (BitWriter& w : msgs) {
    w.clear();
    w.write(0x5eed, payload_bits);
  }
}

// The all-live broadcast loop. No trace is attached: this is the bare
// hot loop.
Probe time_broadcast(const Graph& g, int payload_bits, bool congest,
                     std::uint64_t timed_rounds) {
  Network net(g, congest ? static_cast<std::size_t>(payload_bits) : 0);
  std::vector<BitWriter> msgs(g.n());
  return time_rounds(timed_rounds, [&] {
    write_payloads(msgs, payload_bits);
    net.exchange_broadcast(msgs);
  });
}

/// One live fraction of the masked-round table.
struct LiveMix {
  std::string name;
  std::vector<NodeId> senders;  ///< ascending
};

// The masked table's senders: 1 in 64, half, and all but one.
std::vector<LiveMix> live_mixes(NodeId n) {
  std::vector<LiveMix> mixes;
  auto mix = [&](std::string name, auto live) {
    LiveMix m{std::move(name), {}};
    for (NodeId v = 0; v < n; ++v) {
      if (live(v)) m.senders.push_back(v);
    }
    mixes.push_back(std::move(m));
  };
  mix("1/64", [](NodeId v) { return v % 64 == 0; });
  mix("1/2", [](NodeId v) { return v % 2 == 0; });
  mix("all but one", [](NodeId v) { return v != 0; });
  return mixes;
}

// Masked rounds: a fixed live set broadcasts every round, as messages or
// as one word per sender. The kernel resolves them with
// the push or the pull survivor walk, whichever its crossover picks, so
// the rows pin both walks' throughput and their zero-allocation steady
// state.
void masked_table(harness::ExperimentContext& ctx,
                  std::uint64_t timed_rounds) {
  const Graph g =
      gen::random_regular(ctx.pick<std::uint32_t>(8192, 1024), 16, 7);
  const int payload_bits = 32;
  const std::uint64_t bound = (std::uint64_t{1} << payload_bits) - 1;
  std::vector<BitWriter> msgs(g.n());
  std::vector<std::uint64_t> words(g.n());
  for (NodeId v = 0; v < g.n(); ++v) {
    words[v] = (v * 0x9E3779B97F4A7C15ull) & bound;
  }

  auto& t = ctx.table(
      "E15b: masked exchange rounds (random-regular, degree 16, n = " +
          std::to_string(g.n()) + "; " + std::to_string(timed_rounds) +
          " steady-state rounds/config)",
      {"topology", "engine", "live", "API", "messages/round", "bits/round",
       "steady-state alloc", "rounds/s (obs)"});
  for (const LiveMix& mix : live_mixes(g.n())) {
    for (const bool fused : {false, true}) {
      const std::string api =
          fused ? "exchange_broadcast_word" : "exchange_broadcast";
      auto one_round = [&](Network& net) {
        if (fused) {
          (void)net.exchange_broadcast_word(words, bound, mix.senders);
        } else {
          write_payloads(msgs, payload_bits);
          (void)net.exchange_broadcast(msgs, mix.senders);
        }
      };
      Network traced(g);
      ctx.prepare(traced);
      for (int i = 0; i < 2; ++i) one_round(traced);
      ctx.record("random-regular/serial/live=" + mix.name + "/" + api,
                 traced);

      Network bare(g);
      const Probe p = time_rounds(timed_rounds, [&] { one_round(bare); });
      t.add_row({"random-regular", "serial", mix.name, api,
                 traced.metrics().messages / 2,
                 traced.metrics().total_bits / 2, p.alloc_verdict(),
                 p.rounds_per_sec});
    }
  }
}

void run(harness::ExperimentContext& ctx) {
  std::vector<Topo> topos;
  topos.push_back({"ring", gen::ring(ctx.pick<std::uint32_t>(4096, 512)),
                   32});
  topos.push_back({"random-regular",
                   gen::random_regular(ctx.pick<std::uint32_t>(1024, 256),
                                       16, 7),
                   32});
  topos.push_back({"clique", gen::clique(ctx.pick<std::uint32_t>(256, 64)),
                   64});
  const std::uint64_t timed_rounds = ctx.pick<std::uint64_t>(200, 40);

  // The title is a cell of the committed baseline, so it keeps its words.
  auto& t = ctx.table(
      "E15: exchange_broadcast micro (zero-copy plane; " +
          std::to_string(timed_rounds) + " steady-state rounds/config)",
      {"topology", "engine", "model", "messages/round", "bits/round",
       "steady-state alloc", "rounds/s (obs)", "allocs/round (obs)",
       "bytes/round (obs)"});

  for (const Topo& topo : topos) {
    for (const bool congest : {false, true}) {
      const std::string engine = "serial";
      const std::string model = congest ? "CONGEST" : "LOCAL";
      const std::string label = topo.name + "/" + engine + "/" + model;

      // Deterministic leg: a prepared (traced) network records the
      // model-exact traffic and digest for the baseline gate.
      Network net(topo.g,
                  congest ? static_cast<std::size_t>(topo.payload_bits) : 0);
      ctx.prepare(net);
      const std::vector<BitWriter> msgs = bench::uniform_broadcast(
          topo.g.n(), 0x5eed, topo.payload_bits);
      for (int i = 0; i < 2; ++i) net.exchange_broadcast(msgs);
      ctx.record(label, net);
      const std::uint64_t msgs_per_round = net.metrics().messages / 2;
      const std::uint64_t bits_per_round = net.metrics().total_bits / 2;

      // Timing leg: a bare network, no trace. The allocation verdict is a
      // deterministic column — the baseline fails if a steady-state
      // serial round ever allocates again.
      const Probe p =
          time_broadcast(topo.g, topo.payload_bits, congest, timed_rounds);
      t.add_row({topo.name, engine, model, msgs_per_round, bits_per_round,
                 p.alloc_verdict(), p.rounds_per_sec, p.allocs_per_round(),
                 p.bytes_per_round()});
    }
  }
  masked_table(ctx, timed_rounds);
}

const harness::Registrar reg{{
    .name = "e15_exchange_micro",
    .claim = "Perf: the pooled message plane makes a steady-state serial "
             "broadcast round allocation-free, masked or not, counting the "
             "senders' payload writes, and lifts exchange rounds/sec across "
             "topologies and models",
    .axes = {"topology", "engine", "model"},
    .run = run,
}};

}  // namespace
