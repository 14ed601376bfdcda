// E18 (harness) — node-program micro: fused word-broadcast rounds.
//
// Broadcast-only rounds whose payload is a single bounded word (a color,
// a candidate index) dominate the Linial and OLDC schedules. The word
// path (Network::exchange_broadcast_word, "fused") posts each sender's
// word as it is; the message path ("unfused") writes it with a BitWriter
// per sender and each receiver decodes it with read_bounded. Both rows
// are dense rounds, which fill no per-edge slot, so the speedup measures
// just that write and decode. This experiment pins the claim from both
// sides:
//
//  - Deterministic columns: per-round traffic (identical to the unfused
//    path by construction — the accounting is replicated, not
//    approximated), a decode checksum parity verdict between the fused
//    and unfused paths, and the fused serial steady-state allocation
//    verdict (the committed baseline *enforces* zero heap allocations).
//  - Observational columns: rounds/sec for each path and the resulting
//    speedup on the serial engine. The acceptance bar is >= 3x on
//    broadcast-only Linial-style rounds.
//
// The allocation counters are the binary-wide operator new/delete
// replacement carried by bench_e15_exchange_micro.cpp.
#include "common.hpp"

#include <atomic>
#include <chrono>

namespace ldc::bench {
extern std::atomic<std::uint64_t> g_alloc_count;
extern std::atomic<std::uint64_t> g_alloc_bytes;
}  // namespace ldc::bench

namespace {
using namespace ldc;

struct Topo {
  std::string name;
  Graph g;
  std::uint64_t bound;  ///< broadcast words are drawn from [0, bound]
};

struct Probe {
  double rounds_per_sec = 0.0;
  std::uint64_t allocs = 0;    ///< heap allocations over the timed window
  std::uint64_t checksum = 0;  ///< wrapping sum of every decoded word
};

// The per-node word each sender broadcasts every round: a fixed
// pseudo-random color in [0, bound], exactly what a Linial round sends.
std::vector<std::uint64_t> make_words(const Graph& g, std::uint64_t bound) {
  std::vector<std::uint64_t> words(g.n());
  for (NodeId v = 0; v < g.n(); ++v) {
    words[v] = (v * 0x9E3779B97F4A7C15ull) % (bound + 1);
  }
  return words;
}

// Times `timed_rounds` steady-state broadcast+decode rounds (after a
// warm-up that sizes the arena). Each round is a full node program: write
// the word, exchange, decode every neighbor's word into a per-node sum.
// No trace is attached: this is the bare hot loop.
Probe time_rounds(const Graph& g, std::uint64_t bound, bool fused,
                  std::uint64_t timed_rounds) {
  Network net(g);
  const std::vector<std::uint64_t> colors = make_words(g, bound);
  std::vector<std::uint64_t> words(g.n());
  std::vector<BitWriter> msgs(g.n());
  std::vector<std::uint64_t> sums(g.n());

  const auto one_round = [&]() {
    if (fused) {
      net.run_node_programs([&](NodeId v) { words[v] = colors[v]; });
      const WordMail in = net.exchange_broadcast_word(words, bound);
      net.run_node_programs([&](NodeId v) {
        std::uint64_t s = 0;
        for (const auto [u, word] : in[v]) {
          (void)u;
          s += word;
        }
        sums[v] = s;
      });
    } else {
      net.run_node_programs([&](NodeId v) {
        msgs[v].clear();
        msgs[v].write_bounded(colors[v], bound);
      });
      const auto in = net.exchange_broadcast(msgs);
      net.run_node_programs([&](NodeId v) {
        std::uint64_t s = 0;
        for (auto [u, r] : in[v]) {
          (void)u;
          s += r.read_bounded(bound);
        }
        sums[v] = s;
      });
    }
  };

  for (int i = 0; i < 3; ++i) one_round();  // warm up: size the arena
  const std::uint64_t allocs0 =
      bench::g_alloc_count.load(std::memory_order_relaxed);
  const auto t0 = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < timed_rounds; ++i) one_round();
  const auto t1 = std::chrono::steady_clock::now();

  Probe p;
  p.rounds_per_sec = static_cast<double>(timed_rounds) /
                     std::chrono::duration<double>(t1 - t0).count();
  p.allocs = bench::g_alloc_count.load(std::memory_order_relaxed) - allocs0;
  for (std::uint64_t s : sums) p.checksum += s;
  return p;
}

void run(harness::ExperimentContext& ctx) {
  std::vector<Topo> topos;
  {
    const std::uint32_t ring_n = ctx.pick<std::uint32_t>(4096, 512);
    topos.push_back({"ring", gen::ring(ring_n), ring_n - 1});
    const std::uint32_t reg_n = ctx.pick<std::uint32_t>(1024, 256);
    topos.push_back(
        {"random-regular", gen::random_regular(reg_n, 16, 7), reg_n - 1});
    const std::uint32_t clique_n = ctx.pick<std::uint32_t>(256, 64);
    topos.push_back({"clique", gen::clique(clique_n), clique_n - 1});
  }
  const std::uint64_t timed_rounds = ctx.pick<std::uint64_t>(200, 40);

  auto& t = ctx.table(
      "E18: fused word-broadcast rounds vs. per-edge mail (" +
          std::to_string(timed_rounds) + " steady-state rounds/config)",
      {"topology", "engine", "messages/round", "bits/round", "decode parity",
       "fused alloc", "unfused rounds/s (obs)", "fused rounds/s (obs)",
       "speedup (obs)"});

  for (const Topo& topo : topos) {
    // Deterministic leg: traced networks pin the digests of both paths in
    // the baseline; their traffic counters must agree exactly.
    std::uint64_t msgs_per_round = 0;
    std::uint64_t bits_per_round = 0;
    bool traffic_match = true;
    {
      const std::vector<std::uint64_t> colors = make_words(topo.g, topo.bound);
      Network fused_net(topo.g);
      ctx.prepare(fused_net);
      for (int i = 0; i < 2; ++i) {
        (void)fused_net.exchange_broadcast_word(colors, topo.bound);
      }
      ctx.record(topo.name + "/fused", fused_net);
      msgs_per_round = fused_net.metrics().messages / 2;
      bits_per_round = fused_net.metrics().total_bits / 2;

      Network unfused_net(topo.g);
      ctx.prepare(unfused_net);
      std::vector<BitWriter> msgs(topo.g.n());
      for (NodeId v = 0; v < topo.g.n(); ++v) {
        msgs[v].write_bounded(colors[v], topo.bound);
      }
      for (int i = 0; i < 2; ++i) (void)unfused_net.exchange_broadcast(msgs);
      ctx.record(topo.name + "/unfused", unfused_net);
      traffic_match = unfused_net.metrics().messages / 2 == msgs_per_round &&
                      unfused_net.metrics().total_bits / 2 == bits_per_round;
    }

    const Probe unfused = time_rounds(topo.g, topo.bound, false, timed_rounds);
    const Probe fused = time_rounds(topo.g, topo.bound, true, timed_rounds);
    const std::string parity =
        (fused.checksum == unfused.checksum && traffic_match) ? "match"
                                                              : "MISMATCH";
    // "none" only if the whole timed window allocated nothing.
    const std::string alloc_verdict =
        fused.allocs == 0 ? "none"
                          : "ALLOC(" + std::to_string(fused.allocs) + ")";
    t.add_row({topo.name, "serial", msgs_per_round, bits_per_round, parity,
               alloc_verdict, unfused.rounds_per_sec, fused.rounds_per_sec,
               fused.rounds_per_sec / unfused.rounds_per_sec});
  }
}

const harness::Registrar reg{{
    .name = "e18_nodeprog_micro",
    .claim = "Perf: fusing broadcast-only rounds into one word per sender "
             "skips per-edge mail, multiplying rounds/sec while staying "
             "allocation-free and byte-equivalent to the unfused path",
    .axes = {"topology", "engine", "path"},
    .run = run,
}};

}  // namespace
