// Monkey fuzzing: random graph family x random instance x random solver
// options, many iterations. The contract under test: the library either
// produces a *valid* coloring or throws a typed error (InfeasibleError /
// std::invalid_argument) — it never returns an invalid coloring and never
// crashes. The protocol fuzz at the bottom extends the same contract to
// the serving frontend: mutated line-JSON and mid-request disconnects
// must never produce anything but typed error events (runs under the
// ASan CI job like the rest of this file).
#include <gtest/gtest.h>

#include <cerrno>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <unistd.h>

#include "ldc/coloring/instance_gen.hpp"
#include "ldc/coloring/validate.hpp"
#include "ldc/d1lc/congest_colorer.hpp"
#include "ldc/graph/generators.hpp"
#include "ldc/harness/json.hpp"
#include "ldc/linial/linial.hpp"
#include "ldc/oldc/multi_defect.hpp"
#include "ldc/oldc/two_phase.hpp"
#include "ldc/service/event_loop.hpp"
#include "ldc/support/prf.hpp"

namespace ldc {
namespace {

Graph random_graph(SplitMix64& rng) {
  switch (rng.next_below(6)) {
    case 0: return gen::ring(3 + rng.next_below(60));
    case 1: return gen::clique(2 + rng.next_below(12));
    case 2: return gen::gnp(10 + rng.next_below(60),
                            0.02 + rng.next_double() * 0.3, rng.next());
    case 3: {
      std::uint32_t n = 10 + rng.next_below(60);
      std::uint32_t d = 2 + rng.next_below(6);
      if ((static_cast<std::uint64_t>(n) * d) % 2) ++n;
      return gen::random_regular(n, d, rng.next());
    }
    case 4: return gen::random_tree(2 + rng.next_below(60), rng.next());
    default: return gen::torus(3 + rng.next_below(5), 3 + rng.next_below(5));
  }
}

TEST(Fuzz, PipelineNeverReturnsInvalid) {
  SplitMix64 rng(0xf022);
  for (int iter = 0; iter < 25; ++iter) {
    Graph g = random_graph(rng);
    gen::scramble_ids(g, 1ULL << (16 + rng.next_below(16)), rng.next());
    const std::uint64_t space =
        (g.max_degree() + 1) * (1 + rng.next_below(8));
    const LdcInstance inst =
        space == g.max_degree() + 1
            ? delta_plus_one_instance(g)
            : degree_plus_one_instance(g, space, rng.next());
    d1lc::PipelineOptions opt;
    opt.reduction_levels = static_cast<std::uint32_t>(rng.next_below(4));
    opt.params.kprime = 4 + static_cast<std::uint32_t>(rng.next_below(28));
    opt.params.tau_cap = 2 + static_cast<std::uint32_t>(rng.next_below(18));
    opt.t13.q_factor = 0.5 + rng.next_double() * 4.0;
    Network net(g);
    try {
      const auto res = d1lc::color(net, inst, opt);
      EXPECT_TRUE(validate_proper(g, res.phi).ok) << "iter " << iter;
      EXPECT_TRUE(validate_membership(inst, res.phi).ok) << "iter " << iter;
    } catch (const InfeasibleError&) {
      // Acceptable typed failure (extreme random parameters).
    }
  }
}

TEST(Fuzz, OldcSolversNeverReturnInvalid) {
  SplitMix64 rng(0xf023);
  for (int iter = 0; iter < 25; ++iter) {
    Graph g = random_graph(rng);
    if (g.max_degree() == 0) continue;
    gen::scramble_ids(g, 1ULL << 20, rng.next());
    const Orientation orient = (rng.next() & 1)
                                   ? Orientation::by_decreasing_id(g)
                                   : Orientation::random(g, rng.next());
    RandomLdcParams p;
    p.color_space = 256 + rng.next_below(1 << 14);
    p.one_plus_nu = 2.0;
    p.kappa = 1.0 + rng.next_double() * 60.0;
    p.max_defect = static_cast<std::uint32_t>(
        rng.next_below(orient.max_beta() + 2));
    p.seed = rng.next();
    LdcInstance inst;
    try {
      inst = random_weighted_oriented_instance(g, orient, p);
    } catch (const std::invalid_argument&) {
      continue;  // color space too small for the drawn parameters
    }
    Network net(g);
    const auto lin = linial::color(net);
    try {
      if (rng.next() & 1) {
        oldc::MultiDefectInput in;
        in.inst = &inst;
        in.orientation = &orient;
        in.initial = &lin.phi;
        in.m = lin.palette;
        in.g = static_cast<std::uint32_t>(rng.next_below(3));
        const auto res = oldc::solve_multi_defect(net, in);
        EXPECT_TRUE(validate_oldc(inst, orient, res.phi, in.g).ok)
            << "iter " << iter;
      } else {
        oldc::TwoPhaseInput in;
        in.inst = &inst;
        in.orientation = &orient;
        in.initial = &lin.phi;
        in.m = lin.palette;
        const auto res = oldc::solve_two_phase(net, in);
        EXPECT_TRUE(validate_oldc(inst, orient, res.phi).ok)
            << "iter " << iter;
      }
    } catch (const InfeasibleError&) {
      // Acceptable typed failure.
    }
  }
}

// ---------------------------------------------------------------------------
// Protocol fuzz: the event-loop frontend vs hostile line-JSON.

void fuzz_send_all(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return;  // server closed the session (e.g. outbuf overflow): fine
    }
    off += static_cast<std::size_t>(n);
  }
}

std::string fuzz_read_to_eof(int fd) {
  std::string stream;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof buf);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (n == 0) break;
    stream.append(buf, static_cast<std::size_t>(n));
  }
  return stream;
}

/// One seed line from the pool of well-formed requests (plus a tiny
/// valid submit), before mutation.
std::string fuzz_seed_line(SplitMix64& rng) {
  switch (rng.next_below(8)) {
    case 0:
      return "{\"op\":\"submit\",\"job\":{\"algorithm\":\"greedy\","
             "\"graph\":{\"family\":\"ring\",\"n\":8}}}";
    case 1: return "{\"op\":\"cancel\",\"id\":" +
                   std::to_string(rng.next_below(8)) + "}";
    case 2: return "{\"op\":\"pause\"}";
    case 3: return "{\"op\":\"resume\"}";
    case 4: return "{\"op\":\"stats\",\"counters_only\":true}";
    case 5: return "{\"op\":\"drain\"}";
    case 6: return "{\"op\":\"" + std::string(1 + rng.next_below(12), 'x') +
                   "\"}";
    default: return "{\"op\":12,\"job\":null}";
  }
}

/// Seeded mutator: truncation, splicing two lines together, byte
/// injection, duplication, and overlong lines (the session's line limit
/// is shrunk so the overlong path actually triggers).
std::string fuzz_mutate(std::string line, SplitMix64& rng) {
  switch (rng.next_below(6)) {
    case 0:  // truncate mid-request
      if (!line.empty()) line.resize(rng.next_below(line.size()));
      return line;
    case 1:  // splice: two requests interleaved on one line
      return line + fuzz_seed_line(rng);
    case 2: {  // inject random bytes (including NUL and high bits)
      for (int i = 0; i < 4; ++i) {
        const char c = static_cast<char>(rng.next_below(256));
        if (c == '\n' || c == '\r') continue;
        line.insert(rng.next_below(line.size() + 1), 1, c);
      }
      return line;
    }
    case 3:  // overlong: blows past max_line_bytes
      return line + std::string(600, 'a');
    case 4:  // leading garbage
      return std::string("\t \x01garbage") + line;
    default:
      return line;  // pass through unmutated
  }
}

TEST(Fuzz, ProtocolSessionsSurviveHostileBytes) {
  service::ServiceConfig cfg;
  cfg.workers = 2;
  cfg.queue_capacity = 32;
  service::EventLoopOptions opts;
  opts.max_line_bytes = 256;  // overlong path reachable
  service::EventLoopServer server(cfg, opts);
  std::thread loop([&] { server.run(); });

  SplitMix64 rng(0xf024);
  for (int iter = 0; iter < 30; ++iter) {
    int sv[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
    server.adopt(sv[0]);

    std::string script;
    const std::size_t lines = 3 + rng.next_below(12);
    for (std::size_t i = 0; i < lines; ++i) {
      script += fuzz_mutate(fuzz_seed_line(rng), rng);
      script.push_back('\n');
    }
    const bool disconnect = rng.next_below(3) == 0;
    if (disconnect) {
      // Mid-request disconnect: leave a torn line, never read a byte.
      script += "{\"op\":\"sub";
      fuzz_send_all(sv[1], script);
      ::close(sv[1]);
      continue;
    }
    script += "{\"op\":\"shutdown\"}\n";
    fuzz_send_all(sv[1], script);
    const std::string stream = fuzz_read_to_eof(sv[1]);
    ::close(sv[1]);

    // Every response byte is well-formed line-JSON carrying an event —
    // hostile input yields typed error events, never garbage output.
    std::size_t pos = 0, nl;
    std::size_t parsed = 0;
    while ((nl = stream.find('\n', pos)) != std::string::npos) {
      const std::string line = stream.substr(pos, nl - pos);
      pos = nl + 1;
      harness::Json ev;
      ASSERT_NO_THROW(ev = harness::Json::parse_line(line))
          << "iter " << iter << ": unparsable response: " << line;
      EXPECT_NE(ev.find("event"), nullptr) << "iter " << iter;
      ++parsed;
    }
    EXPECT_EQ(pos, stream.size()) << "iter " << iter
                                  << ": torn trailing response bytes";
    EXPECT_GT(parsed, 0u) << "iter " << iter;
  }

  // The server is still fully functional after every hostile session.
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  server.adopt(sv[0]);
  fuzz_send_all(sv[1],
                "{\"op\":\"submit\",\"job\":{\"algorithm\":\"greedy\","
                "\"graph\":{\"family\":\"ring\",\"n\":8}}}\n"
                "{\"op\":\"drain\"}\n{\"op\":\"shutdown\"}\n");
  const std::string stream = fuzz_read_to_eof(sv[1]);
  ::close(sv[1]);
  EXPECT_NE(stream.find("\"event\":\"admitted\""), std::string::npos);
  EXPECT_NE(stream.find("\"event\":\"result\""), std::string::npos);
  EXPECT_NE(stream.find("\"event\":\"bye\""), std::string::npos);

  server.stop();
  loop.join();
}

}  // namespace
}  // namespace ldc
