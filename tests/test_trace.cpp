#include "ldc/runtime/trace.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "ldc/coloring/instance_gen.hpp"
#include "ldc/d1lc/congest_colorer.hpp"
#include "ldc/graph/generators.hpp"
#include "ldc/runtime/network.hpp"

namespace ldc {
namespace {

BitWriter make_msg(std::uint64_t v, int bits) {
  BitWriter w;
  w.write(v, bits);
  return w;
}

TEST(Trace, RecordsPerRoundAggregates) {
  const Graph g = gen::ring(4);
  Network net(g);
  Trace trace;
  net.attach_trace(&trace);
  trace.mark("phase-a");
  net.exchange_broadcast(std::vector<BitWriter>(4, make_msg(1, 8)));
  trace.mark("phase-b");
  net.exchange_broadcast(std::vector<BitWriter>(4, make_msg(1, 4)));
  ASSERT_EQ(trace.rounds().size(), 2u);
  EXPECT_EQ(trace.rounds()[0].messages, 8u);
  EXPECT_EQ(trace.rounds()[0].bits, 64u);
  EXPECT_EQ(trace.rounds()[0].max_message_bits, 8u);
  EXPECT_EQ(trace.rounds()[0].mark, "phase-a");
  EXPECT_EQ(trace.rounds()[1].bits, 32u);
  EXPECT_EQ(trace.rounds()[1].mark, "phase-b");
}

TEST(Trace, DigestDistinguishesTranscripts) {
  const Graph g = gen::ring(4);
  Trace a, b, c;
  {
    Network net(g);
    net.attach_trace(&a);
    net.exchange_broadcast(std::vector<BitWriter>(4, make_msg(1, 8)));
  }
  {
    Network net(g);
    net.attach_trace(&b);
    net.exchange_broadcast(std::vector<BitWriter>(4, make_msg(1, 8)));
  }
  {
    Network net(g);
    net.attach_trace(&c);
    net.exchange_broadcast(std::vector<BitWriter>(4, make_msg(1, 9)));
  }
  EXPECT_EQ(a.digest(), b.digest());
  EXPECT_NE(a.digest(), c.digest());
}

TEST(Trace, PipelineTranscriptIsDeterministic) {
  Graph g = gen::gnp(48, 0.15, 4);
  gen::scramble_ids(g, 1 << 20, 5);
  const LdcInstance inst = delta_plus_one_instance(g);
  auto run = [&]() {
    Network net(g);
    Trace t;
    net.attach_trace(&t);
    d1lc::color(net, inst);
    return t.digest();
  };
  EXPECT_EQ(run(), run());
}

TEST(Trace, PrintGroupsByMark) {
  Trace t;
  t.mark("setup");
  t.record_round(2, 16, 8);
  t.record_round(2, 16, 8);
  t.mark("solve");
  t.record_round(1, 4, 4);
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("--- setup ---"), std::string::npos);
  EXPECT_NE(out.find("--- solve ---"), std::string::npos);
  EXPECT_NE(out.find("round 2: 1 msgs, 4 bits"), std::string::npos);
}

TEST(Trace, SolverPhaseMarksAppear) {
  // Solvers label their phases on the attached trace; a pipeline run must
  // show the linial and Theorem 1.3 sections in order.
  Graph g = gen::gnp(40, 0.15, 6);
  gen::scramble_ids(g, 1 << 20, 7);
  const LdcInstance inst = delta_plus_one_instance(g);
  Network net(g);
  Trace t;
  net.attach_trace(&t);
  d1lc::color(net, inst);
  bool saw_linial = false, saw_t13 = false;
  std::size_t first_linial = 0, first_t13 = 0;
  for (std::size_t i = 0; i < t.rounds().size(); ++i) {
    const auto& mark = t.rounds()[i].mark;
    if (!saw_linial && mark == "pipeline/linial") {
      saw_linial = true;
      first_linial = i;
    }
    if (!saw_t13 && mark == "pipeline/theorem-1.3") {
      saw_t13 = true;
      first_t13 = i;
    }
  }
  EXPECT_TRUE(saw_linial);
  EXPECT_TRUE(saw_t13);
  EXPECT_LT(first_linial, first_t13);
}

TEST(Trace, AdvanceRoundsRecordsSilentRounds) {
  // Invariant: an attached trace's transcript length always equals
  // metrics().rounds — silent (payload-free) rounds appear as empty
  // records under the current mark, so trace-derived round counts can
  // never drift from the metrics.
  const Graph g = gen::ring(4);
  Network net(g);
  Trace t;
  net.attach_trace(&t);
  net.exchange_broadcast(std::vector<BitWriter>(4, make_msg(1, 8)));
  t.mark("silent-phase");
  net.advance_rounds(3);
  net.exchange_broadcast(std::vector<BitWriter>(4, make_msg(1, 8)));
  EXPECT_EQ(net.metrics().rounds, 5u);
  ASSERT_EQ(t.rounds().size(), 5u);
  for (std::size_t i = 1; i <= 3; ++i) {
    EXPECT_EQ(t.rounds()[i].messages, 0u);
    EXPECT_EQ(t.rounds()[i].bits, 0u);
    EXPECT_EQ(t.rounds()[i].mark, "silent-phase");
  }
  EXPECT_EQ(t.rounds()[4].messages, 8u);
}

TEST(Trace, AbsorbRecordsAggregateAndSilentRounds) {
  // Network::absorb() used to bump metrics().rounds without telling the
  // trace, breaking the transcript-length invariant. It now records one
  // aggregate row plus silent rounds, conserving both the round count and
  // the traffic sums.
  const Graph g = gen::ring(4);
  Network net(g);
  Trace t;
  net.attach_trace(&t);
  net.exchange_broadcast(std::vector<BitWriter>(4, make_msg(1, 8)));
  RunMetrics sub;
  sub.rounds = 3;
  sub.messages = 10;
  sub.total_bits = 120;
  sub.max_message_bits = 16;
  net.absorb(sub);
  EXPECT_EQ(net.metrics().rounds, 4u);
  ASSERT_EQ(t.rounds().size(), 4u);
  std::uint64_t msgs = 0, bits = 0;
  for (const auto& r : t.rounds()) {
    msgs += r.messages;
    bits += r.bits;
  }
  EXPECT_EQ(msgs, net.metrics().messages);
  EXPECT_EQ(bits, net.metrics().total_bits);
  EXPECT_EQ(t.rounds()[1].messages, 10u);  // aggregate row first
  EXPECT_EQ(t.rounds()[2].messages, 0u);   // then silent rounds
  EXPECT_EQ(t.rounds()[3].messages, 0u);
}

TEST(Trace, AbsorbOfZeroRoundSubRunRecordsNothing) {
  const Graph g = gen::ring(4);
  Network net(g);
  Trace t;
  net.attach_trace(&t);
  RunMetrics sub;  // rounds == 0 (e.g. an empty parallel branch)
  net.absorb(sub);
  EXPECT_EQ(net.metrics().rounds, 0u);
  EXPECT_TRUE(t.rounds().empty());
}

TEST(Trace, PipelineTranscriptLengthMatchesMetricsRounds) {
  // End-to-end regression: the d1lc pipeline absorbs sub-runs (per-class
  // OLDC solves, color space reduction) and advances structural rounds; the
  // transcript must account for every one of metrics().rounds.
  Graph g = gen::gnp(48, 0.15, 4);
  gen::scramble_ids(g, 1 << 20, 5);
  const LdcInstance inst = delta_plus_one_instance(g);
  Network net(g);
  Trace t;
  net.attach_trace(&t);
  d1lc::color(net, inst);
  EXPECT_EQ(t.rounds().size(), net.metrics().rounds);
  std::uint64_t msgs = 0, bits = 0;
  for (const auto& r : t.rounds()) {
    msgs += r.messages;
    bits += r.bits;
  }
  EXPECT_EQ(msgs, net.metrics().messages);
  EXPECT_EQ(bits, net.metrics().total_bits);
}

TEST(Trace, FaultFieldsAreDigestedOnlyWhenPresent) {
  // Fault-free transcripts keep the legacy digest fold (faults contribute
  // nothing), while any nonzero fault counter must change the digest.
  Trace a, b, c;
  a.record_round(2, 16, 8);
  RoundFaults none;
  b.record_round(2, 16, 8, 0, none);
  RoundFaults dropped;
  dropped.dropped = 1;
  c.record_round(2, 16, 8, 0, dropped);
  EXPECT_EQ(a.digest(), b.digest());
  EXPECT_NE(a.digest(), c.digest());
}

TEST(Trace, SilentRoundsChangeTheDigest) {
  // Two executions that differ only in silent structural rounds must not
  // collide: transcripts certify full executions, including round counts.
  Trace a, b;
  a.record_round(2, 16, 8);
  b.record_round(2, 16, 8);
  b.record_silent(2);
  EXPECT_NE(a.digest(), b.digest());
}

TEST(Trace, WallTimeExcludedFromDigest) {
  Trace a, b;
  a.record_round(2, 16, 8, /*wall_ns=*/123);
  b.record_round(2, 16, 8, /*wall_ns=*/456789);
  EXPECT_EQ(a.digest(), b.digest());
  EXPECT_EQ(a.rounds()[0].wall_ns, 123u);
}

TEST(Trace, EmptyTraceDigestStable) {
  Trace a, b;
  EXPECT_EQ(a.digest(), b.digest());
}

}  // namespace
}  // namespace ldc
