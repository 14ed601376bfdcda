// Wire-format hostility battery (ISSUE 10 satellite): the distributed
// engine's frames are untrusted input — a worker can be buggy, a socket
// can tear, a byte can flip. This file drives a seeded mutator over
// streams of valid frames (truncations, splices, bit flips in header and
// payload, wrong versions/magics, oversized length prefixes, count
// tampering, garbage prefixes) and asserts the decoder's contract: every
// malformed stream yields a typed dist::FrameError or a clean
// "need more bytes", NEVER a crash, an allocation driven by a hostile
// length, or a silently wrong frame. Run it under ASan/UBSan to make
// "never a crash" mean something.
#include <gtest/gtest.h>

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include <unistd.h>

#include "ldc/dist/wire.hpp"

namespace ldc::dist {
namespace {

/// Deterministic splitmix64 — the battery must replay byte-identically
/// from its seed, so a CI failure is reproducible locally.
struct Rng {
  std::uint64_t state;
  std::uint64_t next() {
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  std::uint64_t below(std::uint64_t n) { return n == 0 ? 0 : next() % n; }
};

/// A few representative valid frames of the wire's kinds: empty payload,
/// small payload, a payload with structure (fault ctx + sender list), and
/// a large-ish reply of rows.
std::vector<std::string> valid_frames() {
  std::vector<std::string> fs;
  fs.push_back(encode_frame(FrameKind::kShutdown, 7, 1, 0, 0, {}));
  {
    PayloadWriter w;
    w.u64(12);
    w.u64(3);
    fs.push_back(encode_frame(FrameKind::kAssignAck, 0, 0, 2, 0, w.take()));
  }
  {
    PayloadWriter w;
    FaultPlan plan;
    plan.seed = 0xfeed;
    plan.drop_rate = 0.25;
    encode_fault_ctx(w, &plan, std::vector<char>(40, 0).data(), 40);
    const std::vector<NodeId> senders = {1, 17, 39};
    encode_senders(w, senders, 40);
    fs.push_back(encode_frame(FrameKind::kBcast, 2, 0, 1, 3, w.take()));
  }
  {
    PayloadWriter w;
    w.u64(5);  // dropped
    w.u64(2);  // corrupted
    w.u32(200);
    NodeId next = 1000;
    for (NodeId v = 1000; v < 1200; ++v) {
      write_row(w, next, v, 1);
      w.u32(v * 2654435761u % 5000);
    }
    fs.push_back(encode_frame(FrameKind::kInboxIds, 5, 2, 0, 200, w.take()));
  }
  return fs;
}

/// Drains a byte stream through FrameReader in randomly sized feeds.
/// Returns the decoded frames; FrameError propagates to the caller.
std::vector<Frame> drain(const std::string& bytes, Rng& rng) {
  FrameReader reader;
  std::vector<Frame> out;
  std::size_t off = 0;
  while (off < bytes.size()) {
    const std::size_t take =
        std::min<std::size_t>(bytes.size() - off, 1 + rng.below(97));
    reader.feed(bytes.data() + off, take);
    off += take;
    while (std::optional<Frame> f = reader.next()) out.push_back(std::move(*f));
  }
  return out;
}

TEST(DistFuzz, ValidStreamsRoundTripUnderAnyFeedChunking) {
  const std::vector<std::string> fs = valid_frames();
  Rng rng{0xc0ffee};
  for (int iter = 0; iter < 200; ++iter) {
    std::string stream;
    std::vector<std::size_t> order;
    const std::size_t count = 1 + rng.below(6);
    for (std::size_t i = 0; i < count; ++i) {
      const std::size_t pick = rng.below(fs.size());
      order.push_back(pick);
      stream += fs[pick];
    }
    std::vector<Frame> got;
    ASSERT_NO_THROW(got = drain(stream, rng)) << "iter " << iter;
    ASSERT_EQ(got.size(), order.size()) << "iter " << iter;
    for (std::size_t i = 0; i < got.size(); ++i) {
      // Re-encoding the decoded frame must reproduce the input bytes.
      const std::string re = encode_frame(
          got[i].header.kind, got[i].header.round, got[i].header.src_shard,
          got[i].header.dst_shard, got[i].header.count, got[i].payload);
      EXPECT_EQ(re, fs[order[i]]) << "iter " << iter << " frame " << i;
    }
  }
}

TEST(DistFuzz, TruncatedStreamsNeverYieldAFrameFromThePartialTail) {
  const std::vector<std::string> fs = valid_frames();
  for (const std::string& f : fs) {
    for (std::size_t cut = 0; cut < f.size(); ++cut) {
      FrameReader reader;
      reader.feed(f.data(), cut);
      try {
        EXPECT_FALSE(reader.next().has_value()) << "cut " << cut;
        // A partial frame is visible as such (torn-frame reporting).
        EXPECT_EQ(reader.mid_frame(), cut != 0) << "cut " << cut;
      } catch (const FrameError&) {
        // Acceptable only once enough of a header exists to fail a check
        // — truncation alone must read as "wait for more bytes".
        ADD_FAILURE() << "prefix of a valid frame rejected at cut " << cut;
      }
    }
  }
}

// The core battery: seeded mutations over valid streams. Every outcome
// must be a valid frame, a quiet wait-for-more, or a typed FrameError —
// mutations that structurally cannot produce a valid stream must throw.
TEST(DistFuzz, MutatedStreamsAlwaysFailTyped) {
  const std::vector<std::string> fs = valid_frames();
  Rng rng{0xdead5eed};
  std::uint64_t rejected = 0;
  const int kIters = 4000;
  for (int iter = 0; iter < kIters; ++iter) {
    std::string stream = fs[rng.below(fs.size())] + fs[rng.below(fs.size())];
    const std::uint64_t mutation = rng.below(8);
    bool must_throw = false;
    switch (mutation) {
      case 0:  // single bit flip anywhere
        stream[rng.below(stream.size())] ^=
            static_cast<char>(1u << rng.below(8));
        break;
      case 1:  // wrong wire version
        stream[4] = static_cast<char>(kWireVersion + 1);
        must_throw = true;
        break;
      case 2:  // bad magic
        stream[0] = 'X';
        must_throw = true;
        break;
      case 3: {  // oversized payload length prefix (hostile allocation)
        const std::uint64_t huge = kMaxFramePayload + 1 + rng.below(1u << 20);
        std::memcpy(stream.data() + 24, &huge, sizeof huge);
        must_throw = true;
        break;
      }
      case 4: {  // splice: tail of one frame onto the head of another
        const std::string& a = fs[rng.below(fs.size())];
        const std::string& b = fs[rng.below(fs.size())];
        stream = a.substr(0, 1 + rng.below(a.size() - 1)) + b;
        break;
      }
      case 5:  // unknown frame kind
        stream[6] = static_cast<char>(200);
        must_throw = true;
        break;
      case 6:  // nonzero reserved word
        stream[36] = 1;
        must_throw = true;
        break;
      case 7:  // garbage prefix before a valid frame
        stream = std::string(1 + rng.below(16), 'Z') + stream;
        must_throw = true;
        break;
    }
    try {
      const std::vector<Frame> got = drain(stream, rng);
      if (must_throw) {
        ADD_FAILURE() << "iter " << iter << " mutation " << mutation
                      << ": structurally invalid stream decoded "
                      << got.size() << " frames";
      }
      // Anything decoded must re-encode to real frame bytes (no silently
      // wrong frames): digest-valid by construction of next().
    } catch (const FrameError&) {
      ++rejected;  // the typed rejection the contract promises
    }
    // Any other exception type escapes and fails the test.
  }
  // The battery must actually bite: the deterministic seed above rejects
  // the overwhelming majority of mutations (bit flips land in payload or
  // digest far more often than in slack bytes).
  EXPECT_GT(rejected, static_cast<std::uint64_t>(kIters) / 2);
}

// Only assigned kinds are frames: a digest-valid frame of kind 0, of a
// gap in FrameKind — wire version 3's retired kinds 4 to 7, 14, 15 and 17
// included — or past the last kind is a typed rejection.
TEST(DistFuzz, UnassignedFrameKindsAreRejected) {
  for (const std::uint16_t kind :
       {0, 4, 5, 6, 7, 10, 11, 12, 13, 14, 15, 17, 18}) {
    const std::string bytes =
        encode_frame(static_cast<FrameKind>(kind), 1, 0, 0, 0, "x");
    FrameReader reader;
    reader.feed(bytes.data(), bytes.size());
    EXPECT_THROW((void)reader.next(), FrameError) << "kind " << kind;
  }
}

TEST(DistFuzz, CountPayloadDisagreementIsTyped) {
  // A kInboxIds frame whose count promises more slots than the payload
  // holds: header validation can't see it (count is kind-specific), but
  // the payload decoder must fail typed, not overrun — whether the rows
  // claim the promised slots or not.
  auto decode = [](std::uint64_t more) {
    PayloadWriter w;
    w.u64(0);
    w.u64(0);
    w.u32(1);  // one row…
    w.varint(1);
    w.varint(more);
    w.u32(9);  // …holding one sender id
    const std::string frame =
        encode_frame(FrameKind::kInboxIds, 1, 0, 0, /*count=*/3, w.take());
    FrameReader reader;
    reader.feed(frame.data(), frame.size());
    const std::optional<Frame> f = reader.next();
    ASSERT_TRUE(f.has_value());
    PayloadReader r(f->payload, "inbox_ids");
    (void)r.u64();
    (void)r.u64();
    EXPECT_THROW(read_rows(
                     r, 8, 16, f->header.count, "inbox_ids",
                     [](NodeId, std::uint32_t) {}, [&](NodeId) { (void)r.u32(); }),
                 FrameError)
        << "count - 1 = " << more;
  };
  decode(0);  // the row holds 1 of the 3 slots
  decode(2);  // the row claims 3, and the second is a typed overrun
}

// A reply's rows (kInboxIds) are untrusted (receiver, count)
// pairs: a receiver past the shard's range, counts that do not sum to the
// header's slot count, and truncated or overlong varints are typed
// rejections, so the splice never writes a row it does not own. The gap
// coding makes receivers strictly ascending and rows non-empty by
// construction.
TEST(DistFuzz, HostileRowPairsAreTyped) {
  // (gap, count - 1) per row, then as many slots as it claims, at most 4.
  using Rows = std::vector<std::pair<std::uint64_t, std::uint64_t>>;
  auto encode = [](const Rows& rows) {
    PayloadWriter w;
    w.u32(static_cast<std::uint32_t>(rows.size()));
    for (const auto& [gap, more] : rows) {
      w.varint(gap);
      w.varint(more);
      for (std::uint64_t i = 0; i < std::min<std::uint64_t>(more + 1, 4); ++i) {
        w.u32(0);
      }
    }
    return w.take();
  };
  // Rows of the range [8, 16) holding `slots` slots.
  auto read = [](const std::string& payload, std::uint32_t slots) {
    PayloadReader r(payload, "rows");
    std::vector<std::pair<NodeId, std::uint32_t>> opened;
    read_rows(
        r, 8, 16, slots, "rows",
        [&](NodeId v, std::uint32_t count) { opened.emplace_back(v, count); },
        [&](NodeId) { (void)r.u32(); });
    r.expect_end();
    return opened;
  };
  {
    // write_row's pairs read back as written.
    PayloadWriter w;
    w.u32(2);
    NodeId next = 8;
    write_row(w, next, 10, 2);
    w.u32(0);
    w.u32(0);
    write_row(w, next, 12, 1);
    w.u32(0);
    using Opened = std::vector<std::pair<NodeId, std::uint32_t>>;
    EXPECT_EQ(read(w.take(), 3), (Opened{{10, 2}, {12, 1}}));
    EXPECT_EQ(read(encode({}), 0), Opened{});
  }
  EXPECT_THROW(read(encode({{8, 0}}), 1), FrameError);  // receiver 16
  EXPECT_THROW(read(encode({{7, 0}, {0, 0}}), 2), FrameError);  // past 15
  EXPECT_THROW(read(encode({{~0ull, 0}}), 1), FrameError);  // huge gap
  EXPECT_THROW(read(encode({{2, 1}}), 3), FrameError);  // short of 3
  EXPECT_THROW(read(encode({{2, 1}, {1, 1}}), 3), FrameError);  // past 3
  EXPECT_THROW(read(encode({{2, ~0ull}}), 3), FrameError);  // huge count
  {
    PayloadWriter w;  // more rows than the payload holds
    w.u32(1000);
    w.varint(2);
    w.varint(0);
    w.u32(0);
    EXPECT_THROW(read(w.take(), 1), FrameError);
  }
  {
    PayloadWriter w;  // a varint cut off mid-number
    w.u32(1);
    w.u8(0x82);
    EXPECT_THROW(read(w.take(), 1), FrameError);
  }
  {
    PayloadWriter w;  // a varint past 64 bits
    w.u32(1);
    for (int i = 0; i < 10; ++i) w.u8(0xff);
    w.u8(0x01);
    EXPECT_THROW(read(w.take(), 1), FrameError);
  }
}

// A kBcast's sender list travels as u32 ids while they are no larger
// than n flags, else as the bitmap; either way it decodes to the same
// strictly ascending list, and a list that is not one is typed.
TEST(DistFuzz, SenderListsRoundTripAndRejectHostileLists) {
  const NodeId n = 197;  // 25 flag bytes: u32 ids up to 6 senders
  for (const std::vector<NodeId>& ids :
       {std::vector<NodeId>{}, std::vector<NodeId>{0, 7, 196},
        std::vector<NodeId>{1, 2, 3, 4, 5, 6, 190},
        std::vector<NodeId>{0, 63, 64, 65, 127, 128, 196}}) {
    PayloadWriter w;
    encode_senders(w, ids, n);
    EXPECT_EQ(w.size(), ids.size() <= 6 ? 4 * ids.size() : 25u);
    const std::string payload = w.take();
    PayloadReader r(payload, "bcast");
    std::vector<NodeId> got;
    decode_senders(r, static_cast<std::uint32_t>(ids.size()), n, got);
    r.expect_end();
    EXPECT_EQ(got, ids);
  }
  auto decode = [&](const std::string& payload, std::uint32_t count) {
    PayloadReader r(payload, "bcast");
    std::vector<NodeId> got;
    decode_senders(r, count, n, got);
  };
  {
    PayloadWriter w;  // descending ids
    w.u32(9);
    w.u32(3);
    EXPECT_THROW(decode(w.take(), 2), FrameError);
  }
  {
    PayloadWriter w;  // an id past n
    w.u32(197);
    EXPECT_THROW(decode(w.take(), 1), FrameError);
  }
  // A bitmap whose bits disagree with its count, with a bit past n, or
  // cut short.
  std::string bits(25, '\0');
  bits[0] = 0x7f;  // senders 0 to 6
  bits[1] = 0x03;  // and 8, 9
  EXPECT_NO_THROW(decode(bits, 9));
  EXPECT_THROW(decode(bits, 8), FrameError);
  EXPECT_THROW(decode(bits, 10), FrameError);
  bits[24] = static_cast<char>(0x20);  // vertex 197
  EXPECT_THROW(decode(bits, 10), FrameError);
  EXPECT_THROW(decode(std::string(24, '\0'), 9), FrameError);
}

TEST(DistFuzz, PayloadReaderOverrunAndTrailingGarbageAreTyped) {
  {
    PayloadReader r("abc", "test");
    (void)r.u8();
    EXPECT_THROW((void)r.u64(), FrameError);  // 2 bytes left, need 8
  }
  {
    PayloadReader r("abcd", "test");
    (void)r.u32();
    EXPECT_NO_THROW(r.expect_end());
  }
  {
    PayloadReader r("abcde", "test");
    (void)r.u32();
    EXPECT_THROW(r.expect_end(), FrameError);  // trailing byte
  }
  {
    // Truncated fault context: the down bitmap is cut short.
    PayloadWriter w;
    FaultPlan plan;
    plan.seed = 1;
    plan.drop_rate = 0.5;
    encode_fault_ctx(w, &plan, std::vector<char>(64, 1).data(), 64);
    std::string payload = w.take();
    payload.resize(payload.size() - 3);
    PayloadReader r(payload, "fault ctx");
    EXPECT_THROW((void)decode_fault_ctx(r, 64), FrameError);
  }
}

TEST(DistFuzz, RoundTripCodecs) {
  {
    FaultPlan plan;
    plan.seed = 0x1234;
    plan.drop_rate = 0.1;
    plan.corrupt_rate = 0.2;
    plan.crash_rate = 0.05;
    plan.sleep_rate = 0.15;
    plan.max_crashes = 7;
    std::vector<char> down(50, 0);
    down[3] = down[17] = down[49] = 1;
    PayloadWriter w;
    encode_fault_ctx(w, &plan, down.data(), 50);
    const std::string payload = w.take();
    PayloadReader r(payload, "fault ctx");
    const FaultCtx ctx = decode_fault_ctx(r, 50);
    r.expect_end();
    ASSERT_TRUE(ctx.faulty);
    EXPECT_EQ(ctx.plan.seed, plan.seed);
    EXPECT_EQ(ctx.plan.max_crashes, plan.max_crashes);
    EXPECT_DOUBLE_EQ(ctx.plan.drop_rate, plan.drop_rate);
    for (NodeId v = 0; v < 50; ++v) {
      EXPECT_EQ(ctx.down[v], down[v]) << v;
    }
  }
}

// Blocking fd reads share the decoder: clean EOF at a frame boundary is
// nullopt, EOF mid-frame is a typed torn-frame error — and the caller's
// persistent reader keeps coalesced frames (two frames arriving in one
// read(2)) instead of dropping the surplus bytes.
TEST(DistFuzz, ReadFrameFdTornAndCleanEof) {
  const std::string frame =
      encode_frame(FrameKind::kShutdown, 1, 0, 0, 0, {});
  {
    int p[2];
    ASSERT_EQ(::pipe(p), 0);
    const std::string two = frame + encode_frame(FrameKind::kAssignAck, 2, 1,
                                                 0, 0, {});
    ASSERT_EQ(::write(p[1], two.data(), two.size()),
              static_cast<ssize_t>(two.size()));
    ::close(p[1]);
    FrameReader reader;
    const std::optional<Frame> f = read_frame_fd(p[0], reader);
    ASSERT_TRUE(f.has_value());
    EXPECT_EQ(f->header.kind, FrameKind::kShutdown);
    const std::optional<Frame> g = read_frame_fd(p[0], reader);
    ASSERT_TRUE(g.has_value());  // buffered in the reader, not lost
    EXPECT_EQ(g->header.kind, FrameKind::kAssignAck);
    EXPECT_EQ(g->header.round, 2u);
    EXPECT_FALSE(read_frame_fd(p[0], reader).has_value());  // clean EOF
    ::close(p[0]);
  }
  {
    int p[2];
    ASSERT_EQ(::pipe(p), 0);
    ASSERT_EQ(::write(p[1], frame.data(), frame.size() - 5),
              static_cast<ssize_t>(frame.size() - 5));
    ::close(p[1]);
    try {
      FrameReader reader;
      (void)read_frame_fd(p[0], reader);
      ADD_FAILURE() << "expected a torn-frame FrameError";
    } catch (const FrameError& e) {
      EXPECT_NE(std::string(e.what()).find("torn"), std::string::npos)
          << e.what();
    }
    ::close(p[0]);
  }
}

TEST(DistFuzz, WriteAllFdReportsTheGonePeer) {
  ::signal(SIGPIPE, SIG_IGN);
  int p[2];
  ASSERT_EQ(::pipe(p), 0);
  ::close(p[0]);  // peer gone
  const std::string frame =
      encode_frame(FrameKind::kShutdown, 1, 0, 0, 0, {});
  try {
    write_all_fd(p[1], frame, "test peer");
    ADD_FAILURE() << "expected WorkerError on EPIPE";
  } catch (const WorkerError& e) {
    EXPECT_NE(std::string(e.what()).find("test peer"), std::string::npos)
        << e.what();
  }
  ::close(p[1]);
}

}  // namespace
}  // namespace ldc::dist
