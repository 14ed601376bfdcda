#include "ldc/dist/wire.hpp"

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cstring>

#include <sys/socket.h>
#include <unistd.h>

#include "ldc/support/fnv.hpp"

namespace ldc::dist {
namespace {

/// Header layout (little-endian byte offsets):
///   [ 0,  4) magic        [ 4,  6) version      [ 6,  8) kind
///   [ 8, 16) round        [16, 20) src_shard    [20, 24) dst_shard
///   [24, 32) payload_bytes[32, 36) count        [36, 40) reserved (0)
///   [40, 48) digest — FNV-1a over bytes [0, 40) then the payload.
constexpr std::size_t kDigestOffset = 40;

void put_u16(char* p, std::uint16_t v) { std::memcpy(p, &v, sizeof v); }
void put_u32(char* p, std::uint32_t v) { std::memcpy(p, &v, sizeof v); }
void put_u64(char* p, std::uint64_t v) { std::memcpy(p, &v, sizeof v); }

std::uint16_t get_u16(const char* p) {
  std::uint16_t v;
  std::memcpy(&v, p, sizeof v);
  return v;
}
std::uint32_t get_u32(const char* p) {
  std::uint32_t v;
  std::memcpy(&v, p, sizeof v);
  return v;
}
std::uint64_t get_u64(const char* p) {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

bool known_kind(std::uint16_t k) {
  const auto in = [k](FrameKind lo, FrameKind hi) {
    return k >= static_cast<std::uint16_t>(lo) &&
           k <= static_cast<std::uint16_t>(hi);
  };
  return in(FrameKind::kHello, FrameKind::kAssignAck) ||
         in(FrameKind::kBcast, FrameKind::kInboxIds) ||
         k == static_cast<std::uint16_t>(FrameKind::kShutdown);
}

std::uint64_t frame_digest(const char* header, std::string_view payload) {
  std::uint64_t h = fnv1a64_bytes(header, kDigestOffset);
  return fnv1a64_bytes(payload.data(), payload.size(), h);
}

/// Validates everything but the digest (which needs the payload): magic,
/// version, kind, reserved word, payload cap. Throws FrameError.
FrameHeader parse_header(const char* p) {
  if (get_u32(p) != kWireMagic) {
    throw FrameError("frame: bad magic 0x" + std::to_string(get_u32(p)));
  }
  const std::uint16_t version = get_u16(p + 4);
  if (version != kWireVersion) {
    throw FrameError("frame: unsupported wire version " +
                     std::to_string(version) + " (expected " +
                     std::to_string(kWireVersion) + ")");
  }
  const std::uint16_t kind = get_u16(p + 6);
  if (!known_kind(kind)) {
    throw FrameError("frame: unknown kind " + std::to_string(kind));
  }
  FrameHeader h;
  h.kind = static_cast<FrameKind>(kind);
  h.round = get_u64(p + 8);
  h.src_shard = get_u32(p + 16);
  h.dst_shard = get_u32(p + 20);
  h.payload_bytes = get_u64(p + 24);
  h.count = get_u32(p + 32);
  if (h.payload_bytes > kMaxFramePayload) {
    throw FrameError("frame: oversized payload (" +
                     std::to_string(h.payload_bytes) + " bytes > cap " +
                     std::to_string(kMaxFramePayload) + ")");
  }
  if (get_u32(p + 36) != 0) {
    throw FrameError("frame: nonzero reserved field");
  }
  return h;
}

}  // namespace

const char* frame_kind_name(FrameKind k) {
  switch (k) {
    case FrameKind::kHello: return "hello";
    case FrameKind::kAssign: return "assign";
    case FrameKind::kAssignAck: return "assign_ack";
    case FrameKind::kBcast: return "bcast";
    case FrameKind::kInboxIds: return "inbox_ids";
    case FrameKind::kShutdown: return "shutdown";
  }
  return "unknown";
}

std::string encode_frame(FrameKind kind, std::uint64_t round,
                         std::uint32_t src_shard, std::uint32_t dst_shard,
                         std::uint32_t count, std::string_view payload) {
  if (payload.size() > kMaxFramePayload) {
    throw FrameError("encode_frame: payload exceeds cap");
  }
  std::string out(kFrameHeaderBytes + payload.size(), '\0');
  char* p = out.data();
  put_u32(p, kWireMagic);
  put_u16(p + 4, kWireVersion);
  put_u16(p + 6, static_cast<std::uint16_t>(kind));
  put_u64(p + 8, round);
  put_u32(p + 16, src_shard);
  put_u32(p + 20, dst_shard);
  put_u64(p + 24, payload.size());
  put_u32(p + 32, count);
  put_u32(p + 36, 0);
  put_u64(p + kDigestOffset, frame_digest(p, payload));
  // An empty payload's data() may be null, which memcpy must never get.
  if (!payload.empty()) {
    std::memcpy(p + kFrameHeaderBytes, payload.data(), payload.size());
  }
  return out;
}

void FrameReader::feed(const char* data, std::size_t len) {
  // Compact before the buffer grows past the consumed prefix.
  if (pos_ != 0 && (pos_ == buf_.size() || pos_ >= (1u << 16))) {
    buf_.erase(0, pos_);
    pos_ = 0;
  }
  buf_.append(data, len);
}

std::optional<Frame> FrameReader::next() {
  if (buf_.size() - pos_ < kFrameHeaderBytes) return std::nullopt;
  const char* p = buf_.data() + pos_;
  const FrameHeader h = parse_header(p);
  const std::size_t total = kFrameHeaderBytes + h.payload_bytes;
  if (buf_.size() - pos_ < total) return std::nullopt;
  const std::string_view payload(p + kFrameHeaderBytes, h.payload_bytes);
  const std::uint64_t want = get_u64(p + kDigestOffset);
  const std::uint64_t got = frame_digest(p, payload);
  if (want != got) {
    throw FrameError(std::string("frame: digest mismatch on ") +
                     frame_kind_name(h.kind) + " frame (round " +
                     std::to_string(h.round) + ")");
  }
  Frame f;
  f.header = h;
  f.payload.assign(payload);
  pos_ += total;
  return f;
}

void write_all_fd(int fd, std::string_view bytes, const char* who) {
  std::size_t off = 0;
  bool is_socket = true;
  while (off < bytes.size()) {
    // MSG_NOSIGNAL: a peer that died mid-run must surface as EPIPE, not
    // kill the writer with SIGPIPE. Pipes (tests) reject send with
    // ENOTSOCK; fall back to write for them.
    const ssize_t n =
        is_socket
            ? ::send(fd, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL)
            : ::write(fd, bytes.data() + off, bytes.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (is_socket && errno == ENOTSOCK) {
        is_socket = false;
        continue;
      }
      throw WorkerError(std::string(who) + ": write failed: " +
                        std::strerror(errno));
    }
    off += static_cast<std::size_t>(n);
  }
}

std::optional<Frame> read_frame_fd(int fd, FrameReader& reader) {
  char buf[1 << 16];
  for (;;) {
    if (auto f = reader.next()) return f;
    const ssize_t n = ::read(fd, buf, sizeof buf);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw FrameError(std::string("frame: read failed: ") +
                       std::strerror(errno));
    }
    if (n == 0) {
      if (reader.mid_frame()) {
        throw FrameError("frame: torn frame (EOF with " +
                         std::to_string(reader.buffered()) +
                         " buffered bytes)");
      }
      return std::nullopt;  // clean EOF at a frame boundary
    }
    reader.feed(buf, static_cast<std::size_t>(n));
  }
}

void encode_fault_ctx(PayloadWriter& w, const FaultPlan* plan,
                      const char* down, NodeId n) {
  const bool faulty = plan != nullptr && plan->any();
  w.u8(faulty ? 1 : 0);
  if (!faulty) return;
  w.u64(plan->seed);
  w.f64(plan->drop_rate);
  w.f64(plan->corrupt_rate);
  w.f64(plan->crash_rate);
  w.f64(plan->sleep_rate);
  w.u32(plan->max_crashes);
  w.u32(0);
  const std::string bits = pack_bitmap(down, n);
  w.raw(bits.data(), bits.size());
}

FaultCtx decode_fault_ctx(PayloadReader& r, NodeId n) {
  FaultCtx ctx;
  const std::uint8_t faulty = r.u8();
  if (faulty > 1) throw FrameError("fault ctx: bad faulty flag");
  ctx.faulty = faulty != 0;
  if (!ctx.faulty) return ctx;
  ctx.plan.seed = r.u64();
  ctx.plan.drop_rate = r.f64();
  ctx.plan.corrupt_rate = r.f64();
  ctx.plan.crash_rate = r.f64();
  ctx.plan.sleep_rate = r.f64();
  ctx.plan.max_crashes = r.u32();
  (void)r.u32();  // padding
  unpack_bitmap(r.bytes((n + 7) / 8), n, ctx.down);
  return ctx;
}

std::string pack_bitmap(const char* flags, NodeId n) {
  std::string bits((static_cast<std::size_t>(n) + 7) / 8, '\0');
  for (NodeId v = 0; v < n; ++v) {
    if (flags[v] != 0) bits[v >> 3] |= static_cast<char>(1u << (v & 7));
  }
  return bits;
}

void unpack_bitmap(std::string_view bits, NodeId n, std::vector<char>& flags) {
  flags.resize(n);
  for (NodeId v = 0; v < n; ++v) {
    flags[v] = static_cast<char>(
        (static_cast<std::uint8_t>(bits[v >> 3]) >> (v & 7)) & 1u);
  }
}

void encode_senders(PayloadWriter& w, std::span<const NodeId> ids, NodeId n) {
  if (bcast_as_ids(ids.size(), n)) {
    w.raw(ids.data(), ids.size() * sizeof(NodeId));
    return;
  }
  std::string bits((static_cast<std::size_t>(n) + 7) / 8, '\0');
  for (NodeId u : ids) bits[u >> 3] |= static_cast<char>(1u << (u & 7));
  w.raw(bits.data(), bits.size());
}

void decode_senders(PayloadReader& r, std::uint32_t count, NodeId n,
                    std::vector<NodeId>& ids) {
  ids.clear();
  if (bcast_as_ids(count, n)) {
    for (std::uint32_t i = 0; i < count; ++i) {
      const NodeId u = r.u32();
      if (u >= n || (i != 0 && u <= ids.back())) {
        throw FrameError("bcast: senders must be strictly ascending ids < n");
      }
      ids.push_back(u);
    }
    return;
  }
  // A bitmap is sent only for more than n/32 senders, so this word scan
  // is O(senders).
  const std::string_view bits = r.bytes((static_cast<std::size_t>(n) + 7) / 8);
  for (std::size_t at = 0; at < bits.size(); at += 8) {
    std::uint64_t word = 0;
    std::memcpy(&word, bits.data() + at, std::min<std::size_t>(8, bits.size() - at));
    for (; word != 0; word &= word - 1) {
      const std::size_t u = 8 * at + std::countr_zero(word);
      if (u >= n || ids.size() == count) {
        throw FrameError("bcast: sender bitmap disagrees with the count");
      }
      ids.push_back(static_cast<NodeId>(u));
    }
  }
  if (ids.size() != count) {
    throw FrameError("bcast: sender bitmap disagrees with the count");
  }
}

}  // namespace ldc::dist
