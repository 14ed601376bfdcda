// Wire format of the multi-process distributed engine (DESIGN.md §12).
//
// Every byte that crosses a coordinator↔worker socket is a *frame*: a
// fixed 48-byte little-endian header (magic / version / kind / round /
// src shard / dst shard / payload size / element count) followed by the
// payload, sealed by an FNV-1a 64 digest over header-and-payload — the
// same digest primitive the corpus store uses for its sections, so a
// flipped bit anywhere in a frame is caught at the receiver, not three
// rounds later as a wrong color. Frames are self-describing and
// length-prefixed: a reader can always either complete a frame, wait for
// more bytes, or reject the stream with a typed FrameError naming the
// check that failed (bad magic, unsupported version, oversized payload,
// digest mismatch, torn frame, count/payload disagreement). Malformed
// input is never undefined behavior — the fuzz battery in
// tests/test_dist_fuzz.cpp mutates valid streams and asserts exactly
// this.
//
// Payloads are flat little-endian records built/parsed through
// PayloadWriter/PayloadReader; every reader overrun throws FrameError.
// Wire version 5 has six kinds: the attach handshake (kHello, kAssign,
// kAssignAck), one frame pair per round that fills slots (kBcast out,
// kInboxIds back) and kShutdown. kBcast carries the fault context — the
// plan parameters plus the round's down bitmap, so workers re-resolve the
// pure PRF drop/corrupt decisions bit-identically (fault.hpp) — and the
// round's ascending sender list; kInboxIds carries the range's drop and
// corruption counts and its non-empty inbox rows as (receiver, count)
// pairs with their sender ids, which the shard-round kernel
// (runtime/shard_round.hpp) filled.
#pragma once

#include <cstdint>
#include <cstring>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "ldc/graph/graph.hpp"
#include "ldc/runtime/fault.hpp"

namespace ldc::dist {

/// Malformed or hostile frame bytes: truncated/torn frames, bad magic,
/// unsupported version, digest mismatch, oversized payloads, counts that
/// disagree with the payload. Always a typed rejection, never a crash.
class FrameError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Handshake failure: corpus content-digest mismatch, attach timeout,
/// an unexpected frame where HELLO/ASSIGN-ACK was required, or a worker
/// that died before attaching.
class AttachError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// A worker died (EOF / reset) or went silent past the heartbeat window
/// mid-run; the message names the shard and the round. A worker failure
/// is always fatal to the run.
class WorkerError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

inline constexpr std::uint32_t kWireMagic = 0x4643444Cu;  ///< "LDCF" LE
inline constexpr std::uint16_t kWireVersion = 5;
inline constexpr std::size_t kFrameHeaderBytes = 48;
/// Hard cap on one frame's payload; anything larger is a typed rejection
/// (a hostile length prefix must not drive an allocation).
inline constexpr std::uint64_t kMaxFramePayload = 1ull << 30;

enum class FrameKind : std::uint16_t {
  kHello = 1,      ///< worker→coord: corpus content digest + shape
  kAssign = 2,     ///< coord→worker: shard index and partition
  kAssignAck = 3,  ///< worker→coord: topology built, ready
  // Every other kind is unassigned and rejected by the decoder; 4 to 7,
  // 14, 15 and 17 are retired, not free for reuse.
  kBcast = 8,      ///< coord→worker: fault ctx + ascending sender list
                   ///< of a listed/faulty broadcast or word round
  kInboxIds = 9,   ///< worker→coord: broadcast inbox rows of sender ids
  kShutdown = 16,  ///< coord→worker: clean exit
};

const char* frame_kind_name(FrameKind k);

struct FrameHeader {
  FrameKind kind = FrameKind::kHello;
  std::uint64_t round = 0;
  std::uint32_t src_shard = 0;
  std::uint32_t dst_shard = 0;
  std::uint64_t payload_bytes = 0;
  std::uint32_t count = 0;  ///< kind-specific element count
};

struct Frame {
  FrameHeader header;
  std::string payload;
};

/// Serializes one frame (header + payload + digest) to wire bytes.
std::string encode_frame(FrameKind kind, std::uint64_t round,
                         std::uint32_t src_shard, std::uint32_t dst_shard,
                         std::uint32_t count, std::string_view payload);

/// Incremental frame decoder over an untrusted byte stream. feed() bytes
/// as they arrive; next() yields one validated frame, std::nullopt when
/// the buffer holds only a partial frame, or throws FrameError — after
/// which the stream is poisoned (there is no resynchronization point in
/// a length-prefixed stream with a corrupt prefix).
class FrameReader {
 public:
  void feed(const char* data, std::size_t len);
  std::optional<Frame> next();
  std::size_t buffered() const { return buf_.size() - pos_; }
  /// True when buffered() bytes are a frame prefix that can never
  /// complete validly (used by blocking readers to report torn frames).
  bool mid_frame() const { return buffered() != 0; }

 private:
  std::string buf_;
  std::size_t pos_ = 0;
};

// ---------------------------------------------------------------- fd I/O --

/// Writes all of `bytes` (blocking; retries EINTR). Throws WorkerError
/// naming `who` when the peer is gone (EPIPE/ECONNRESET).
void write_all_fd(int fd, std::string_view bytes, const char* who);

/// Blocking read of one frame. The caller owns `reader` and must reuse
/// the SAME reader for every read on the same fd: one read(2) can pull
/// several coalesced frames off the socket, and the surplus bytes live
/// in the reader until the next call. Returns std::nullopt on clean EOF
/// at a frame boundary; throws FrameError on malformed bytes or a torn
/// frame (EOF mid-frame).
std::optional<Frame> read_frame_fd(int fd, FrameReader& reader);

// ------------------------------------------------------- payload codecs --

/// Append-only little-endian record builder for frame payloads.
class PayloadWriter {
 public:
  void u8(std::uint8_t v) { out_.push_back(static_cast<char>(v)); }
  /// LEB128: 7 bits a byte, low bits first, 1 to 10 bytes.
  void varint(std::uint64_t v) {
    for (; v >= 0x80; v >>= 7) u8(static_cast<std::uint8_t>(v | 0x80));
    u8(static_cast<std::uint8_t>(v));
  }
  void u32(std::uint32_t v) { raw(&v, sizeof v); }
  void u64(std::uint64_t v) { raw(&v, sizeof v); }
  void f64(double v) { raw(&v, sizeof v); }
  void raw(const void* data, std::size_t len) {
    out_.append(static_cast<const char*>(data), len);
  }
  std::string take() { return std::move(out_); }
  /// The bytes so far, and clear() for a writer reused round after round.
  std::string_view view() const { return out_; }
  void clear() { out_.clear(); }
  std::size_t size() const { return out_.size(); }

 private:
  std::string out_;
};

/// Bounds-checked reader over an untrusted payload; every overrun throws
/// FrameError naming the frame kind being decoded.
class PayloadReader {
 public:
  PayloadReader(std::string_view payload, const char* what)
      : p_(payload), what_(what) {}

  std::uint8_t u8() {
    need(1);
    return static_cast<std::uint8_t>(p_[pos_++]);
  }
  std::uint64_t varint() {
    std::uint64_t v = 0;
    for (int shift = 0; shift < 64; shift += 7) {
      const std::uint8_t b = u8();
      if (shift == 63 && b > 1) break;  // past 64 bits
      v |= std::uint64_t{b & 0x7fu} << shift;
      if ((b & 0x80) == 0) return v;
    }
    throw FrameError(std::string(what_) + ": varint overflows 64 bits");
  }
  std::uint32_t u32() {
    std::uint32_t v;
    copy(&v, sizeof v);
    return v;
  }
  std::uint64_t u64() {
    std::uint64_t v;
    copy(&v, sizeof v);
    return v;
  }
  double f64() {
    double v;
    copy(&v, sizeof v);
    return v;
  }
  std::string_view bytes(std::size_t len) {
    need(len);
    std::string_view v = p_.substr(pos_, len);
    pos_ += len;
    return v;
  }
  std::size_t remaining() const { return p_.size() - pos_; }
  /// Rejects trailing garbage — a valid encoder never leaves any.
  void expect_end() const {
    if (remaining() != 0) {
      throw FrameError(std::string(what_) + ": " +
                       std::to_string(remaining()) +
                       " trailing payload bytes");
    }
  }

 private:
  void need(std::size_t len) const {
    if (p_.size() - pos_ < len) {
      throw FrameError(std::string(what_) + ": payload truncated (need " +
                       std::to_string(len) + " bytes, have " +
                       std::to_string(p_.size() - pos_) + ")");
    }
  }
  void copy(void* dst, std::size_t len) {
    need(len);
    std::memcpy(dst, p_.data() + pos_, len);
    pos_ += len;
  }

  std::string_view p_;
  std::size_t pos_ = 0;
  const char* what_;
};

// ------------------------------------------------- shared round records --

/// The per-round fault context a worker needs to re-resolve the pure PRF
/// drop/corrupt decisions exactly as the coordinator would: the plan's
/// parameters plus the coordinator-computed down bitmap (crash-cap
/// resolution is order-dependent, so down state is decided once,
/// centrally, and shipped — never re-derived per worker).
struct FaultCtx {
  bool faulty = false;
  FaultPlan plan;
  std::vector<char> down;  ///< n flags, unpacked from the wire bitmap
};

/// `down` holds n flags; it is read only when the plan injects faults.
void encode_fault_ctx(PayloadWriter& w, const FaultPlan* plan,
                      const char* down, NodeId n);
FaultCtx decode_fault_ctx(PayloadReader& r, NodeId n);

/// The wire form of n flags (the down mask): a packed bitmap, LSB first.
std::string pack_bitmap(const char* flags, NodeId n);
void unpack_bitmap(std::string_view bits, NodeId n, std::vector<char>& flags);

/// The rows of a range [b, e)'s inbox reply (kInboxIds): a u32
/// row count, then each non-empty row in ascending receiver order as its
/// (receiver, count) pair followed by its `count` slots. The pair is two
/// varints, the receiver's gap above the lowest one the row may name (b,
/// then the previous receiver + 1) and count - 1, so receivers ascend and
/// rows are non-empty by construction, and a row costs about 2 bytes plus
/// its slots. write_row() appends one pair; read_rows() checks each as it
/// reads it — the receiver inside [b, e), the counts summing to `slots`,
/// the frame header's slot count — and throws FrameError naming `what`
/// otherwise; row(v, count) opens each row, and slot(v) reads each of its
/// slots.
inline void write_row(PayloadWriter& w, NodeId& next, NodeId v,
                      std::uint32_t count) {
  w.varint(v - next);
  w.varint(count - 1);
  next = v + 1;
}

template <typename Row, typename Slot>
void read_rows(PayloadReader& r, NodeId b, NodeId e, std::uint32_t slots,
               const std::string& what, const Row& row, const Slot& slot) {
  const std::uint32_t rows = r.u32();
  std::uint64_t next = b;
  std::uint32_t seen = 0;
  for (std::uint32_t i = 0; i < rows; ++i) {
    const std::uint64_t gap = r.varint();
    if (next >= e || gap >= e - next) {
      throw FrameError(what + ": receiver out of range");
    }
    const auto v = static_cast<NodeId>(next + gap);
    const std::uint64_t more = r.varint();
    if (more >= slots - seen) {
      throw FrameError(what + ": row counts disagree with the slot count");
    }
    const auto count = static_cast<std::uint32_t>(more + 1);
    row(v, count);
    for (std::uint32_t j = 0; j < count; ++j) slot(v);
    seen += count;
    next = std::uint64_t{v} + 1;
  }
  if (seen != slots) {
    throw FrameError(what + ": row counts disagree with the slot count");
  }
}

/// A broadcast's ascending sender list on the wire (kBcast, header count
/// = its length): as u32 ids while they take no more bytes than n flags
/// would, else as an n-bit bitmap (LSB first, as pack_bitmap), so a dense
/// list costs what the transmit mask did. bcast_as_ids() is the choice
/// both ends make from the count alone.
inline bool bcast_as_ids(std::size_t senders, NodeId n) {
  return 4 * senders <= (static_cast<std::size_t>(n) + 7) / 8;
}
void encode_senders(PayloadWriter& w, std::span<const NodeId> ids, NodeId n);
/// Decodes header-count `count` senders into `ids`, checking they are
/// strictly ascending ids < n (a bitmap: exactly `count` bits, none past
/// n); anything else throws FrameError.
void decode_senders(PayloadReader& r, std::uint32_t count, NodeId n,
                    std::vector<NodeId>& ids);

/// Worker-process cap (processes, not threads — deliberately lower than
/// ShardCrew::kMaxShards).
inline constexpr std::size_t kMaxDistWorkers = 64;

}  // namespace ldc::dist
