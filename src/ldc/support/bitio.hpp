// Bit-granular message encoding.
//
// All simulated network messages are produced through BitWriter and consumed
// through BitReader so that the CONGEST bit accounting in ldc::runtime is
// exact: a message's size is the number of bits actually written, not a
// byte-padded approximation.
#pragma once

#include <cassert>
#include <cstdint>
#include <vector>

namespace ldc {

class BitReader;

/// Words that hold a `bits`-bit payload.
constexpr std::size_t payload_words(std::size_t bits) {
  return (bits + 63) / 64;
}

/// Append-only bit stream. Values are written little-endian within 64-bit
/// words. The writer never pads: bit_count() is the exact payload size.
class BitWriter {
 public:
  /// Writes the low `bits` bits of `value`. `bits` may be 0 (no-op) up to 64.
  void write(std::uint64_t value, int bits);

  /// Writes a non-negative integer known to fit in ceil_log2(bound+1) bits.
  void write_bounded(std::uint64_t value, std::uint64_t bound);

  /// Elias-gamma-style variable-length encoding for unbounded non-negative
  /// integers (used where the paper says "O(log x) bits").
  void write_varint(std::uint64_t value);

  /// Appends the bits `r` has not read yet.
  void append(BitReader r);

  /// Empties the writer for its next payload and keeps its capacity: a
  /// sender that reuses one writer round after round stops allocating
  /// once the writer has held its widest payload.
  void clear() {
    words_.clear();
    bit_count_ = 0;
  }

  /// Number of bits written so far.
  std::size_t bit_count() const { return bit_count_; }

  /// Underlying storage (last word partially filled).
  const std::vector<std::uint64_t>& words() const { return words_; }

 private:
  std::vector<std::uint64_t> words_;
  std::size_t bit_count_ = 0;
};

/// Sequential reader over `bit_count` payload bits packed as BitWriter
/// packs them: a writer's payload, or a delivery in a round's word pool.
/// It reads through a pointer and owns nothing, so the words must outlive
/// it.
class BitReader {
 public:
  explicit BitReader(const BitWriter& w)
      : words_(w.words().data()), bit_count_(w.bit_count()) {}
  BitReader(const std::uint64_t* words, std::size_t bit_count)
      : words_(words), bit_count_(bit_count) {}

  /// Reads `bits` bits; throws std::out_of_range on overrun (corrupted
  /// payloads can derail variable-length decodes, so the error must be
  /// catchable in every build).
  std::uint64_t read(int bits);

  /// Inverse of BitWriter::write_bounded.
  std::uint64_t read_bounded(std::uint64_t bound);

  /// Inverse of BitWriter::write_varint.
  std::uint64_t read_varint();

  /// The payload's length in bits.
  std::size_t bit_count() const { return bit_count_; }

  /// Bits not yet consumed.
  std::size_t remaining() const { return bit_count_ - pos_; }

 private:
  const std::uint64_t* words_;
  std::size_t bit_count_;
  std::size_t pos_ = 0;
};

}  // namespace ldc
