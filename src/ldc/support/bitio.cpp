#include "ldc/support/bitio.hpp"

#include <algorithm>
#include <stdexcept>

#include "ldc/support/math.hpp"

namespace ldc {

void BitWriter::write(std::uint64_t value, int bits) {
  assert(bits >= 0 && bits <= 64);
  if (bits == 0) return;
  if (bits < 64) value &= (std::uint64_t{1} << bits) - 1;
  const std::size_t word = bit_count_ / 64;
  const int offset = static_cast<int>(bit_count_ % 64);
  if (word >= words_.size()) words_.push_back(0);
  words_[word] |= value << offset;
  const int spill = offset + bits - 64;
  if (spill > 0) words_.push_back(value >> (bits - spill));
  bit_count_ += static_cast<std::size_t>(bits);
}

void BitWriter::write_bounded(std::uint64_t value, std::uint64_t bound) {
  assert(value <= bound);
  write(value, ceil_log2(bound + 1));
}

void BitWriter::write_varint(std::uint64_t value) {
  // Unary length prefix followed by the value's payload bits.
  const int bits = (value == 0) ? 1 : ilog2(value) + 1;
  write(0, bits - 1);  // (bits-1) zero bits
  write(1, 1);         // terminator
  write(value, bits);
}

void BitWriter::append(BitReader r) {
  while (r.remaining() != 0) {
    const int take = static_cast<int>(std::min<std::size_t>(64, r.remaining()));
    write(r.read(take), take);
  }
}

std::uint64_t BitReader::read(int bits) {
  assert(bits >= 0 && bits <= 64);
  if (pos_ + static_cast<std::size_t>(bits) > bit_count_) {
    // Overrun is a hard error in every build: decoders hitting it on a
    // corrupted payload (fault injection flips bits, which can derail
    // variable-length decodes) must get a catchable exception, not an
    // out-of-bounds read.
    throw std::out_of_range("BitReader: read past end of payload");
  }
  if (bits == 0) return 0;
  const std::size_t word = pos_ / 64;
  const int offset = static_cast<int>(pos_ % 64);
  std::uint64_t value = words_[word] >> offset;
  const int spill = offset + bits - 64;
  if (spill > 0) value |= words_[word + 1] << (bits - spill);
  if (bits < 64) value &= (std::uint64_t{1} << bits) - 1;
  pos_ += static_cast<std::size_t>(bits);
  return value;
}

std::uint64_t BitReader::read_bounded(std::uint64_t bound) {
  return read(ceil_log2(bound + 1));
}

std::uint64_t BitReader::read_varint() {
  int bits = 1;
  while (read(1) == 0) ++bits;
  return read(bits);
}

}  // namespace ldc
