// A network message: a cheap handle over an immutable, refcounted bit
// payload.
//
// The zero-copy message plane rests on this type: copying a Message — into
// an inbox slot, across a broadcast fan-out of Delta neighbors, between
// algorithm-side buffers — copies a shared_ptr, never the payload words.
// Payloads are logically immutable after Message::from(); the only mutation
// path is flip_bit() (fault-injection corruption), which is copy-on-write:
// a shared payload is cloned before the flip, so corrupting one delivered
// copy can never alias the sender's message or sibling deliveries. The
// refcount is atomic, making concurrent handle copies / destruction from
// the sharded engine's workers safe; mutating one *handle* from two threads
// is a race on the handle itself, exactly as for any other value type.
#pragma once

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "ldc/support/bitio.hpp"

namespace ldc {

class Message {
 public:
  Message() = default;

  /// Captures the writer's payload (one allocation; writers are usually
  /// ephemeral). Every copy of the returned Message shares that payload.
  static Message from(const BitWriter& w) {
    Message m;
    if (w.bit_count() != 0 || !w.words().empty()) {
      m.payload_ = std::make_shared<Payload>(
          Payload{w.words(), w.bit_count()});
    }
    return m;
  }

  BitReader reader() const {
    if (payload_ == nullptr) return BitReader(&empty_words(), 0);
    return BitReader(&payload_->words, payload_->bits);
  }

  std::size_t bit_count() const {
    return payload_ == nullptr ? 0 : payload_->bits;
  }
  bool empty() const { return bit_count() == 0; }

  /// True when both handles share one payload block (zero-copy aliasing;
  /// used by the delivery tests — empty messages share nothing).
  bool shares_payload(const Message& other) const {
    return payload_ != nullptr && payload_ == other.payload_;
  }

  /// Flips payload bit `pos`; throws std::out_of_range when
  /// pos >= bit_count() (a silent flip would corrupt adjacent heap words).
  /// Fault-injection support: the runtime's corruption faults alter
  /// payloads while keeping the exact bit length (so CONGEST accounting is
  /// unaffected). Copy-on-write: a payload shared with other handles is
  /// cloned first, so only this handle observes the flip.
  void flip_bit(std::size_t pos) {
    if (payload_ == nullptr || pos >= payload_->bits) {
      throw std::out_of_range("Message::flip_bit: bit position " +
                              std::to_string(pos) + " >= bit count " +
                              std::to_string(bit_count()));
    }
    if (payload_.use_count() != 1) {
      payload_ = std::make_shared<Payload>(*payload_);
    }
    payload_->words[pos / 64] ^= std::uint64_t{1} << (pos % 64);
  }

 private:
  struct Payload {
    std::vector<std::uint64_t> words;
    std::size_t bits = 0;
  };

  static const std::vector<std::uint64_t>& empty_words() {
    static const std::vector<std::uint64_t> kEmpty;
    return kEmpty;
  }

  std::shared_ptr<Payload> payload_;
};

}  // namespace ldc
