#include "ldc/runtime/fault.hpp"

#include "ldc/support/prf.hpp"

namespace ldc {
namespace {

// Domain-separation tags: each fault process reads its own PRF stream, so
// e.g. raising drop_rate never changes which messages get corrupted.
enum Stream : std::uint64_t {
  kDrop = 0xd301,
  kCorrupt = 0xc0fe,
  kCrash = 0xcafa,
  kSleep = 0x51ee,
};

std::uint64_t edge_key(std::uint64_t tag, std::uint64_t round, NodeId from,
                       NodeId to) {
  const std::uint64_t edge =
      (static_cast<std::uint64_t>(from) << 32) | static_cast<std::uint64_t>(to);
  return hash_combine(hash_combine(tag, round), edge);
}

std::uint64_t node_key(std::uint64_t tag, std::uint64_t round, NodeId v) {
  return hash_combine(hash_combine(tag, round), v);
}

// Bernoulli(rate) from one PRF draw. The comparison uses the top 53 bits as
// an exact integer-valued double, so the decision is bit-reproducible across
// compilers and never overflows a cast.
bool hit(std::uint64_t prf_value, double rate) {
  if (rate <= 0.0) return false;
  if (rate >= 1.0) return true;
  return static_cast<double>(prf_value >> 11) < rate * 0x1p53;
}

}  // namespace

bool FaultPlan::drops_message(std::uint64_t round, NodeId from,
                              NodeId to) const {
  return hit(Prf(seed).at(edge_key(kDrop, round, from, to)), drop_rate);
}

bool FaultPlan::corrupts_message(std::uint64_t round, NodeId from,
                                 NodeId to) const {
  return hit(Prf(seed).at(edge_key(kCorrupt, round, from, to)), corrupt_rate);
}

void FaultPlan::corrupt_payload(std::uint64_t round, NodeId from, NodeId to,
                                std::uint64_t* words,
                                std::size_t bits) const {
  if (bits == 0) return;
  const Prf prf(seed);
  const std::uint64_t key = edge_key(kCorrupt, round, from, to);
  // A different PRF index than the decision draw, reduced to a bit position.
  const std::uint64_t pos = prf.at_below(hash_combine(key, 1), bits);
  words[pos / 64] ^= std::uint64_t{1} << (pos % 64);
}

bool FaultPlan::crashes_node(std::uint64_t round, NodeId v) const {
  return hit(Prf(seed).at(node_key(kCrash, round, v)), crash_rate);
}

bool FaultPlan::sleeps_node(std::uint64_t round, NodeId v) const {
  return hit(Prf(seed).at(node_key(kSleep, round, v)), sleep_rate);
}

}  // namespace ldc
