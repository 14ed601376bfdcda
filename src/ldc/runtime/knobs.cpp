// The count knobs: ShardCrew's default thread and shard counts, and the
// strict parser every count flag and strict environment variable shares.
// They live apart from shard.cpp so that a binary which only parses its
// flags (the ldc_shard worker) does not link the sharded engine.
#include "ldc/runtime/shard.hpp"

#include <cerrno>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <thread>

namespace ldc {

std::size_t ShardCrew::default_thread_count() {
  if (const char* env = std::getenv("LDC_THREADS")) {
    char* end = nullptr;
    errno = 0;
    const long v = std::strtol(env, &end, 10);
    // Reject garbage, trailing junk, empty strings, 0, negatives, and
    // out-of-range values (strtol saturates with ERANGE on overflow) by
    // falling back to hardware concurrency instead of misconfiguring the
    // crew.
    if (errno == 0 && end != env && *end == '\0' && v >= 1 &&
        v <= static_cast<long>(kMaxThreads)) {
      return static_cast<std::size_t>(v);
    }
  }
  // hardware_concurrency() can cost a syscall (sysconf / sched_getaffinity)
  // on some libstdc++ builds; the topology does not change mid-process, so
  // probe once. The env parse above stays per-call: tests flip LDC_THREADS.
  static const unsigned hw = [] {
    const unsigned probed = std::thread::hardware_concurrency();
    return probed == 0 ? 1u : probed;
  }();
  return hw;
}

std::size_t ShardCrew::default_shard_count() {
  const char* env = std::getenv("LDC_SHARDS");
  if (env == nullptr || *env == '\0') return default_thread_count();
  return static_cast<std::size_t>(
      parse_positive_u64("LDC_SHARDS", env, kMaxShards));
}

std::uint64_t parse_positive_u64(const char* name, const char* text,
                                 std::uint64_t max) {
  const auto reject = [&] {
    return std::invalid_argument(std::string(name) +
                                 " must be an integer in [1, " +
                                 std::to_string(max) + "]; got \"" +
                                 (text == nullptr ? "" : text) + "\"");
  };
  if (text == nullptr || *text == '\0') throw reject();
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(text, &end, 10);
  if (errno != 0 || end == text || *end != '\0' || v < 1 ||
      static_cast<unsigned long long>(v) > max) {
    throw reject();
  }
  return static_cast<std::uint64_t>(v);
}

}  // namespace ldc
