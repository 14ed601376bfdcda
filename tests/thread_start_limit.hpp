// Makes thread starts fail on purpose, for the tests that pin what a
// worker group does when one of its threads cannot start. Meant for a
// death-test child: the address-space cap it sets lasts for the process.
#pragma once

#include <cstddef>
#include <fstream>

#include <pthread.h>
#include <sys/resource.h>
#include <unistd.h>

namespace ldc {

// ASan and TSan reserve their shadow memory up front, so an address-space
// cap near the current size stops them, not the thread starts.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
inline constexpr bool kCanLimitThreadStarts = false;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
inline constexpr bool kCanLimitThreadStarts = false;
#else
inline constexpr bool kCanLimitThreadStarts = true;
#endif
#else
inline constexpr bool kCanLimitThreadStarts = true;
#endif

/// Caps RLIMIT_AS at the current virtual size plus room for about
/// `stacks` default thread stacks: later thread starts fail with EAGAIN
/// once that room is used up.
inline void leave_room_for_thread_stacks(std::size_t stacks) {
  std::size_t vm_pages = 0;
  std::ifstream("/proc/self/statm") >> vm_pages;
  pthread_attr_t attr;
  pthread_attr_init(&attr);
  std::size_t stack_bytes = 0;
  pthread_attr_getstacksize(&attr, &stack_bytes);  // the default size
  pthread_attr_destroy(&attr);
  rlimit rl{};
  getrlimit(RLIMIT_AS, &rl);
  rl.rlim_cur = static_cast<rlim_t>(vm_pages) *
                    static_cast<rlim_t>(sysconf(_SC_PAGESIZE)) +
                stacks * stack_bytes;
  setrlimit(RLIMIT_AS, &rl);
}

}  // namespace ldc
