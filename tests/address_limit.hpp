#pragma once

// A forked child whose address space is capped, so that creating a thread
// fails there the way it does in a process that is out of memory or
// mappings. The parent's own limits are untouched. Under AddressSanitizer
// the cap cannot work (the shadow memory alone exceeds any sensible limit),
// so callers skip on kAddressSanitizer.

#include <pthread.h>
#include <sys/resource.h>
#include <sys/types.h>
#include <unistd.h>

#include <cstddef>
#include <cstdio>

namespace pofl::testing {

#if defined(__SANITIZE_ADDRESS__)
inline constexpr bool kAddressSanitizer = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
inline constexpr bool kAddressSanitizer = true;
#else
inline constexpr bool kAddressSanitizer = false;
#endif
#else
inline constexpr bool kAddressSanitizer = false;
#endif

/// The default thread stack in the child. Larger than any stack the
/// parent's thread cache holds, so every thread the child starts needs a
/// fresh mapping of this size, which the cap decides.
inline constexpr size_t kChildThreadStack = size_t{64} << 20;

/// Forks. The child sets its default thread stack to kChildThreadStack,
/// caps RLIMIT_AS at its current size plus `headroom` bytes and _exits with
/// body()'s result (99 if it could not set the limits, 98 if body throws).
/// Returns the child's pid to the parent (-1 if fork failed).
template <typename Body>
pid_t fork_with_address_limit(size_t headroom, Body body) {
  const pid_t pid = fork();
  if (pid != 0) return pid;
  int code = 99;
  pthread_attr_t attr;
  unsigned long pages = 0;
  if (std::FILE* statm = std::fopen("/proc/self/statm", "r"); statm != nullptr) {
    if (std::fscanf(statm, "%lu", &pages) != 1) pages = 0;
    std::fclose(statm);
  }
  const size_t size = pages * static_cast<size_t>(sysconf(_SC_PAGESIZE));
  const rlimit cap{size + headroom, size + headroom};
  if (size > 0 && pthread_attr_init(&attr) == 0 &&
      pthread_attr_setstacksize(&attr, kChildThreadStack) == 0 &&
      pthread_setattr_default_np(&attr) == 0 && setrlimit(RLIMIT_AS, &cap) == 0) {
    try {
      code = body();
    } catch (...) {
      code = 98;
    }
  }
  _exit(code);
}

}  // namespace pofl::testing
