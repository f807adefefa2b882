// Test helper: make std::thread construction fail on demand, independent
// of the host's thread limit.  Meant to run as the statement of a gtest
// death test (EXPECT_EXIT), i.e. in a forked child: it caps the child's
// address space a little above its current size, so the next few thread
// stacks cannot be mapped, then runs `construct`.  The child exits 0 and
// prints the message when `construct` throws std::runtime_error, 2 when it
// returns, 3 on any other exception; a crash (std::terminate) is a signal.
//
// Sanitizer runtimes reserve terabytes of shadow mappings, so a tight
// RLIMIT_AS breaks them first; spawn_failure_supported() is false there.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <stdexcept>

#if defined(__linux__)
#include <sys/resource.h>
#include <unistd.h>
#endif

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define FSC_TEST_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define FSC_TEST_SANITIZED 1
#endif
#endif

namespace fsc::test {

constexpr bool spawn_failure_supported() {
#if defined(__linux__) && !defined(FSC_TEST_SANITIZED)
  return true;
#else
  return false;
#endif
}

template <typename F>
void construct_with_capped_address_space(F construct) {
#if defined(__linux__)
  // /proc/self/statm's first field is the mapped size in pages.
  unsigned long pages = 0;
  std::ifstream("/proc/self/statm") >> pages;
  const rlim_t used = static_cast<rlim_t>(pages) *
                      static_cast<rlim_t>(sysconf(_SC_PAGESIZE));
  const rlimit cap{used + (64u << 20), used + (64u << 20)};
  if (pages == 0 || setrlimit(RLIMIT_AS, &cap) != 0) std::_Exit(4);
#endif
  try {
    construct();
  } catch (const std::runtime_error& e) {
    std::fprintf(stderr, "%s\n", e.what());
    std::_Exit(0);
  } catch (...) {
    std::_Exit(3);
  }
  std::_Exit(2);
}

}  // namespace fsc::test
