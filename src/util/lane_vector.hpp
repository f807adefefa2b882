// Cache-line-aligned storage for structure-of-arrays lane data.
//
// The lockstep engines split a batch into contiguous lane chunks that step
// concurrently on different threads.  std::vector only guarantees
// alignof(T) — 16 bytes from glibc malloc — so a chunk boundary can fall in
// the middle of a cache line, and two threads then write the same line on
// every substep.  A LaneVector starts on a 64-byte boundary instead: a
// chunk of 8 double (or 8-byte flag) lanes that starts at a lane index
// divisible by 8 owns its cache lines outright.
#pragma once

#include <cstddef>
#include <new>
#include <vector>

namespace fsc {

inline constexpr std::size_t kCacheLineBytes = 64;
/// 8-byte lanes (doubles, flags) per cache line.
inline constexpr std::size_t kLanesPerCacheLine = kCacheLineBytes / 8;

/// std::allocator with every block aligned to a cache line.
template <typename T>
struct CacheLineAllocator {
  using value_type = T;

  CacheLineAllocator() noexcept = default;
  template <typename U>
  CacheLineAllocator(const CacheLineAllocator<U>& /*other*/) noexcept {}

  T* allocate(std::size_t n) {
    return static_cast<T*>(
        ::operator new(n * sizeof(T), std::align_val_t{kCacheLineBytes}));
  }
  void deallocate(T* p, std::size_t /*n*/) noexcept {
    ::operator delete(p, std::align_val_t{kCacheLineBytes});
  }

  template <typename U>
  bool operator==(const CacheLineAllocator<U>& /*other*/) const noexcept {
    return true;
  }
};

/// One SoA lane array: a std::vector whose data() is cache-line aligned.
template <typename T>
using LaneVector = std::vector<T, CacheLineAllocator<T>>;

}  // namespace fsc
