#include "util/rng.hpp"

namespace fsc {

void Mt19937_64::twist() noexcept {
  constexpr std::size_t n = kStateSize;
  constexpr std::size_t m = 156;
  constexpr std::uint64_t kMatrix = 0xb5026f5aa96619e9ull;
  constexpr std::uint64_t kUpper = ~std::uint64_t{0} << 31;
  constexpr std::uint64_t kLower = ~kUpper;
  // The standard's `(y & 1) ? A : 0` as a mask: 0 - 1 is all ones.
  const auto mix = [](std::uint64_t lo_word, std::uint64_t next_word,
                      std::uint64_t far_word) {
    const std::uint64_t y = (lo_word & kUpper) | (next_word & kLower);
    return far_word ^ (y >> 1) ^ (kMatrix & (0 - (y & 1)));
  };
  std::uint64_t* x = state_.data();
  for (std::size_t k = 0; k < n - m; ++k) x[k] = mix(x[k], x[k + 1], x[k + m]);
  for (std::size_t k = n - m; k < n - 1; ++k) {
    x[k] = mix(x[k], x[k + 1], x[k + m - n]);
  }
  x[n - 1] = mix(x[n - 1], x[0], x[m - 1]);
  next_ = 0;
}

void Rng::fill_gaussian(double mean, double stddev, double* out,
                        std::size_t n) noexcept {
  constexpr std::size_t kBlock = 256;
  double r2s[kBlock];
  while (n > 0) {
    const std::size_t block = n < kBlock ? n : kBlock;
    // Pass 1: every candidate pair is written at slot k, and k advances
    // only when the pair is accepted, so a rejected pair is overwritten by
    // the next one without a branch on the test.
    std::size_t k = 0;
    while (k < block) {
      const double x = 2.0 * canonical() - 1.0;
      const double y = 2.0 * canonical() - 1.0;
      const double r2 = x * x + y * y;
      out[k] = y;
      r2s[k] = r2;
      k += static_cast<std::size_t>(r2 <= 1.0) &
           static_cast<std::size_t>(r2 != 0.0);
    }
    // Pass 2: the logs and square roots, independent across the block.
    for (std::size_t i = 0; i < block; ++i) {
      out[i] = polar(out[i], r2s[i]) * stddev + mean;
    }
    out += block;
    n -= block;
  }
}

}  // namespace fsc
