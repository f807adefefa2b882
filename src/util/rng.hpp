// Deterministic random number generation.
//
// All stochastic components (workload noise, sensor noise, spike arrivals)
// draw from an explicitly seeded Rng so experiments are reproducible and
// tests are deterministic.
//
// Why the engine and the Gaussian are written out here instead of taking
// the standard library's mt19937_64 and normal_distribution: the streams
// are the standard library's (libstdc++'s, which every golden digest was
// taken with), bit for bit, but libstdc++ spends most of a draw on two
// 50/50 data-dependent branches rather than on the arithmetic.  Its twist
// picks the matrix with `(y & 1) ? A : 0`, and generate_canonical's
// unsigned -> double conversion branches on the word's top bit (x86-64
// baseline has no unsigned conversion instruction); each mispredicts half
// the time.  Measured with gcc 12 -O3 on a 2.1 GHz Xeon VM, libstdc++ vs
// this file: 7.9 vs 2.1-3.6 ns per engine word, 16 vs 3.5 ns per uniform
// double, 55 vs 28-43 ns per gaussian() and 18-25 ns per fill_gaussian()
// deviate.  Workload synthesis draws one Gaussian per sample (230,400
// for a 900 s 8x32 room), so this was most of a synthetic session's
// setup: the room's 256 make_slot_workload calls took 20 ms, now 8 ms.
// test_util pins every stream against the standard library's.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <random>

namespace fsc {

/// MT19937-64 with the standard's parameters and seeding: the same words
/// as the standard library's mt19937_64 for every seed, without the branch
/// in its twist.
/// Meets UniformRandomBitGenerator, so std:: distributions run over it.
class Mt19937_64 {
 public:
  using result_type = std::uint64_t;
  static constexpr std::size_t kStateSize = 312;

  explicit Mt19937_64(std::uint64_t seed) noexcept {
    state_[0] = seed;
    for (std::size_t i = 1; i < kStateSize; ++i) {
      const std::uint64_t x = state_[i - 1];
      state_[i] = 6364136223846793005ull * (x ^ (x >> 62)) + i;
    }
  }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~result_type{0}; }

  result_type operator()() noexcept {
    if (next_ >= kStateSize) twist();
    std::uint64_t z = state_[next_++];
    z ^= (z >> 29) & 0x5555555555555555ull;
    z ^= (z << 17) & 0x71d67fffeda60000ull;
    z ^= (z << 37) & 0xfff7eee000000000ull;
    return z ^ (z >> 43);
  }

 private:
  /// Regenerate all kStateSize words (out of line: once per 312 draws).
  void twist() noexcept;

  std::array<std::uint64_t, kStateSize> state_;
  std::size_t next_ = kStateSize;
};

/// Seeded source of the distributions the library needs.  Every consumer
/// takes an Rng& so seeds are owned by the experiment, never hidden in
/// globals.
class Rng {
 public:
  /// Seed the generator; the default seed gives a documented, fixed stream.
  explicit Rng(std::uint64_t seed = 0x5eedf5c0ull) : engine_(seed) {}

  /// Uniform double in [0, 1): std::generate_canonical<double, 53> over
  /// the engine, i.e. the next word / 2^64 rounded to nearest, with a
  /// result of 1.0 clamped to the largest double below it.
  double canonical() noexcept { return canonical_of(engine_()); }

  /// canonical()'s value for the engine word `u`.
  static double canonical_of(std::uint64_t u) noexcept {
    // u -> double rounded to nearest-even, like the compiler's unsigned
    // conversion, but without its branch on the top bit: both halves
    // convert exactly and the one rounding happens in the add.
    const double d =
        static_cast<double>(static_cast<std::int64_t>(u >> 32)) * 0x1p32 +
        static_cast<double>(static_cast<std::int64_t>(u & 0xffffffffull));
    return std::min(d * 0x1p-64, kBelowOne);
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) noexcept {
    return canonical() * (hi - lo) + lo;
  }

  /// Normal deviate with the given mean and standard deviation: the value
  /// a freshly built normal_distribution(mean, stddev) returns
  /// (libstdc++'s polar method).  The method's second (spare) deviate is
  /// discarded, as a fresh distribution per call discards it, so every
  /// draw costs two uniform pairs or more plus a log and a sqrt.  Caching
  /// the spare would halve that, but it changes every later draw and so
  /// moves every golden digest; it waits for a tolerance-checked golden
  /// summary (ROADMAP item 10).  test_util's Rng.GaussianStreamIsPinned
  /// pins the current stream.
  double gaussian(double mean, double stddev) noexcept {
    double y;
    double r2;
    do {
      const double x = 2.0 * canonical() - 1.0;
      y = 2.0 * canonical() - 1.0;
      r2 = x * x + y * y;
    } while (r2 > 1.0 || r2 == 0.0);
    return polar(y, r2) * stddev + mean;
  }

  /// `n` deviates into out[0, n): exactly the values and the engine state
  /// of n gaussian(mean, stddev) calls, in two passes per block (draw and
  /// accept the pairs, then the log/sqrt pass) so the rejection test is
  /// not a branch in front of each log.
  void fill_gaussian(double mean, double stddev, double* out,
                     std::size_t n) noexcept;

  /// Bernoulli trial with probability p of returning true.
  bool bernoulli(double p) { return std::bernoulli_distribution(p)(engine_); }

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
  }

  /// Exponentially distributed waiting time with the given rate (1/mean).
  double exponential(double rate) noexcept {
    return -std::log(1.0 - canonical()) / rate;
  }

 private:
  static constexpr double kBelowOne = 0x1.fffffffffffffp-1;

  /// The polar method's deviate from an accepted pair, in libstdc++'s
  /// operation order.
  static double polar(double y, double r2) noexcept {
    return y * std::sqrt(-2 * std::log(r2) / r2);
  }

  Mt19937_64 engine_;
};

/// Derive an independent child seed from a base seed and a stream index
/// (splitmix64 finaliser).  Used to give every server in a rack its own RNG
/// stream: derived seeds are decorrelated even for consecutive indices, and
/// depend only on (base, index) — never on thread scheduling.
constexpr std::uint64_t derive_seed(std::uint64_t base, std::uint64_t index) {
  std::uint64_t z = base + 0x9e3779b97f4a7c15ull * (index + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

}  // namespace fsc
