// Deterministic random number generation.
//
// All stochastic components (workload noise, sensor noise, spike arrivals)
// draw from an explicitly seeded Rng so experiments are reproducible and
// tests are deterministic.
#pragma once

#include <cstdint>
#include <random>

namespace fsc {

/// Thin wrapper over std::mt19937_64 exposing exactly the distributions the
/// library needs.  Every consumer takes an Rng& so seeds are owned by the
/// experiment, never hidden in globals.
class Rng {
 public:
  /// Seed the generator; the default seed gives a documented, fixed stream.
  explicit Rng(std::uint64_t seed = 0x5eedf5c0ull) : engine_(seed) {}

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) {
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }

  /// Normal deviate with the given mean and standard deviation.
  ///
  /// Each call builds a fresh std::normal_distribution, so the polar
  /// method's second (spare) deviate is discarded and every draw costs two
  /// uniform pairs plus a log and a sqrt.  Synthetic workloads draw one
  /// deviate per sample, which makes make_square_noise_workload about
  /// three quarters of a one-thread session's setup.  Caching the spare
  /// would halve that, but it changes every later draw and so moves every
  /// golden digest; it waits for a tolerance-checked golden summary
  /// (ROADMAP item 4).  test_util's Rng.GaussianStreamIsPinned pins the
  /// current stream.
  double gaussian(double mean, double stddev) {
    return std::normal_distribution<double>(mean, stddev)(engine_);
  }

  /// Bernoulli trial with probability p of returning true.
  bool bernoulli(double p) { return std::bernoulli_distribution(p)(engine_); }

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
  }

  /// Exponentially distributed waiting time with the given rate (1/mean).
  double exponential(double rate) {
    return std::exponential_distribution<double>(rate)(engine_);
  }

  /// Access the raw engine (for std::shuffle and similar).
  std::mt19937_64& engine() noexcept { return engine_; }

 private:
  std::mt19937_64 engine_;
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
