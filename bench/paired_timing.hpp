// Interleaved A/B wall-clock timing for the benches' ratio verdicts
// (bench_obs_overhead, bench_thread_scaling).
//
// A verdict that divides two wall times of a few milliseconds each is
// decided by whatever the host does during those milliseconds.  So every
// timed sample here sums enough back-to-back calls to last at least
// kMinSampleSeconds, the two sides alternate which goes first (a slow
// host phase lands on both), and each side keeps its minimum (the
// standard noise-robust estimator for deterministic work).
#pragma once

#include <algorithm>
#include <cmath>
#include <limits>

namespace fsc_bench {

/// Shortest wall time one timed sample may last.
inline constexpr double kMinSampleSeconds = 0.05;

/// Per-call wall seconds of the two sides of a verdict.
struct PairedSeconds {
  double a = 0.0;
  double b = 0.0;
};

/// Min over `pairs` interleaved samples of the per-call time of `a` and
/// `b`, which each run their work once and return the wall seconds of
/// the part they time.  One untimed call of each (which also warms caches
/// and lazy set-up) picks the calls per sample so the faster side's
/// sample lasts at least kMinSampleSeconds; both sides then use that
/// count.
template <typename A, typename B>
PairedSeconds min_of_interleaved(A&& a, B&& b, int pairs) {
  const double once = std::min(a(), b());
  const int calls = static_cast<int>(
      std::clamp(std::ceil(kMinSampleSeconds / std::max(once, 1e-9)), 1.0,
                 1e6));
  const auto sample_seconds = [calls](auto& timed) {
    double total = 0.0;
    for (int c = 0; c < calls; ++c) total += timed();
    return total;
  };
  double best_a = std::numeric_limits<double>::infinity();
  double best_b = best_a;
  for (int i = 0; i < pairs; ++i) {
    const bool b_first = i % 2 == 1;
    if (b_first) best_b = std::min(best_b, sample_seconds(b));
    best_a = std::min(best_a, sample_seconds(a));
    if (!b_first) best_b = std::min(best_b, sample_seconds(b));
  }
  return {best_a / calls, best_b / calls};
}

}  // namespace fsc_bench
