// Streaming and windowed statistics.
//
// RunningStats accumulates count/mean/variance/min/max in a single pass
// (Welford).  WindowedStats keeps the last N samples for moving averages
// and local extrema — the moving-average predictor and the oscillation
// detector are built on it.
#pragma once

#include <cstddef>
#include <vector>

#include "util/ring_buffer.hpp"

namespace fsc {

/// Single-pass accumulator: count, mean, (population/sample) variance,
/// min and max.  O(1) memory.
class RunningStats {
 public:
  /// Fold one sample into the accumulator.
  void add(double x) noexcept;

  /// Number of samples folded so far.
  std::size_t count() const noexcept { return n_; }

  /// Arithmetic mean; 0 when empty.
  double mean() const noexcept { return n_ ? mean_ : 0.0; }

  /// Population variance (divides by N); 0 when fewer than 1 sample.
  double variance() const noexcept { return n_ ? m2_ / static_cast<double>(n_) : 0.0; }

  /// Sample variance (divides by N-1); 0 when fewer than 2 samples.
  double sample_variance() const noexcept {
    return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
  }

  /// Population standard deviation.
  double stddev() const noexcept;

  /// Smallest sample; +inf when empty.
  double min() const noexcept { return min_; }

  /// Largest sample; -inf when empty.
  double max() const noexcept { return max_; }

  /// Sum of all samples.
  double sum() const noexcept { return sum_; }

  /// Reset to the freshly-constructed state.
  void reset() noexcept;

  /// The raw accumulator, for drivers that advance it outside the object
  /// with add()'s exact arithmetic (batch/lane_accounting.hpp keeps it in
  /// SoA lanes between control-period boundaries).
  struct State {
    std::size_t n = 0;
    double mean = 0.0;
    double m2 = 0.0;
    double sum = 0.0;
    double min = 1e300;
    double max = -1e300;
  };
  State state() const noexcept { return {n_, mean_, m2_, sum_, min_, max_}; }
  void restore(const State& s) noexcept {
    n_ = s.n;
    mean_ = s.mean;
    m2_ = s.m2;
    sum_ = s.sum;
    min_ = s.min;
    max_ = s.max;
  }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = 1e300;
  double max_ = -1e300;
};

/// Statistics over a sliding window of the most recent `window` samples.
class WindowedStats {
 public:
  /// Create with a window of `window` samples (must be > 0).
  explicit WindowedStats(std::size_t window);

  /// Push one sample, evicting the oldest when the window is full.
  void add(double x);

  /// Number of samples currently in the window.
  std::size_t count() const noexcept { return buf_.size(); }

  /// True once `window` samples have been pushed.
  bool full() const noexcept { return buf_.full(); }

  /// Mean of the samples in the window; 0 when empty.
  double mean() const noexcept;

  /// Population variance over the window; 0 when empty.
  double variance() const noexcept;

  /// Min/max over the window; +/-inf when empty.
  double min() const noexcept;
  double max() const noexcept;

  /// Copy the window contents, oldest first.
  std::vector<double> snapshot() const;

  /// Drop all samples.
  void clear() noexcept { buf_.clear(); sum_ = 0.0; sum_sq_ = 0.0; }

 private:
  RingBuffer<double> buf_;
  double sum_ = 0.0;
  double sum_sq_ = 0.0;
};

}  // namespace fsc
