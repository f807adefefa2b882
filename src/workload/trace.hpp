// Workload abstraction: required CPU utilization as a function of time.
//
// The paper drives experiments with synthetic traces (square wave between
// 0.1 and 0.7 plus Gaussian noise, §VI-A).  A Workload answers "what
// utilization does the job mix demand at time t"; the *executed*
// utilization is min(demand, CPU cap) and is the simulator's business.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace fsc {

/// Zero-order-hold sample index for time `t` (>= 0) into an `n`-sample
/// trace with the given sample period: sample k covers
/// [k * period, (k + 1) * period), the last sample is held forever.
///
/// The division the definition implies is hoisted out of the per-call hot
/// path: callers precompute `inv_period = 1.0 / period` once and this
/// helper multiplies.  A reciprocal multiply can land one ULP on the wrong
/// side of an exact boundary (e.g. 3.0 * (1.0 / 3.0) can round below 1.0),
/// so the truncation is corrected with two multiply-compares against the
/// true period — sample k still starts exactly at fl(k * period).
///
/// This is the ONE index computation shared by SampledWorkload,
/// StoredTraceWorkload, and WorkloadTable::fill_demand, so the per-lane
/// virtual demand path and the batched gather path are bit-identical by
/// construction.
inline std::size_t zoh_index(double t, double inv_period, double period_s,
                             std::size_t n) noexcept {
  std::size_t idx = static_cast<std::size_t>(t * inv_period);
  if (static_cast<double>(idx + 1) * period_s <= t) {
    ++idx;  // reciprocal rounded low of an exact boundary
  } else if (idx > 0 && static_cast<double>(idx) * period_s > t) {
    --idx;  // reciprocal rounded high into the next sample
  }
  return idx < n ? idx : n - 1;
}

/// Interface: demanded utilization over time.  Implementations must return
/// values in [0, 1] and be deterministic for a fixed construction (all
/// randomness is drawn at construction/creation time so that repeated
/// queries at the same t agree).
class Workload {
 public:
  virtual ~Workload() = default;

  /// Demanded utilization at absolute time `t` seconds (>= 0).
  virtual double demand(double t) const = 0;
};

/// Constant demand.
class ConstantWorkload final : public Workload {
 public:
  /// Throws std::invalid_argument when level is outside [0, 1].
  explicit ConstantWorkload(double level);
  double demand(double t) const override;

 private:
  double level_;
};

/// Square wave alternating between `low` and `high` with the given period
/// (50 % duty cycle), starting at `low`.
class SquareWaveWorkload final : public Workload {
 public:
  /// Throws std::invalid_argument when levels are outside [0, 1] or
  /// period <= 0.
  SquareWaveWorkload(double low, double high, double period_s);
  double demand(double t) const override;

  double low() const noexcept { return low_; }
  double high() const noexcept { return high_; }
  double period() const noexcept { return period_s_; }

 private:
  double low_;
  double high_;
  double period_s_;
};

/// ceil(duration_s / period_s), the number of samples that cover
/// `duration_s`.  Throws std::invalid_argument, prefixed with `who`, unless
/// both are > 0 and the count fits in a std::size_t (1e300 s at 1 s would
/// otherwise reach an undefined float-to-integer cast).
std::size_t sample_count(double duration_s, double period_s,
                         const std::string& who);

/// A pre-sampled trace: utilization samples at a fixed period, with
/// zero-order hold between samples and the last sample held forever.
class SampledWorkload final : public Workload {
 public:
  /// Throws std::invalid_argument when samples is empty or period <= 0 or
  /// any sample is outside [0, 1].
  SampledWorkload(std::vector<double> samples, double sample_period_s);
  double demand(double t) const override;

  std::size_t size() const noexcept { return samples_.size(); }
  double sample_period() const noexcept { return period_s_; }
  /// Precomputed 1 / sample_period for the zoh_index hot path (and for
  /// WorkloadTable, which must gather with the exact same reciprocal).
  double inv_sample_period() const noexcept { return inv_period_; }
  const double* data() const noexcept { return samples_.data(); }
  double duration() const noexcept;

 private:
  std::vector<double> samples_;
  double period_s_;
  double inv_period_;
};

/// Wrap any callable as a workload (used by tests and examples).
class LambdaWorkload final : public Workload {
 public:
  explicit LambdaWorkload(std::function<double(double)> fn);
  double demand(double t) const override;

 private:
  std::function<double(double)> fn_;
};

}  // namespace fsc
