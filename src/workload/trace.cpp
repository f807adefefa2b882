#include "workload/trace.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>

#include "util/units.hpp"

namespace fsc {

ConstantWorkload::ConstantWorkload(double level) : level_(level) {
  require(level >= 0.0 && level <= 1.0, "ConstantWorkload: level must be in [0,1]");
}

double ConstantWorkload::demand(double) const { return level_; }

SquareWaveWorkload::SquareWaveWorkload(double low, double high, double period_s)
    : low_(low), high_(high), period_s_(period_s) {
  require(low >= 0.0 && low <= 1.0, "SquareWaveWorkload: low must be in [0,1]");
  require(high >= 0.0 && high <= 1.0, "SquareWaveWorkload: high must be in [0,1]");
  require(period_s > 0.0, "SquareWaveWorkload: period must be > 0");
}

double SquareWaveWorkload::demand(double t) const {
  if (t < 0.0) t = 0.0;
  const double phase = std::fmod(t, period_s_);
  return phase < 0.5 * period_s_ ? low_ : high_;
}

std::size_t sample_count(double duration_s, double period_s,
                         const std::string& who) {
  // Messages are built only on failure: this runs once per workload, and a
  // facility builds 100k of them.
  if (!(duration_s > 0.0)) {
    throw std::invalid_argument(who + ": duration must be > 0");
  }
  if (!(period_s > 0.0)) {
    throw std::invalid_argument(who + ": sample period must be > 0");
  }
  const double n = std::ceil(duration_s / period_s);
  // 2^digits is exact in a double; inf fails the comparison too.
  if (!(n < std::ldexp(1.0, std::numeric_limits<std::size_t>::digits))) {
    throw std::invalid_argument(
        who + ": duration / sample period gives too many samples");
  }
  return static_cast<std::size_t>(n);
}

SampledWorkload::SampledWorkload(std::vector<double> samples, double sample_period_s)
    : samples_(std::move(samples)),
      period_s_(sample_period_s),
      inv_period_(1.0 / sample_period_s) {
  require(!samples_.empty(), "SampledWorkload: samples must be non-empty");
  require(sample_period_s > 0.0, "SampledWorkload: sample period must be > 0");
  for (double s : samples_) {
    require(s >= 0.0 && s <= 1.0, "SampledWorkload: samples must be in [0,1]");
  }
}

double SampledWorkload::demand(double t) const {
  if (t < 0.0) t = 0.0;
  return samples_[zoh_index(t, inv_period_, period_s_, samples_.size())];
}

double SampledWorkload::duration() const noexcept {
  return static_cast<double>(samples_.size()) * period_s_;
}

LambdaWorkload::LambdaWorkload(std::function<double(double)> fn) : fn_(std::move(fn)) {
  require(static_cast<bool>(fn_), "LambdaWorkload: callable must be non-empty");
}

double LambdaWorkload::demand(double t) const { return clamp_utilization(fn_(t)); }

}  // namespace fsc
