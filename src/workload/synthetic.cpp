#include "workload/synthetic.hpp"

#include <cmath>
#include <numbers>
#include <vector>

#include "util/units.hpp"

namespace fsc {

namespace {

/// The square + noise samples: one Gaussian per sample, drawn in sample
/// order in one bulk call (the same draws as one gaussian() per sample).
std::vector<double> square_noise_samples(const SquareNoiseParams& params,
                                         Rng& rng) {
  require(params.phase_s >= 0.0, "synthetic workload: phase must be >= 0");
  // A NaN stddev would fail every `> 0` test and silently drop the noise.
  require(std::isfinite(params.noise_stddev) && params.noise_stddev >= 0.0,
          "synthetic workload: noise_stddev must be finite and >= 0");
  const SquareWaveWorkload square(params.low, params.high, params.period_s);
  const std::size_t n = sample_count(params.duration_s, params.sample_period_s,
                                     "synthetic workload");
  std::vector<double> samples(n);
  const bool noisy = params.noise_stddev > 0.0;
  if (noisy) rng.fill_gaussian(0.0, params.noise_stddev, samples.data(), n);
  for (std::size_t i = 0; i < n; ++i) {
    const double t = static_cast<double>(i) * params.sample_period_s;
    double u = square.demand(t + params.phase_s);
    if (noisy) u += samples[i];
    samples[i] = clamp_utilization(u);
  }
  return samples;
}

}  // namespace

std::unique_ptr<SampledWorkload> make_square_noise_workload(
    const SquareNoiseParams& params, Rng& rng) {
  return std::make_unique<SampledWorkload>(square_noise_samples(params, rng),
                                           params.sample_period_s);
}

std::unique_ptr<SampledWorkload> make_spiky_workload(const SpikyParams& params,
                                                     Rng& rng) {
  // An infinite rate draws zero gaps forever; NaN turns spikes off.
  require(std::isfinite(params.spike_rate_per_s) &&
              params.spike_rate_per_s >= 0.0,
          "spiky workload: spike_rate_per_s must be finite and >= 0");
  require(std::isfinite(params.spike_duration_s) &&
              params.spike_duration_s >= 0.0,
          "spiky workload: spike_duration_s must be finite and >= 0");
  require(std::isfinite(params.spike_level),
          "spiky workload: spike_level must be finite");
  std::vector<double> samples = square_noise_samples(params.base, rng);
  require(params.spike_rate_per_s * params.base.duration_s <=
              kMaxExpectedSpikeArrivals,
          "spiky workload: spike_rate_per_s * duration_s exceeds the "
          "expected-arrival cap");
  const std::size_t n = samples.size();
  // Poisson spike arrivals come from the Rng after the whole base trace,
  // so the base trace and spike train use disjoint, reproducible
  // randomness.  Each arrival is drawn once the previous one has started,
  // and the tail past the last sample is drained below: exactly the draws
  // (and the Rng state) of drawing them all up front, without storing a
  // list whose length grows with the horizon.  Spikes overwrite the base
  // samples in place.
  const double duration = params.base.duration_s;
  const bool spiky = params.spike_rate_per_s > 0.0;
  const double spike = clamp_utilization(params.spike_level);
  double next_spike = duration;  // >= duration: no further spike
  const auto draw_next = [&] {
    next_spike += rng.exponential(params.spike_rate_per_s);
  };
  if (spiky) {
    next_spike = 0.0;
    draw_next();
  }
  double spike_until = -1.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double now = static_cast<double>(i) * params.base.sample_period_s;
    while (next_spike < duration && next_spike <= now) {
      spike_until = next_spike + params.spike_duration_s;
      draw_next();
    }
    if (now < spike_until) samples[i] = spike;
  }
  while (spiky && next_spike < duration) draw_next();
  return std::make_unique<SampledWorkload>(std::move(samples),
                                           params.base.sample_period_s);
}

std::unique_ptr<SampledWorkload> make_diurnal_workload(const DiurnalParams& params,
                                                       Rng& rng) {
  require(params.peak >= params.base, "diurnal workload: peak must be >= base");
  require(std::isfinite(params.noise_stddev) && params.noise_stddev >= 0.0,
          "diurnal workload: noise_stddev must be finite and >= 0");
  const std::size_t n = sample_count(params.duration_s, params.sample_period_s,
                                     "synthetic workload");
  std::vector<double> samples(n);
  const bool noisy = params.noise_stddev > 0.0;
  if (noisy) rng.fill_gaussian(0.0, params.noise_stddev, samples.data(), n);
  const double mid = 0.5 * (params.base + params.peak);
  const double amp = 0.5 * (params.peak - params.base);
  for (std::size_t i = 0; i < n; ++i) {
    const double t = static_cast<double>(i) * params.sample_period_s;
    const double phase = 2.0 * std::numbers::pi * t / params.day_length_s;
    double u = mid - amp * std::cos(phase);  // trough at t = 0
    if (noisy) u += samples[i];
    samples[i] = clamp_utilization(u);
  }
  return std::make_unique<SampledWorkload>(std::move(samples), params.sample_period_s);
}

std::unique_ptr<Workload> make_step_workload(double before, double after,
                                             double step_time_s) {
  require(before >= 0.0 && before <= 1.0, "step workload: before must be in [0,1]");
  require(after >= 0.0 && after <= 1.0, "step workload: after must be in [0,1]");
  require(step_time_s >= 0.0, "step workload: step time must be >= 0");
  return std::make_unique<LambdaWorkload>(
      [before, after, step_time_s](double t) { return t < step_time_s ? before : after; });
}

}  // namespace fsc
