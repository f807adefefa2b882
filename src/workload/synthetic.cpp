#include "workload/synthetic.hpp"

#include <cmath>
#include <numbers>
#include <vector>

#include "util/units.hpp"

namespace fsc {

std::unique_ptr<SampledWorkload> make_square_noise_workload(
    const SquareNoiseParams& params, Rng& rng) {
  require(params.phase_s >= 0.0, "synthetic workload: phase must be >= 0");
  const SquareWaveWorkload square(params.low, params.high, params.period_s);
  const std::size_t n = sample_count(params.duration_s, params.sample_period_s,
                                     "synthetic workload");
  std::vector<double> samples;
  samples.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double t = static_cast<double>(i) * params.sample_period_s;
    double u = square.demand(t + params.phase_s);
    if (params.noise_stddev > 0.0) u += rng.gaussian(0.0, params.noise_stddev);
    samples.push_back(clamp_utilization(u));
  }
  return std::make_unique<SampledWorkload>(std::move(samples), params.sample_period_s);
}

std::unique_ptr<SampledWorkload> make_spiky_workload(const SpikyParams& params,
                                                     Rng& rng) {
  auto base = make_square_noise_workload(params.base, rng);
  const std::size_t n = sample_count(params.base.duration_s,
                                     params.base.sample_period_s,
                                     "synthetic workload");
  std::vector<double> samples;
  samples.reserve(n);
  // Poisson spike arrivals come from the Rng after the whole base trace,
  // so the base trace and spike train use disjoint, reproducible
  // randomness.  Each arrival is drawn once the previous one has started,
  // and the tail past the last sample is drained below: exactly the draws
  // (and the Rng state) of drawing them all up front, without storing a
  // list whose length grows with the horizon.
  const double duration = params.base.duration_s;
  const bool spiky = params.spike_rate_per_s > 0.0;
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
    const double u = now < spike_until ? params.spike_level : base->demand(now);
    samples.push_back(clamp_utilization(u));
  }
  while (spiky && next_spike < duration) draw_next();
  return std::make_unique<SampledWorkload>(std::move(samples),
                                           params.base.sample_period_s);
}

std::unique_ptr<SampledWorkload> make_diurnal_workload(const DiurnalParams& params,
                                                       Rng& rng) {
  require(params.peak >= params.base, "diurnal workload: peak must be >= base");
  const std::size_t n = sample_count(params.duration_s, params.sample_period_s,
                                     "synthetic workload");
  std::vector<double> samples;
  samples.reserve(n);
  const double mid = 0.5 * (params.base + params.peak);
  const double amp = 0.5 * (params.peak - params.base);
  for (std::size_t i = 0; i < n; ++i) {
    const double t = static_cast<double>(i) * params.sample_period_s;
    const double phase = 2.0 * std::numbers::pi * t / params.day_length_s;
    double u = mid - amp * std::cos(phase);  // trough at t = 0
    if (params.noise_stddev > 0.0) u += rng.gaussian(0.0, params.noise_stddev);
    samples.push_back(clamp_utilization(u));
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
