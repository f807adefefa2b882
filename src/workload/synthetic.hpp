// Synthetic workload generators (paper §VI-A).
//
// "We used synthetic workload traces which alternate between 0.1 and 0.7
//  while imposing a random Gaussian noise."
//
// Generators pre-sample the trace at a fixed period (1 s, the CPU control
// period) so a given seed always produces the identical experiment.
#pragma once

#include <memory>

#include "util/rng.hpp"
#include "workload/trace.hpp"

namespace fsc {

/// Parameters for the paper's square + noise trace.
struct SquareNoiseParams {
  double low = 0.1;             ///< paper's low utilization level
  double high = 0.7;            ///< paper's high utilization level
  double period_s = 200.0;      ///< full square period
  double phase_s = 0.0;         ///< phase offset (>= 0); the wave starts
                                ///< `phase_s` seconds into its period
  double noise_stddev = 0.04;   ///< Fig. 5 caption: sigma = 0.04
  double sample_period_s = 1.0; ///< matches the CPU control interval
  double duration_s = 3600.0;
};

/// Square wave with additive Gaussian noise, clamped into [0, 1].
std::unique_ptr<SampledWorkload> make_square_noise_workload(
    const SquareNoiseParams& params, Rng& rng);

/// Parameters for the spiky trace used to exercise single-step scaling
/// (§V-C: "abrupt spikes on required CPU utilization").
struct SpikyParams {
  SquareNoiseParams base;        ///< underlying square + noise trace
  double spike_rate_per_s = 1.0 / 300.0;  ///< mean one spike per 5 minutes
  double spike_level = 1.0;      ///< demand during a spike
  double spike_duration_s = 20.0;
};

/// The most spike arrivals a spiky trace may expect
/// (spike_rate_per_s * duration_s): every arrival is one Rng draw, so an
/// unbounded rate would not return.  A day at one spike per second
/// expects 86,400.
inline constexpr double kMaxExpectedSpikeArrivals = 1e7;

/// Square + noise trace with Poisson-arriving saturation spikes.  Throws
/// std::invalid_argument naming spike_rate_per_s when the expected
/// arrival count exceeds kMaxExpectedSpikeArrivals.
std::unique_ptr<SampledWorkload> make_spiky_workload(const SpikyParams& params,
                                                     Rng& rng);

/// Parameters for a smooth day/night utilization curve (used by the
/// datacenter_day example).
struct DiurnalParams {
  double base = 0.15;           ///< overnight trough utilization
  double peak = 0.85;           ///< mid-day peak utilization
  double day_length_s = 86400.0;
  double noise_stddev = 0.03;
  double sample_period_s = 1.0;
  double duration_s = 86400.0;
};

/// Sinusoidal diurnal curve with noise: trough at t = 0, peak at mid-day.
std::unique_ptr<SampledWorkload> make_diurnal_workload(const DiurnalParams& params,
                                                       Rng& rng);

/// Single utilization step from `before` to `after` at `step_time_s`
/// (used for the Fig. 1 lag demonstration and PID step-response tests).
std::unique_ptr<Workload> make_step_workload(double before, double after,
                                             double step_time_s);

}  // namespace fsc
