#include "workload/trace_fit.hpp"

#include <cmath>
#include <numeric>

#include "util/rng.hpp"
#include "util/units.hpp"

namespace fsc {

namespace {

constexpr double kTwoPi = 6.283185307179586476925286766559;

double mean_of(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  return std::accumulate(v.begin(), v.end(), 0.0) /
         static_cast<double>(v.size());
}

double stddev_of(const std::vector<double>& v, double mean) {
  if (v.size() < 2) return 0.0;
  double acc = 0.0;
  for (double x : v) acc += (x - mean) * (x - mean);
  return std::sqrt(acc / static_cast<double>(v.size() - 1));
}

}  // namespace

TraceFit fit_trace(const std::vector<double>& samples,
                   double sample_period_s) {
  require(!samples.empty(), "fit_trace: samples must be non-empty");
  require(sample_period_s > 0.0, "fit_trace: sample period must be > 0");

  TraceFit fit;
  fit.sample_period_s = sample_period_s;
  const std::size_t n = samples.size();
  const double duration = static_cast<double>(n) * sample_period_s;

  // --- bursts: runs above mean + 2 sigma of the raw signal ---------------
  const double raw_mean = mean_of(samples);
  const double raw_std = stddev_of(samples, raw_mean);
  const double threshold = raw_mean + 2.0 * raw_std;
  std::vector<char> bursty(n, 0);
  std::size_t burst_samples = 0, burst_runs = 0;
  double burst_sum = 0.0;
  if (raw_std > 0.0) {
    bool in_run = false;
    for (std::size_t i = 0; i < n; ++i) {
      if (samples[i] > threshold) {
        bursty[i] = 1;
        ++burst_samples;
        burst_sum += samples[i];
        if (!in_run) {
          ++burst_runs;
          in_run = true;
        }
      } else {
        in_run = false;
      }
    }
  }
  fit.burst_fraction =
      static_cast<double>(burst_samples) / static_cast<double>(n);
  fit.burst_level =
      burst_samples > 0 ? burst_sum / static_cast<double>(burst_samples) : 0.0;
  fit.burst_duration_s =
      burst_runs > 0 ? static_cast<double>(burst_samples) /
                           static_cast<double>(burst_runs) * sample_period_s
                     : 0.0;
  // P(start | not bursting): runs / samples outside bursts.
  const std::size_t calm = n - burst_samples;
  fit.burst_start_prob =
      calm > 0 ? static_cast<double>(burst_runs) / static_cast<double>(calm)
               : 0.0;

  // --- baseline + diurnal component on the de-bursted signal -------------
  std::vector<double> calm_samples;
  calm_samples.reserve(calm);
  for (std::size_t i = 0; i < n; ++i) {
    if (!bursty[i]) calm_samples.push_back(samples[i]);
  }
  if (calm_samples.empty()) calm_samples = samples;  // everything bursty
  fit.mean = mean_of(calm_samples);

  // Coarse periodogram: one DFT bin per candidate fundamental, keeping the
  // highest-energy one.  Candidates are a full day when the trace covers
  // one (the paper's diurnal case) plus the first 8 harmonics of the trace
  // span, so a 200 s square wave inside a 600 s trace is found at span/3
  // instead of being smeared into noise by a span-length bin.  Burst
  // samples are excluded so a spike train doesn't masquerade as a
  // sinusoid.
  std::size_t dft_count = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (!bursty[i]) ++dft_count;
  }
  fit.diurnal_period_s = duration;
  fit.diurnal_amplitude = 0.0;
  fit.diurnal_phase = 0.0;
  std::vector<double> candidates;
  if (duration >= 86400.0) candidates.push_back(86400.0);
  for (int k = 1; k <= 8; ++k) {
    candidates.push_back(duration / static_cast<double>(k));
  }
  for (double period : candidates) {
    const double omega = kTwoPi / period;
    double cos_acc = 0.0, sin_acc = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      if (bursty[i]) continue;
      const double t = static_cast<double>(i) * sample_period_s;
      const double centred = samples[i] - fit.mean;
      cos_acc += centred * std::cos(omega * t);
      sin_acc += centred * std::sin(omega * t);
    }
    if (dft_count > 0) {
      cos_acc *= 2.0 / static_cast<double>(dft_count);
      sin_acc *= 2.0 / static_cast<double>(dft_count);
    }
    const double amplitude =
        std::sqrt(cos_acc * cos_acc + sin_acc * sin_acc);
    if (amplitude > fit.diurnal_amplitude) {
      fit.diurnal_amplitude = amplitude;
      fit.diurnal_period_s = period;
      // u ~ mean + A sin(omega t + phi): sin term carries cos(phi), cos
      // term carries sin(phi).
      fit.diurnal_phase = std::atan2(cos_acc, sin_acc);
    }
  }

  // --- residual noise after mean + sinusoid, outside bursts --------------
  const double best_omega = kTwoPi / fit.diurnal_period_s;
  double resid_acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    if (bursty[i]) continue;
    const double t = static_cast<double>(i) * sample_period_s;
    const double model =
        fit.mean +
        fit.diurnal_amplitude * std::sin(best_omega * t + fit.diurnal_phase);
    resid_acc += (samples[i] - model) * (samples[i] - model);
  }
  fit.noise_stddev =
      dft_count > 1
          ? std::sqrt(resid_acc / static_cast<double>(dft_count - 1))
          : 0.0;
  return fit;
}

TraceFit fit_trace(const SampledWorkload& w) {
  return fit_trace(std::vector<double>(w.data(), w.data() + w.size()),
                   w.sample_period());
}

std::vector<double> synthesize_samples(const TraceFit& fit,
                                       std::size_t n_samples,
                                       std::uint64_t seed) {
  require(n_samples > 0, "synthesize_samples: need at least one sample");
  require(fit.sample_period_s > 0.0 && fit.diurnal_period_s > 0.0,
          "synthesize_samples: fit must come from fit_trace");

  Rng rng(seed);
  const double omega = kTwoPi / fit.diurnal_period_s;
  const std::size_t burst_len = fit.burst_duration_s > 0.0
                                    ? static_cast<std::size_t>(std::lround(
                                          fit.burst_duration_s /
                                          fit.sample_period_s))
                                    : 0;
  std::vector<double> out;
  out.reserve(n_samples);
  std::size_t burst_left = 0;
  for (std::size_t i = 0; i < n_samples; ++i) {
    const double t = static_cast<double>(i) * fit.sample_period_s;
    double u;
    if (burst_left > 0) {
      --burst_left;
      u = fit.burst_level;
    } else {
      u = fit.mean +
          fit.diurnal_amplitude * std::sin(omega * t + fit.diurnal_phase);
      if (burst_len > 0 && fit.burst_start_prob > 0.0 &&
          rng.bernoulli(std::min(1.0, fit.burst_start_prob))) {
        burst_left = burst_len;  // burst begins next sample
      }
    }
    if (fit.noise_stddev > 0.0) u = rng.gaussian(u, fit.noise_stddev);
    out.push_back(clamp_utilization(u));
  }
  return out;
}

std::shared_ptr<const SampledWorkload> synthesize_workload(const TraceFit& fit,
                                                           double duration_s,
                                                           std::uint64_t seed) {
  require(fit.sample_period_s > 0.0,
          "synthesize_workload: fit must come from fit_trace");
  const std::size_t n =
      sample_count(duration_s, fit.sample_period_s, "synthesize_workload");
  return std::make_shared<SampledWorkload>(
      synthesize_samples(fit, n == 0 ? 1 : n, seed), fit.sample_period_s);
}

}  // namespace fsc
