// The complete non-ideal measurement pipeline:
//
//   physical value -> [Gaussian noise] -> [sample & hold @ Ts]
//                  -> [I2C transport delay] -> [8-bit ADC quantization]
//                  -> firmware-visible reading
//
// This is the plant-facing side of Fig. 2's "T_meas" arrow.  The chain is
// sampled: call observe() every simulator step with the true value, read()
// whenever a controller wants the measurement.
#pragma once

#include <optional>

#include "sensor/delay_line.hpp"
#include "sensor/noise.hpp"
#include "sensor/quantizer.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace fsc {

/// Failure mode imposed on a SensorChain (fault/fault_plan.hpp schedules
/// these; the FaultInjector arms them at coordination barriers).  All
/// modes act at the sampling instant — the cold half of observe() — so the
/// unfaulted hot path is untouched.
enum class SensorFaultMode {
  kNone,     ///< healthy
  kStuck,    ///< every new sample is the stuck-at value
  kDropped,  ///< samples stop being delivered: the reading goes stale
  kNoisy,    ///< extra Gaussian noise (beyond spec) ahead of the ADC
};

/// Configuration of the measurement pipeline.
struct SensorChainParams {
  double sample_period_s = 1.0;   ///< Table I fan sample interval
  double lag_s = 10.0;            ///< Fig. 1 measured I2C + firmware delay
  double noise_stddev = 0.0;      ///< additive Gaussian ahead of the ADC
  bool quantize = true;           ///< apply the 8-bit ADC
  double initial_value = 25.0;    ///< reading reported before first delivery
};

/// Sampled sensor pipeline with lag, noise, and quantization.
class SensorChain {
 public:
  /// Build with the given parameters and ADC.  Throws std::invalid_argument
  /// via the component constructors on invalid parameters.
  SensorChain(SensorChainParams params, AdcQuantizer adc, Rng& rng);

  /// Table I pipeline: 1 s sampling, 10 s lag, 1 degC ADC, no noise.
  static SensorChain table1_defaults(Rng& rng);

  /// Advance the pipeline clock by `dt` seconds with the physical value
  /// currently at `true_value`.  Samples are taken every sample_period.
  /// Throws std::invalid_argument when dt < 0.  Inline: this runs once per
  /// server per physics substep, and on all but every ~20th call it is
  /// just the phase accumulation (the sample period is much longer than
  /// the physics step).
  void observe(double true_value, double dt) {
    require(dt >= 0.0, "SensorChain: dt must be >= 0");
    phase_ += dt;
    // Catch up on any sample instants passed during dt.  dt is normally
    // much smaller than the sample period; the loop handles large steps
    // too.
    while (phase_ >= params_.sample_period_s) {
      phase_ -= params_.sample_period_s;
      take_sample(true_value);
    }
  }

  /// The cold half of observe(): noise, fault mode and push of one sample
  /// into the delay line.  Public for batched drivers
  /// (batch/lane_accounting.hpp) that advance the sample phase in SoA
  /// lanes and call this at each sample instant, exactly as observe()
  /// would.
  void take_sample(double true_value);

  /// Time since the last sample instant, in seconds.  set_phase() hands a
  /// lane-advanced phase back at a control-period boundary.
  double phase() const noexcept { return phase_; }
  void set_phase(double seconds) noexcept { phase_ = seconds; }

  /// The reading the firmware currently sees (lagged + quantized).
  double read() const noexcept;

  /// The quantization step of the ADC (|T_Q| in Eqn. 10); zero when
  /// quantization is disabled.
  double quantization_step() const noexcept;

  /// Reset the pipeline, pre-loading the delay line as if the physical
  /// value had been `value` forever (used to start experiments in steady
  /// state, like real firmware after boot settling).
  void reset(double value);

  const SensorChainParams& params() const noexcept { return params_; }

  /// Impose a failure mode from the next sampling instant on.  `value` is
  /// mode-specific: the stuck-at reading for kStuck, the extra noise
  /// stddev for kNoisy (must be > 0), unused for kDropped.  Throws
  /// std::invalid_argument on a non-positive kNoisy stddev.
  void set_fault(SensorFaultMode mode, double value);
  /// Return to healthy operation; stale samples drain out over the
  /// pipeline lag as fresh ones propagate (no instant heal).
  void clear_fault() noexcept { fault_mode_ = SensorFaultMode::kNone; }
  SensorFaultMode fault() const noexcept { return fault_mode_; }

 private:
  SensorChainParams params_;
  AdcQuantizer adc_;
  Rng* rng_;
  DelayLine delay_;
  double phase_ = 0.0;  ///< time since last sample
  SensorFaultMode fault_mode_ = SensorFaultMode::kNone;
  double fault_value_ = 0.0;
};

}  // namespace fsc
