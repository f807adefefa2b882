// Fan actuator with slew-rate-limited transitions.
//
// Real fans cannot jump between speeds: the paper's single-step scheme
// exists precisely because reaching a new speed takes
// N_fan_trans * t_fan_interval (§V-C).  The actuator tracks a commanded
// speed with a bounded rate of change and enforces the [min, max] envelope.
#pragma once

namespace fsc {

/// Failure mode imposed on a FanActuator (fault/fault_plan.hpp schedules
/// these; the FaultInjector arms them at coordination barriers).
enum class FanFaultMode {
  kNone,         ///< healthy
  kDegradedMax,  ///< worn bearing / clogged filter: cannot exceed a ceiling
  kSeized,       ///< rotor jammed: blades only windmill in the airflow
};

/// The two inputs of the actuator's slew (plant::slew_toward): the speed
/// the rotor is driven toward and the rate it may move at.
struct FanDrive {
  double target_rpm;
  double slew_rpm_per_s;
};

/// Physical fan speed limits and dynamics.
struct FanParams {
  /// Server fans cannot run below ~18 % duty while the machine is on; at
  /// 1500 rpm the idle (96 W) junction settles at ~77 degC, so the floor
  /// itself is thermally survivable (500 rpm would mean 105 degC at idle).
  double min_rpm = 1500.0;
  double max_rpm = 8500.0;   ///< Table I
  /// Full-range ramp in ~7 s, typical of server fan PWM control.  The long
  /// transients §V-C worries about come from the 30 s decision period and
  /// the 10 s telemetry lag, not the rotor inertia.
  double slew_rpm_per_s = 1000.0;
};

/// Rate-limited first-order actuator: actual speed moves toward the command
/// at most `slew` rpm per second.
class FanActuator {
 public:
  /// Start at `initial_rpm` (clamped into [min, max]).
  /// Throws std::invalid_argument when params are inconsistent
  /// (min < 0, max <= min, slew <= 0).
  FanActuator(FanParams params, double initial_rpm);

  /// Set the commanded speed (clamped into [min, max]).
  void command(double rpm) noexcept;

  /// Advance the actuator by dt seconds: one slew toward drive().  Throws
  /// std::invalid_argument when dt < 0.
  void step(double dt);

  /// What the rotor is driven toward under the current fault mode:
  ///   healthy   the command, at the nominal slew;
  ///   degraded  min(command, ceiling), at the nominal slew;
  ///   seized    the windmill speed, at infinite slew — slew_toward lands
  ///             on it exactly in any step with dt > 0.
  /// A fault target may lie below min_rpm.  The batched engines feed this
  /// drive to their SoA kernel once per control period (ServerBatch::
  /// set_inputs), so a faulted fan slews there exactly as step() does.
  FanDrive drive() const noexcept;

  /// The speed the blades are actually spinning at.
  double speed() const noexcept { return actual_rpm_; }

  /// Overwrite the actual speed without slewing.  Batched-stepping
  /// write-back hook: the SoA kernel advances the slew in its own arrays
  /// (same plant::slew_toward expression over drive()) and mirrors the
  /// result here.  Precondition: `rpm` came from that kernel.
  void adopt_speed(double rpm) noexcept { actual_rpm_ = rpm; }

  /// The most recent commanded speed.
  double commanded() const noexcept { return commanded_rpm_; }

  /// True when the actual speed has reached the command (within 0.5 rpm).
  bool settled() const noexcept;

  /// Seconds needed to move from the current actual speed to the command.
  double transition_time() const noexcept;

  const FanParams& params() const noexcept { return params_; }

  /// Blade speed a seized rotor settles at when the fault event does not
  /// specify one: passive windmilling in the chassis airflow, well below
  /// the controllable floor — at Table I geometry the heat-sink resistance
  /// roughly triples versus min_rpm, an overheat the DTM must answer, not
  /// a numerically absurd dead-air stall.
  static constexpr double kDefaultSeizedRpm = 400.0;

  /// Impose a failure mode from the next step() on.  For kDegradedMax,
  /// `value` is the new speed ceiling in rpm (> 0); for kSeized it is the
  /// windmilling speed (<= 0 picks kDefaultSeizedRpm).  Throws
  /// std::invalid_argument on a non-positive kDegradedMax ceiling.
  void set_fault(FanFaultMode mode, double value);
  /// Return to healthy operation; the actual speed slews back toward the
  /// command from wherever the fault left it.
  void clear_fault() noexcept { fault_mode_ = FanFaultMode::kNone; }
  FanFaultMode fault() const noexcept { return fault_mode_; }

 private:
  FanParams params_;
  double commanded_rpm_;
  double actual_rpm_;
  FanFaultMode fault_mode_ = FanFaultMode::kNone;
  double fault_value_ = 0.0;
};

}  // namespace fsc
