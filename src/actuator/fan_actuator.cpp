#include "actuator/fan_actuator.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "batch/plant_kernel.hpp"
#include "util/units.hpp"

namespace fsc {

FanActuator::FanActuator(FanParams params, double initial_rpm) : params_(params) {
  require(params.min_rpm >= 0.0, "FanActuator: min rpm must be >= 0");
  require(params.max_rpm > params.min_rpm, "FanActuator: max rpm must exceed min");
  require(params.slew_rpm_per_s > 0.0, "FanActuator: slew must be > 0");
  actual_rpm_ = clamp(initial_rpm, params.min_rpm, params.max_rpm);
  commanded_rpm_ = actual_rpm_;
}

void FanActuator::command(double rpm) noexcept {
  commanded_rpm_ = clamp(rpm, params_.min_rpm, params_.max_rpm);
}

void FanActuator::step(double dt) {
  require(dt >= 0.0, "FanActuator: dt must be >= 0");
  // No time, no motion — and a seized drive's infinite slew times zero
  // would be NaN.
  if (dt == 0.0) return;
  const FanDrive d = drive();
  actual_rpm_ =
      plant::slew_toward(actual_rpm_, d.target_rpm, d.slew_rpm_per_s * dt);
}

FanDrive FanActuator::drive() const noexcept {
  switch (fault_mode_) {
    case FanFaultMode::kDegradedMax:
      // The drive still slews toward the command, but the rotor tops out
      // at the degraded ceiling.
      return {std::min(commanded_rpm_, fault_value_), params_.slew_rpm_per_s};
    case FanFaultMode::kSeized:
      // Jammed: commands are ignored; the blades only windmill.
      return {fault_value_ > 0.0 ? fault_value_ : kDefaultSeizedRpm,
              std::numeric_limits<double>::infinity()};
    case FanFaultMode::kNone:
      break;
  }
  return {commanded_rpm_, params_.slew_rpm_per_s};
}

void FanActuator::set_fault(FanFaultMode mode, double value) {
  require(mode != FanFaultMode::kDegradedMax || value > 0.0,
          "FanActuator: degraded-max ceiling must be > 0");
  fault_mode_ = mode;
  fault_value_ = value;
}

bool FanActuator::settled() const noexcept {
  return std::fabs(commanded_rpm_ - actual_rpm_) < 0.5;
}

double FanActuator::transition_time() const noexcept {
  return std::fabs(commanded_rpm_ - actual_rpm_) / params_.slew_rpm_per_s;
}

}  // namespace fsc
