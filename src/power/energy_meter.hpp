// Energy accounting.
//
// Integrates instantaneous power over simulation time, keeping CPU and fan
// contributions separate so Table III's "normalized fan energy" column can
// be reproduced directly.
#pragma once

#include <cstddef>

#include "util/units.hpp"

namespace fsc {

/// Trapezoid-free rectangular integrator: each call accounts `power * dt`.
/// The simulator steps are small (<= 0.1 s) relative to the plant time
/// constants (>= 0.1 s die, 60 s heat sink), so rectangular integration is
/// accurate to well under the model error.
class EnergyMeter {
 public:
  /// Account `dt` seconds at the given CPU and fan power draw (watts).
  /// Throws std::invalid_argument when dt < 0.  Inline: this runs once per
  /// server per physics substep — the hottest non-plant call in the
  /// simulator.
  void accumulate(double cpu_watts, double fan_watts, double dt) {
    require(dt >= 0.0, "EnergyMeter: dt must be >= 0");
    cpu_joules_ += cpu_watts * dt;
    fan_joules_ += fan_watts * dt;
    elapsed_ += dt;
  }

  /// Joules consumed by the CPU so far.
  double cpu_energy() const noexcept { return cpu_joules_; }

  /// Joules consumed by the fan subsystem so far.
  double fan_energy() const noexcept { return fan_joules_; }

  /// Total joules (CPU + fan).
  double total_energy() const noexcept { return cpu_joules_ + fan_joules_; }

  /// Seconds of simulated time accounted.
  double elapsed() const noexcept { return elapsed_; }

  /// Mean total power over the accounted interval; 0 when nothing accounted.
  double average_power() const noexcept;

  /// Reset all accumulators to zero.
  void reset() noexcept;

  /// Overwrite the accumulators — for drivers that integrate them outside
  /// the meter with accumulate()'s exact arithmetic (batch/
  /// lane_accounting.hpp keeps them in SoA lanes between control-period
  /// boundaries).
  void restore(double cpu_joules, double fan_joules, double elapsed_s) noexcept {
    cpu_joules_ = cpu_joules;
    fan_joules_ = fan_joules;
    elapsed_ = elapsed_s;
  }

 private:
  double cpu_joules_ = 0.0;
  double fan_joules_ = 0.0;
  double elapsed_ = 0.0;
};

}  // namespace fsc
