// The closed-form per-server plant math, factored out of the model classes
// so exactly ONE implementation of each hot-path expression exists in the
// library.  thermal/HeatSinkModel, thermal/RcNode, power/FanPowerModel, and
// actuator/FanActuator call these inline functions for their scalar paths,
// and batch/ServerBatch calls the very same functions once per SoA lane —
// which is what makes the batched and scalar trajectories bit-identical by
// construction: both paths evaluate the same expression trees on the same
// inputs, and the transcendental calls (std::pow, std::exp) are
// deterministic functions of their arguments, so memoising them across
// substeps (ServerBatch does, the scalar models do not) cannot change a
// single bit.
//
// Everything here is pure (no state, no validation, no allocation).  Range
// checking stays in the owning model classes so their exception behaviour
// is unchanged.
#pragma once

#include <cmath>

#include "util/units.hpp"

namespace fsc::plant {

/// Heat-sink thermal resistance Rhs(v) = r_base + r_coeff * v^-r_exp with
/// the sub-1 rpm clamp that keeps the power law finite (Table I).
inline double heat_sink_resistance(double r_base, double r_coeff,
                                   double r_exp, double rpm) noexcept {
  const double v = rpm < 1.0 ? 1.0 : rpm;
  return r_base + r_coeff * std::pow(v, -r_exp);
}

/// Exact-exponential decay factor of a first-order RC node over `dt`
/// seconds at time constant `tau` (paper Eqn. 2).
inline double rc_decay(double dt, double tau_seconds) noexcept {
  return std::exp(-dt / tau_seconds);
}

/// One exact-exponential relaxation step given a precomputed decay factor:
/// T' = T_ss + (T - T_ss) * decay.
inline double rc_relax(double temperature, double steady_state,
                       double decay) noexcept {
  return steady_state + (temperature - steady_state) * decay;
}

/// One substep of the batch's two-node thermal update (paper Eqns. 2-3),
/// in Server::step's order: the heat-sink node relaxes toward
/// ambient + Rhs * P, then the die node toward the new heat-sink
/// temperature + R_die * P.  The one lane body that ServerBatch::step_range
/// and the period kernel (LaneAccounting::advance_period) both run.
inline void step_nodes(double& heat_sink, double& junction, double ambient,
                       double r_hs, double cpu_watts, double hs_decay,
                       double r_die, double die_decay) noexcept {
  heat_sink = rc_relax(heat_sink, ambient + r_hs * cpu_watts, hs_decay);
  junction = rc_relax(junction, heat_sink + r_die * cpu_watts, die_decay);
}

/// Cubic fan power P(s) = P_max * (s / s_max)^3 with the [0, s_max] clamp.
inline double fan_power(double power_at_max_watts, double max_speed_rpm,
                        double rpm) noexcept {
  const double s = clamp(rpm, 0.0, max_speed_rpm) / max_speed_rpm;
  return power_at_max_watts * s * s * s;
}

/// Slew-rate-limited actuator update: move `actual_rpm` toward
/// `commanded_rpm` by at most `max_delta_rpm`, landing exactly ON the
/// command once within reach (no asymptotic creep).  Branch-free in the
/// vectorization sense: a single select, no data-dependent control flow.
inline double slew_toward(double actual_rpm, double commanded_rpm,
                          double max_delta_rpm) noexcept {
  const double delta = commanded_rpm - actual_rpm;
  return std::fabs(delta) <= max_delta_rpm
             ? commanded_rpm
             : actual_rpm + std::copysign(max_delta_rpm, delta);
}

}  // namespace fsc::plant
