// Shared-plenum inlet-temperature model: the physical coupling that makes
// a rack one plant instead of N independent simulations.
//
// In a real rack a slot's intake air is never pristine: some fraction of
// the warm exhaust recirculates through the plenum and preheats the
// neighbors, more strongly the closer they sit.  The model is deliberately
// first-order:
//
//   exhaust rise_j = P_j / (k * v_j / v_ref)        (energy balance:
//                                                    dT = P / (m_dot * cp),
//                                                    airflow ~ fan speed)
//   inlet_i = base_i + sum_{j != i} w(|i-j|) * rise_j
//   w(d)    = recirculation_fraction * neighbor_decay^(d-1)
//
// base_i is the slot's own jittered ambient from the Rack spec (slot
// position preheat from drives/VRMs), and the recirculation term is capped
// at max_rise_celsius so a pathological configuration cannot run away.
// The important property is the feedback sign: a hot, throttled server
// with a slow fan exhausts hotter air, which raises its neighbors'
// inlets, which raises their junction temperatures — exactly the coupling
// rack coordinators exist to manage.
#pragma once

#include <cstddef>
#include <vector>

namespace fsc {

/// Coupling strength and airflow normalisation.
struct PlenumParams {
  /// Fraction of a slot's exhaust temperature rise that reaches its
  /// immediate neighbor's inlet.  0 decouples the rack entirely.
  double recirculation_fraction = 0.12;
  /// Geometric decay of the coupling per additional slot of distance.
  double neighbor_decay = 0.5;
  /// Fan speed at which `watts_per_kelvin_at_ref` is calibrated.
  double reference_fan_rpm = 6000.0;
  /// m_dot * cp of the through-chassis airflow at the reference speed:
  /// a 240 W server at 6000 rpm exhausts 6 K above its inlet.
  double watts_per_kelvin_at_ref = 40.0;
  /// Fans below this speed are treated as this speed for the airflow
  /// estimate (protects against division by ~0 at spin-down).
  double min_airflow_rpm = 500.0;
  /// Hard cap on the total recirculation preheat of any one slot.
  double max_rise_celsius = 15.0;
};

/// Per-slot operating point feeding the plenum.
struct PlenumSlotState {
  double cpu_watts = 0.0;
  double fan_rpm = 0.0;
};

/// Computes every slot's inlet temperature from the rack's current
/// operating point.  Stateless apart from configuration (the params, the
/// base inlets and the distance-weight table derived from them), hence
/// trivially deterministic.
class SharedPlenumModel {
 public:
  /// `base_inlet_celsius[i]` is slot i's uncoupled inlet temperature.
  /// Throws std::invalid_argument on an empty rack or invalid params
  /// (negative fractions, decay outside [0, 1], non-positive airflow
  /// normalisation).
  SharedPlenumModel(PlenumParams params, std::vector<double> base_inlet_celsius);

  std::size_t size() const noexcept { return base_inlet_celsius_.size(); }
  const PlenumParams& params() const noexcept { return params_; }
  const std::vector<double>& base_inlets() const noexcept {
    return base_inlet_celsius_;
  }

  /// Exhaust temperature rise over inlet for one slot's operating point.
  double exhaust_rise(double cpu_watts, double fan_rpm) const;

  /// All slots' inlet temperatures, in slot order.  Throws
  /// std::invalid_argument when `slots` does not match the rack size.
  /// Allocates its buffers locally, so it stays safe to call concurrently
  /// on one model.
  std::vector<double> inlet_temperatures(
      const std::vector<PlenumSlotState>& slots) const;

  /// Allocation-free variant for per-round callers: writes into `out`
  /// (resized to the rack size).  Reuses an internal scratch buffer, so —
  /// unlike the returning overload — this one is NOT safe to call
  /// concurrently on the same model (the lockstep barriers are serial).
  void inlet_temperatures(const std::vector<PlenumSlotState>& slots,
                          std::vector<double>& out) const;

 private:
  void compute_inlets(const std::vector<PlenumSlotState>& slots,
                      std::vector<double>& rise,
                      std::vector<double>& out) const;

  PlenumParams params_;
  std::vector<double> base_inlet_celsius_;
  /// weight_[d] = w(d) for slot distance d in [1, size()); index 0 is
  /// unused.  Built once in the constructor so the per-round pair loop
  /// (4,032 pairs at 64 slots) calls no std::pow.
  std::vector<double> weight_;
  mutable std::vector<double> rise_scratch_;  ///< out-param overload only
};

}  // namespace fsc
