// The shared cooling plant: the physical resource that couples rooms at
// the facility tier.
//
// A room's own models (coord/ shared plenum, room/ cross-rack plenum)
// close the air loop *inside* one room.  What they take as given — cold
// supply air in unlimited quantity — is what a real facility rations: K
// rooms draw on one CRAC/chiller train with a finite heat-removal
// capacity, and the supply-air temperature every room's racks breathe
// tracks the outside-air/economizer state over the day.
//
// The model here is deliberately barrier-rate (it is evaluated only at
// facility coordination barriers, a handful of times per coordination
// period, never in the per-substep hot path):
//
//   * capacity: the plant removes at most `capacity_watts` of compute
//     heat.  Demands (per-room aggregate CPU watts) within capacity are
//     granted in full; an oversubscribed plant divides capacity by the
//     same max-min water-filling the rack power-budget coordinator uses
//     (coord/policies.hpp), and a shorted room is throttled via the
//     facility demand-scale hook (grant/demand, floored at
//     `min_demand_scale`) while its *unmet* heat lingers as a supply-air
//     temperature rise (`unmet_celsius_per_kw`) — under-removed heat
//     comes back around the CRAC loop.
//
//   * weather/economizer: a diurnal supply-air offset profile
//     amplitude/2 * (1 - cos(2*pi*(t - phase)/period)) — 0 degC at the
//     profile's coolest point (t = phase), `supply_amplitude_c` at its
//     hottest, one cycle per `supply_period_s` (a day by default).
//     Amplitude 0 yields *exactly* 0.0 (no trig evaluated), so the
//     default plant is provably the identity on every room.
//
// capacity_watts < 0 means unconstrained: allocate() grants every demand
// without touching water_fill, which is what makes "facility of K rooms
// == K standalone rooms" an exact (EXPECT_EQ) statement in test_facility.
#pragma once

#include <cstddef>
#include <vector>

namespace fsc {

struct CoolingPlantParams {
  /// Total compute-heat removal capacity in watts; < 0 = unconstrained.
  double capacity_watts = -1.0;
  /// Supply-air temperature rise per kW of unmet (un-removed) heat.
  double unmet_celsius_per_kw = 0.5;
  /// Floor on the facility demand throttle of a shorted room.
  double min_demand_scale = 0.25;

  /// Diurnal supply-air profile: peak offset in degC (0 disables), cycle
  /// length, and the time of the coolest point.
  double supply_amplitude_c = 0.0;
  double supply_period_s = 86400.0;
  double supply_phase_s = 0.0;
};

/// One room's share of the plant for the next facility period.
struct RoomCoolingAllocation {
  double granted_watts = 0.0;    ///< heat the plant removes for this room
  double demand_scale = 1.0;     ///< facility throttle (1 = unconstrained)
  double supply_offset_c = 0.0;  ///< weather + unmet-heat supply-air rise
};

class CoolingPlant {
 public:
  /// Throws std::invalid_argument on a non-positive supply period, a
  /// negative amplitude or unmet coefficient, or a min scale outside
  /// (0, 1].
  explicit CoolingPlant(const CoolingPlantParams& params);

  const CoolingPlantParams& params() const noexcept { return params_; }
  bool constrained() const noexcept { return params_.capacity_watts >= 0.0; }

  /// The diurnal supply-air offset at time t; exactly 0.0 when the
  /// amplitude is 0.
  double weather_offset(double time_s) const;

  /// Divide the plant across per-room heat demands (watts) for the
  /// facility period starting at `time_s`.  out is resized to
  /// demands.size().  Deterministic pure function of its inputs.  Reuses
  /// a scratch buffer across calls (so a steady-state facility round
  /// allocates nothing), which makes concurrent calls on one plant a race;
  /// the facility calls it from its barrier thread only.
  void allocate(double time_s, const std::vector<double>& demands_watts,
                std::vector<RoomCoolingAllocation>& out) const;

 private:
  CoolingPlantParams params_;
  mutable std::vector<double> grants_;  ///< water-filling scratch
};

}  // namespace fsc
