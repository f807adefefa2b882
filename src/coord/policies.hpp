// The built-in RackCoordinators.
//
//   independent       no cross-server action: every slot's own DtmPolicy
//                     stays in full control (the baseline the coupled
//                     engine's coordination benefit is measured against)
//   shared-fan-zone   contiguous zones of K slots share one blower; the
//                     zone speed is negotiated each coordination period as
//                     the largest per-slot request, so the hottest machine
//                     in a zone is never under-cooled by its neighbors
//   power-budget      a rack-wide CPU power budget is re-divided by
//                     max-min water-filling on demanded power: cool
//                     (lightly loaded) slots donate the headroom they are
//                     not using to hot (heavily loaded) ones, and only the
//                     still-oversubscribed slots get capped
//   failsafe          shared-fan-zone arbitration hardened against the
//                     fault layer (fault/): a zone with a dark member
//                     (sensor_ok or telemetry_ok false) ramps to a safe
//                     floor, and a zone with a seized blower ramps to max
//                     while the seized slot's CPU cap is clamped
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "coord/coordinator.hpp"

namespace fsc {

/// Baseline: never constrains any slot.
class IndependentCoordinator final : public RackCoordinator {
 public:
  explicit IndependentCoordinator(const CoordinatorConfig& cfg);
  std::string name() const override { return "independent"; }
  void reset() override {}
  void coordinate(double time_s, const std::vector<SlotObservation>& slots,
                  std::vector<SlotDirective>& out) override;
};

/// One shared blower per zone of `fan_zone_size` contiguous slots: every
/// slot in a zone is overridden with the zone's negotiated speed (the max
/// of the member policies' own requests, clamped into the fan envelope).
class FanZoneCoordinator final : public RackCoordinator {
 public:
  /// Throws std::invalid_argument when the zone size is 0.
  explicit FanZoneCoordinator(const CoordinatorConfig& cfg);
  std::string name() const override { return "shared-fan-zone"; }
  void reset() override {}
  void coordinate(double time_s, const std::vector<SlotObservation>& slots,
                  std::vector<SlotDirective>& out) override;

  std::size_t zone_of(std::size_t slot) const noexcept {
    return slot / zone_size_;
  }

 private:
  std::size_t zone_size_;
  double fan_min_rpm_;
  double fan_max_rpm_;
};

/// Rack power budget arbitration: each coordination period the budget is
/// re-divided across slots by max-min water-filling on the power each slot
/// demanded last period; slots granted less than their demand get a cap
/// limit at the utilization their allocation affords (never below
/// `min_cap`).  When the rack's aggregate demand fits the budget no slot
/// is constrained.
class PowerBudgetCoordinator final : public RackCoordinator {
 public:
  /// Throws std::invalid_argument when the effective budget or min_cap is
  /// non-positive.
  explicit PowerBudgetCoordinator(const CoordinatorConfig& cfg);
  std::string name() const override { return "power-budget"; }
  void reset() override {}
  void coordinate(double time_s, const std::vector<SlotObservation>& slots,
                  std::vector<SlotDirective>& out) override;

  double budget_watts() const noexcept { return budget_watts_; }

  /// The water-filling allocation itself (exposed for tests): divides
  /// `budget` across `demands_watts` max-min fairly — every slot gets
  /// min(demand, fair share), with unused share recursively redistributed.
  /// `alloc` is resized to the demand count (previous contents ignored),
  /// so a caller that keeps it across rounds allocates nothing.
  static void water_fill(const std::vector<double>& demands_watts,
                         double budget, std::vector<double>& alloc);

 private:
  double budget_watts_;
  double min_cap_;
  CpuPowerModel cpu_power_;
  // Per-round scratch, reused across rounds.
  std::vector<double> demand_watts_;
  std::vector<double> alloc_;
};

/// Fault-aware zone arbitration.  Healthy zones behave exactly like
/// FanZoneCoordinator (max member request).  On top of that, per zone and
/// per coordination period:
///
///   * dark member (SlotObservation::dark(): dropped sensor or telemetry
///     blackout) -> the zone speed is floored at failsafe_floor_fraction x
///     fan_max — with no trustworthy reading, buy thermal margin with
///     airflow (the BMC fan-control failsafe idiom);
///   * seized blower (actual speed below the controllable floor, which a
///     healthy actuator can never show since commands are clamped to
///     fan_min) -> the zone ramps to fan_max so neighbors carry the shared
///     plenum, and the seized slot's CPU cap is clamped to
///     failsafe_seized_cap because its local cooling is gone.
///
/// Stateless and deterministic in its inputs, like every coordinator.
class FailsafeCoordinator final : public RackCoordinator {
 public:
  /// Throws std::invalid_argument on a zero zone size, a bad fan envelope,
  /// a floor fraction outside (0, 1], or a seized cap outside (0, 1].
  explicit FailsafeCoordinator(const CoordinatorConfig& cfg);
  std::string name() const override { return "failsafe"; }
  void reset() override {}
  void coordinate(double time_s, const std::vector<SlotObservation>& slots,
                  std::vector<SlotDirective>& out) override;

  double floor_rpm() const noexcept { return floor_fraction_ * fan_max_rpm_; }

 private:
  /// Width of the linear throttle ramp below the thermal limit: a seized
  /// slot is uncapped while cooler than (limit - band) and reaches the
  /// full seized cap at the limit.  Permanently capping a seized slot
  /// would trade every deadline in the fault window for thermal safety;
  /// the ramp duty-cycles the throttle at barrier rate instead.
  static constexpr double kSeizedRampCelsius = 15.0;

  std::size_t zone_size_;
  double fan_min_rpm_;
  double fan_max_rpm_;
  double floor_fraction_;
  double seized_cap_;
  double thermal_limit_;
};

}  // namespace fsc
