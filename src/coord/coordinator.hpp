// Cross-server coordination interface (the rack-scale analogue of
// core/controller.hpp's DtmPolicy).
//
// The paper's controllers manage one server in isolation; a RackCoordinator
// closes the loop *across* servers: once per coordination period it sees a
// snapshot of every slot (firmware-visible temperature, fan request, cap,
// demand) and may constrain the next period's decisions — override a
// slot's fan command (shared blower zones) or clamp its CPU cap (rack
// power budgeting).  Like the local controllers it only ever sees measured
// values, never ground truth.
//
// Concrete coordinators register themselves by string name in the
// PolicyFactory (core/policy_factory.hpp) so drivers select them exactly
// like DtmPolicies: `fsc --coordinator shared-fan-zone`.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "power/cpu_power.hpp"

namespace fsc {

class PolicyFactory;

/// One slot's firmware-visible snapshot at a coordination barrier.
struct SlotObservation {
  std::size_t index = 0;
  double time_s = 0.0;
  double measured_temp = 0.0;     ///< lagged + quantized junction temperature
  double inlet_celsius = 0.0;     ///< inlet air temperature currently applied
  double fan_cmd_rpm = 0.0;       ///< command in force (post-arbitration)
  double fan_requested_rpm = 0.0; ///< the slot policy's own request
  double fan_actual_rpm = 0.0;    ///< speed the blades have reached
  double cap = 1.0;               ///< cap in force (post-arbitration)
  double demand = 0.0;    ///< mean demanded utilization over the last window
  double executed = 0.0;  ///< mean executed utilization over the last window
  double cpu_watts = 0.0;         ///< CPU power at the mean executed level
  /// BMC staleness monitor: false when the slot's temperature sensor has
  /// stopped delivering fresh samples (a dropped-reading fault the
  /// firmware CAN detect; stuck-at and noisy faults pass undetected and
  /// leave this true).  Set by the FaultInjector at the barrier.
  bool sensor_ok = true;
  /// Management-plane link: false during a slot telemetry blackout, in
  /// which case every measured field above is the frozen last-good
  /// observation (only time_s advances).  Set by the FaultInjector.
  bool telemetry_ok = true;

  bool dark() const noexcept { return !sensor_ok || !telemetry_ok; }
};

/// What the coordinator imposes on one slot until the next barrier.
struct SlotDirective {
  /// Fan command replacing the slot policy's own (< 0 leaves the slot's
  /// policy in control).  Models a shared blower the slot cannot outvote.
  double fan_override_rpm = -1.0;
  /// Upper bound clamped onto the slot policy's CPU cap; 1 = unconstrained.
  double cap_limit = 1.0;

  bool has_fan_override() const noexcept { return fan_override_rpm >= 0.0; }
};

/// Shared configuration handed to coordinator builders (the rack-level
/// analogue of SolutionConfig).  Like the slot policies' model copies, the
/// power model is the *nominal* datasheet view: a rack manager knows the
/// spec sheet, not each unit's manufacturing spread.
struct CoordinatorConfig {
  std::size_t num_slots = 8;
  double coordination_period_s = 30.0;  ///< barrier spacing (fan-period scale)
  /// Contiguous slots sharing one blower ("shared-fan-zone").
  std::size_t fan_zone_size = 4;
  /// Total rack CPU power budget in watts ("power-budget").  <= 0 derives
  /// a default of 85 % of the rack's aggregate max CPU power.
  double rack_power_budget_watts = 0.0;
  /// No slot is ever capped below this utilization, so a budget mistake
  /// cannot starve a server outright.
  double min_cap = 0.05;
  double thermal_limit_celsius = 80.0;
  double fan_min_rpm = 1500.0;
  double fan_max_rpm = 8500.0;
  CpuPowerModel cpu_power = CpuPowerModel::table1_defaults();
  /// Failsafe floor ("failsafe" coordinator): when a zone member's sensor
  /// or telemetry goes dark, the whole zone's blowers ramp to at least
  /// this fraction of fan_max_rpm — the phosphor-pid-control
  /// failSafePercent idiom: with no trustworthy reading, buy thermal
  /// margin with airflow.
  double failsafe_floor_fraction = 0.75;
  /// Cap imposed on a slot whose blower is detected seized (actual speed
  /// below the controllable floor): with its local cooling gone, the slot
  /// cannot safely run hot work, so its CPU cap is clamped here while the
  /// rest of the zone ramps to max around it.
  double failsafe_seized_cap = 0.35;

  /// The budget actually in force: explicit when positive, else the 85 %
  /// derated aggregate.
  double effective_power_budget() const noexcept {
    if (rack_power_budget_watts > 0.0) return rack_power_budget_watts;
    return 0.85 * cpu_power.max_power() * static_cast<double>(num_slots);
  }
};

/// A rack-scale coordination policy.  coordinate() is invoked once per
/// coordination period, after every slot has advanced to the barrier; it
/// must be deterministic in its inputs (the coupled engine relies on that
/// for thread-count-independent results).
class RackCoordinator {
 public:
  virtual ~RackCoordinator() = default;

  /// Registry name (matches the PolicyFactory key it was built from).
  virtual std::string name() const = 0;

  /// Discard dynamic state.
  virtual void reset() = 0;

  /// Fill `out` with one directive per slot, in slot order (resized to
  /// the slot count; previous contents ignored).  `slots` is likewise in
  /// slot order and covers the whole rack.  The engine passes the same
  /// buffer every round, so a steady-state round allocates nothing.
  virtual void coordinate(double time_s,
                          const std::vector<SlotObservation>& slots,
                          std::vector<SlotDirective>& out) = 0;
};

/// Registers the built-in coordinators ("independent", "shared-fan-zone",
/// "power-budget", "failsafe"); called once by PolicyFactory's
/// constructor.  Defined in coord/policies.cpp.
void register_builtin_coordinators(PolicyFactory& factory);

}  // namespace fsc
