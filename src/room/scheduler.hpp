// Room-level scheduling interface (the third rung of the control ladder:
// core/controller.hpp manages one server, coord/coordinator.hpp one rack,
// a RoomScheduler a room of racks).
//
// Where a RackCoordinator moves *watts* (fan overrides, cap limits), a
// RoomScheduler moves *work*: once per room round it sees an aggregate
// snapshot of every rack and may retarget each rack's demand scale — the
// multiplier applied to every slot's demanded utilization — migrating load
// off thermally or electrically stressed racks onto racks with headroom.
// Like the lower tiers it only ever sees observed aggregates, never ground
// truth, and must be deterministic in its inputs (the RoomEngine relies on
// that for thread-count-independent results).
//
// Concrete schedulers register themselves by string name in the
// PolicyFactory (core/policy_factory.hpp) so drivers select them exactly
// like DtmPolicies and RackCoordinators: `fsc --racks 4 --scheduler thermal-headroom`.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "coord/coordinator.hpp"
#include "obs/obs.hpp"
#include "power/cpu_power.hpp"

namespace fsc {

class PolicyFactory;

/// One rack's aggregate snapshot at a room barrier.
struct RackObservation {
  std::size_t index = 0;
  double time_s = 0.0;
  std::size_t slots = 0;
  double demand = 0.0;     ///< mean demanded utilization per slot (post-scale)
  double executed = 0.0;   ///< mean executed utilization per slot
  double cpu_watts = 0.0;  ///< aggregate CPU power across the rack
  double mean_inlet_celsius = 0.0;
  double max_inlet_celsius = 0.0;
  double mean_measured_temp = 0.0;  ///< firmware-visible, lagged + quantized
  double max_measured_temp = 0.0;
  double mean_fan_rpm = 0.0;  ///< mean actual blade speed
  /// Deadline violations this rack accumulated since the previous room
  /// barrier (pooled over its slots).
  std::size_t window_deadline_violations = 0;
  double demand_scale = 1.0;  ///< scale currently in force on this rack
  /// Slots whose management-plane telemetry is blacked out
  /// (SlotObservation::telemetry_ok false): their contribution to every
  /// aggregate above is a frozen last-good value, not a live reading.  A
  /// fault-aware scheduler ("failsafe") treats a rack with dark slots as a
  /// migration source since its true thermal state is unknown.
  std::size_t dark_slots = 0;
};

/// Aggregate one rack's SlotObservations (as collected by the rack barrier
/// via coord/observe.hpp) into the RackObservation a RoomScheduler sees.
/// `window_deadline_violations` and `demand_scale` are rack-level facts the
/// room engine tracks itself.  Defined in room/schedulers.cpp; shared by
/// RoomEngine and tests so the per-server gather lives in exactly one
/// place.
RackObservation aggregate_rack_observation(
    std::size_t index, double time_s, const std::vector<SlotObservation>& slots,
    std::size_t window_deadline_violations, double demand_scale);

/// What the scheduler imposes on one rack until the next room barrier.
struct RackDirective {
  /// Multiplier on every slot's demanded utilization; 1 = the rack's own
  /// trace load, untouched.  Migration moves scale mass between racks.
  double demand_scale = 1.0;
};

/// Shared configuration handed to scheduler builders (the room-level
/// analogue of CoordinatorConfig).  num_racks, total_slots, and the
/// nominal power model are synced from the room spec by the engine, so
/// callers only set the genuinely free knobs.
struct RoomSchedulerConfig {
  std::size_t num_racks = 4;
  std::size_t total_slots = 32;  ///< across the whole room
  /// Fraction of the donor rack's current load moved per migration
  /// ("thermal-headroom").
  double migration_step = 0.15;
  /// Demand-scale envelope: no rack is ever scaled outside [min, max], so
  /// a runaway migration loop cannot starve or overload a rack.
  double min_demand_scale = 0.25;
  double max_demand_scale = 2.0;
  /// Minimum inlet-temperature spread (hottest - coolest rack) before a
  /// migration fires; the deadband half of the anti-thrash model.
  double hysteresis_celsius = 0.75;
  /// Rounds to hold off after a migration while the plant responds; the
  /// settling half of the anti-thrash model.
  std::size_t cooldown_rounds = 2;
  /// Transient overhead of moving work: the receiving rack runs this
  /// fraction of extra demand for one round (state transfer, cache warmup).
  double migration_cost_fraction = 0.05;
  /// Room-wide CPU power budget in watts ("power-aware").  <= 0 derives a
  /// default of 85 % of the room's aggregate max CPU power.
  double room_power_budget_watts = 0.0;
  /// Moving-average window (room rounds) of the per-rack demand forecast
  /// the "failsafe" scheduler keeps (workload/predictor.hpp): when a rack's
  /// telemetry goes dark its observed demand freezes, so migration math
  /// falls back on the forecast instead of the stale reading.
  std::size_t predictor_window = 8;
  CpuPowerModel cpu_power = CpuPowerModel::table1_defaults();

  /// The budget actually in force: explicit when positive, else the 85 %
  /// derated aggregate.
  double effective_power_budget() const noexcept {
    if (room_power_budget_watts > 0.0) return room_power_budget_watts;
    return 0.85 * cpu_power.max_power() * static_cast<double>(total_slots);
  }
};

/// A room-scale scheduling policy.  schedule() is invoked once per room
/// round, after every rack has advanced to the barrier.
class RoomScheduler {
 public:
  virtual ~RoomScheduler() = default;

  /// Registry name (matches the PolicyFactory key it was built from).
  virtual std::string name() const = 0;

  /// Discard dynamic state (cumulative scales, cooldowns).
  virtual void reset() = 0;

  /// One directive per rack, in rack order, written into `out` (resized to
  /// the rack count; previous contents ignored).  `racks` is likewise in
  /// rack order and covers the whole room.  The out-param lets the room
  /// engine reuse one directive buffer across thousands of rounds instead
  /// of allocating a fresh vector per round.
  virtual void schedule(double time_s,
                        const std::vector<RackObservation>& racks,
                        std::vector<RackDirective>& out) = 0;

  /// Attach run telemetry (non-owning sinks; default detached).  The room
  /// engine calls this before reset(); schedulers may emit instant events
  /// and counters (e.g. "power-aware" marks rounds where shed load found
  /// no absorber).  Telemetry is observational only — a scheduler's
  /// directives must not depend on it (bit-identity across attach states).
  void set_telemetry(const obs::Telemetry& telemetry) noexcept {
    obs_ = telemetry;
  }

 protected:
  obs::Telemetry obs_;
};

/// Registers the built-in schedulers ("static", "thermal-headroom",
/// "power-aware", "failsafe"); called once by PolicyFactory's constructor.
/// Defined in room/schedulers.cpp.
void register_builtin_room_schedulers(PolicyFactory& factory);

}  // namespace fsc
