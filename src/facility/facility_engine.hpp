// Facility tier: K rooms stepped against one shared cooling plant — the
// fourth and widest rung of the server → rack → room → facility ladder,
// sized for O(10k–100k) simulated servers in one run.
//
// Rooms only interact through the plant, and only at *facility
// coordination barriers* (every `facility_period_s` of simulated time, a
// whole number of room coordination rounds).  Between barriers each room
// is a fully independent RoomEngine::Session.  The team is built from
// LockstepExecutors: one executor of room leaders (min(threads, rooms)
// wide) runs one wave that builds the rooms and then one wave per
// facility barrier, and each room owns a private executor that its
// leader drives for the room's rack-building and shard waves.  With more
// threads than rooms the surplus is split across the rooms' executors;
// otherwise a leader steps its rooms one after another.  The team is
// exactly `threads` wide.  Rooms step their rounds with no cross-room
// synchronization and meet only at the facility barrier.  Each room
// executes the same operation sequence as a standalone room, so results
// are bit-identical across thread counts (test_facility EXPECT_EQs all of
// it).
//
// At each barrier the facility observes per-room heat load (aggregate
// CPU watts), asks the CoolingPlant for allocations, and applies them
// through the Session's facility hooks: demand throttle (multiplicative
// with the room scheduler's own directives) and supply-air offset
// (weather/economizer profile + unmet-heat rise).  An unconstrained
// plant with a zero-amplitude profile is provably the identity — the
// facility run is then EXPECT_EQ-identical to K standalone room runs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "facility/cooling_plant.hpp"
#include "room/room_engine.hpp"

namespace fsc {

struct FacilityParams {
  /// One entry per room.  Rooms may differ in size and policy but must
  /// share the lockstep timing (CPU control period, coordination period,
  /// duration), like racks within a room.
  std::vector<RoomParams> rooms;
  CoolingPlantParams plant;
  /// Simulated seconds between facility coordination barriers; must be a
  /// whole multiple of the rooms' coordination period.  <= 0 means every
  /// room round (one room coordination period).
  double facility_period_s = -1.0;
  /// Telemetry sinks, fanned down to every room (each stamped with a
  /// globally unique rack-label base); snapshot/progress are driven at
  /// room scope per room. Default fully detached.
  obs::Telemetry obs;
};

/// One room's outcome plus its cooling-plant exposure.
struct FacilityRoomSummary {
  std::size_t index = 0;
  RoomResult result;
  RunningStats facility_scale_stats;  ///< plant throttle across barriers
  RunningStats supply_offset_stats;   ///< supply-air offset applied
};

/// Facility-level aggregate of a run.
struct FacilityResult {
  std::vector<FacilityRoomSummary> rooms;  ///< room order

  double fan_energy_joules = 0.0;
  double cpu_energy_joules = 0.0;
  double total_energy_joules = 0.0;
  double deadline_violation_percent = 0.0;  ///< pooled over every slot period
  double duration_s = 0.0;
  std::size_t facility_rounds = 0;          ///< coordination barriers taken
  /// Barriers at which the plant could not grant every room's demand.
  std::size_t plant_saturated_rounds = 0;
  double plant_capacity_watts = -1.0;

  std::size_t size() const noexcept { return rooms.size(); }
  std::size_t total_racks() const noexcept;
  std::size_t total_slots() const noexcept;
  std::size_t pooled_deadline_violations() const noexcept;

  /// Fixed-width per-room + aggregate report.
  std::string to_table() const;
  /// Machine-readable report; the overload embeds a "manifest" object as
  /// the first key when non-empty (same convention as RoomResult).
  std::string to_json() const { return to_json(std::string()); }
  std::string to_json(const std::string& manifest_json) const;
  /// Per-room CSV (one row per room, aggregate columns).
  std::string to_csv() const;
};

/// Steps a facility of rooms against the shared cooling plant.
class FacilityEngine {
 public:
  /// Validates thread count, that at least one room is configured, that
  /// all rooms share the lockstep timing, that the facility period is a
  /// whole multiple of the coordination period, and the plant params.
  FacilityEngine(FacilityParams params, std::size_t threads);

  const FacilityParams& params() const noexcept { return params_; }
  std::size_t threads() const noexcept { return threads_; }
  /// Room coordination rounds per facility barrier.
  std::size_t rounds_per_barrier() const noexcept { return rounds_per_barrier_; }

  /// Simulate the whole facility and aggregate.  Deterministic for a
  /// fixed FacilityParams regardless of `threads`.
  FacilityResult run() const;

 private:
  FacilityParams params_;
  std::size_t threads_;
  std::size_t rounds_per_barrier_ = 1;
};

/// The canonical multi-room scenario shared by bench_facility_scaling,
/// test_facility, and the fsc CLI defaults: `num_rooms` copies
/// of the contended default room scenario (each re-seeded), under an
/// unconstrained plant with a flat supply profile — the exact-identity
/// baseline that CLI/bench flags then constrain.
FacilityParams default_facility_scenario(std::size_t num_rooms = 2,
                                         std::size_t racks_per_room = 4,
                                         std::uint64_t seed = 42,
                                         double duration_s = 900.0);

}  // namespace fsc
