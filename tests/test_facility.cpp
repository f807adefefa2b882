// Facility tier: the determinism contract of the facility team (room
// leaders over per-room LockstepExecutors), that the team honours the
// thread count, exact equivalence with standalone rooms under an
// unconstrained plant, the cooling-plant saturation path, and the
// ScenarioSpec facility section.
//
// The heart of the suite is EXPECT_EQ bit-identity: a facility run's
// every observable — per-slot energies, violations, junction peaks,
// inlet statistics, per-rack scale stats, per-room plant exposure — is
// the same double-for-double across thread counts {1, 2, 8}, on racks
// wide enough to split into several 8-lane chunks, and with fewer
// threads than rooms (one leader stepping two rooms).  Rooms interact
// only at facility barriers, and every team shape drives the identical
// per-room operation sequence between them, so there is nothing
// schedule-dependent to observe.
#include <gtest/gtest.h>

#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "core/policy_factory.hpp"
#include "facility/cooling_plant.hpp"
#include "facility/facility_engine.hpp"
#include "room/room_engine.hpp"
#include "room/scheduler.hpp"
#include "sim/scenario.hpp"
#include "util/rng.hpp"

namespace fsc {
namespace {

// ------------------------------------------------------- CoolingPlant

TEST(CoolingPlant, ValidatesAndAllocates) {
  CoolingPlantParams bad;
  bad.min_demand_scale = 0.0;
  EXPECT_THROW(CoolingPlant{bad}, std::invalid_argument);
  bad = CoolingPlantParams{};
  bad.supply_period_s = 0.0;
  EXPECT_THROW(CoolingPlant{bad}, std::invalid_argument);

  CoolingPlantParams p;
  p.capacity_watts = 1000.0;
  const CoolingPlant plant(p);
  EXPECT_TRUE(plant.constrained());
  std::vector<RoomCoolingAllocation> out;
  // Under capacity: exact identity.
  plant.allocate(0.0, {300.0, 400.0}, out);
  EXPECT_EQ(out[0].demand_scale, 1.0);
  EXPECT_EQ(out[0].supply_offset_c, 0.0);
  EXPECT_EQ(out[1].granted_watts, 400.0);
  // Over capacity: grants sum to capacity, scales drop, offsets rise.
  plant.allocate(0.0, {800.0, 800.0}, out);
  EXPECT_DOUBLE_EQ(out[0].granted_watts + out[1].granted_watts, 1000.0);
  EXPECT_LT(out[0].demand_scale, 1.0);
  EXPECT_GT(out[0].supply_offset_c, 0.0);
}

TEST(CoolingPlant, WeatherOffsetIsExactZeroAtZeroAmplitude) {
  const CoolingPlant flat(CoolingPlantParams{});
  EXPECT_EQ(flat.weather_offset(12345.6), 0.0);
  CoolingPlantParams p;
  p.supply_amplitude_c = 6.0;
  p.supply_period_s = 86400.0;
  const CoolingPlant diurnal(p);
  EXPECT_EQ(diurnal.weather_offset(0.0), 0.0);          // trough at phase 0
  EXPECT_DOUBLE_EQ(diurnal.weather_offset(43200.0), 6.0);  // peak at half
}

// ---------------------------------------------------- FacilityEngine

/// `rooms` rooms x 2 racks x 19 slots at a test-sized horizon, under a
/// plant constrained enough to throttle and a diurnal supply swing — the
/// identity sweep must hold on the *interesting* trajectories, not just
/// the unconstrained identity.  19 slots are two full 8-lane chunks and a
/// ragged tail, so a room's own team has several shards per rack to split.
FacilityParams small_facility(std::size_t rooms = 2) {
  constexpr std::size_t kSlots = 19;
  FacilityParams f = default_facility_scenario(rooms, 2, 42, 300.0);
  for (RoomParams& room : f.rooms) {
    for (CoupledRackParams& rack : room.racks) {
      rack.rack.num_servers = kSlots;
    }
  }
  // ~37.5 W per server: mid-load servers want more.
  f.plant.capacity_watts = 37.5 * static_cast<double>(rooms * 2 * kSlots);
  f.plant.supply_amplitude_c = 2.0;
  f.plant.supply_period_s = 600.0;
  return f;
}

void expect_identical(const CoupledRackResult& a, const CoupledRackResult& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.slots[i].result.fan_energy_joules,
              b.slots[i].result.fan_energy_joules);
    EXPECT_EQ(a.slots[i].result.cpu_energy_joules,
              b.slots[i].result.cpu_energy_joules);
    EXPECT_EQ(a.slots[i].deadline_violations, b.slots[i].deadline_violations);
    EXPECT_EQ(a.slots[i].deadline_periods, b.slots[i].deadline_periods);
    EXPECT_EQ(a.slots[i].result.max_junction_celsius,
              b.slots[i].result.max_junction_celsius);
    EXPECT_EQ(a.slots[i].inlet_stats.mean(), b.slots[i].inlet_stats.mean());
    EXPECT_EQ(a.slots[i].fan_override_rounds, b.slots[i].fan_override_rounds);
  }
  EXPECT_EQ(a.total_energy_joules, b.total_energy_joules);
  EXPECT_EQ(a.deadline_violation_percent, b.deadline_violation_percent);
}

void expect_identical(const RoomResult& a, const RoomResult& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    expect_identical(a.racks[i].result, b.racks[i].result);
    EXPECT_EQ(a.racks[i].final_demand_scale, b.racks[i].final_demand_scale);
    EXPECT_EQ(a.racks[i].demand_scale_stats.mean(),
              b.racks[i].demand_scale_stats.mean());
    EXPECT_EQ(a.racks[i].ambient_offset_stats.mean(),
              b.racks[i].ambient_offset_stats.mean());
  }
  EXPECT_EQ(a.migration_events, b.migration_events);
  EXPECT_EQ(a.room_rounds, b.room_rounds);
  EXPECT_EQ(a.total_energy_joules, b.total_energy_joules);
  EXPECT_EQ(a.deadline_violation_percent, b.deadline_violation_percent);
}

void expect_identical(const FacilityResult& a, const FacilityResult& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t r = 0; r < a.size(); ++r) {
    SCOPED_TRACE("room " + std::to_string(r));
    expect_identical(a.rooms[r].result, b.rooms[r].result);
    EXPECT_EQ(a.rooms[r].facility_scale_stats.mean(),
              b.rooms[r].facility_scale_stats.mean());
    EXPECT_EQ(a.rooms[r].facility_scale_stats.min(),
              b.rooms[r].facility_scale_stats.min());
    EXPECT_EQ(a.rooms[r].supply_offset_stats.mean(),
              b.rooms[r].supply_offset_stats.mean());
    EXPECT_EQ(a.rooms[r].supply_offset_stats.max(),
              b.rooms[r].supply_offset_stats.max());
  }
  EXPECT_EQ(a.fan_energy_joules, b.fan_energy_joules);
  EXPECT_EQ(a.cpu_energy_joules, b.cpu_energy_joules);
  EXPECT_EQ(a.total_energy_joules, b.total_energy_joules);
  EXPECT_EQ(a.deadline_violation_percent, b.deadline_violation_percent);
  EXPECT_EQ(a.facility_rounds, b.facility_rounds);
  EXPECT_EQ(a.plant_saturated_rounds, b.plant_saturated_rounds);
}

TEST(FacilityEngine, ValidatesConstruction) {
  EXPECT_THROW(FacilityEngine(FacilityParams{}, 1), std::invalid_argument);
  EXPECT_THROW(FacilityEngine(small_facility(), 0),
               std::invalid_argument);
  // Rooms must share the lockstep timing.
  FacilityParams p = small_facility();
  p.rooms[1].racks[0].coord.coordination_period_s = 60.0;
  EXPECT_THROW(FacilityEngine(std::move(p), 1), std::invalid_argument);
  // The facility period must be a whole multiple of the room round.
  p = small_facility();
  p.facility_period_s = 45.0;  // rounds are 30 s
  EXPECT_THROW(FacilityEngine(std::move(p), 1), std::invalid_argument);
  p = small_facility();
  p.facility_period_s = 90.0;
  const FacilityEngine ok(std::move(p), 1);
  EXPECT_EQ(ok.rounds_per_barrier(), 3u);
}

TEST(FacilityEngine, BitIdenticalAcrossThreads) {
  // Two rooms at 2 and 8 threads: one leader per room, then four threads
  // per room.  Three rooms at 2 threads: one leader builds and steps two
  // rooms one after the other; at 7 and 8, uneven 2/2/3 and 2/3/3 room
  // teams.
  for (std::size_t rooms : {std::size_t{2}, std::size_t{3}}) {
    const FacilityResult baseline = FacilityEngine(small_facility(rooms), 1).run();
    EXPECT_GT(baseline.facility_rounds, 0u);
    for (std::size_t threads :
         {std::size_t{2}, std::size_t{7}, std::size_t{8}}) {
      SCOPED_TRACE("rooms=" + std::to_string(rooms) +
                   " threads=" + std::to_string(threads));
      expect_identical(baseline,
                       FacilityEngine(small_facility(rooms), threads).run());
    }
  }
}

/// The "static" scheduler that also records which threads called it: a
/// room's scheduler runs on the thread that steps that room.
class ThreadRecordingScheduler final : public RoomScheduler {
 public:
  static std::set<std::thread::id> take_ids() {
    const std::lock_guard<std::mutex> lock(mutex_);
    return std::exchange(ids_, {});
  }
  std::string name() const override { return "thread-recorder"; }
  void reset() override {}
  void schedule(double, const std::vector<RackObservation>& racks,
                std::vector<RackDirective>& out) override {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      ids_.insert(std::this_thread::get_id());
    }
    out.assign(racks.size(), RackDirective{});
  }

 private:
  static inline std::mutex mutex_;
  static inline std::set<std::thread::id> ids_;
};

TEST(FacilityEngine, HonoursTheThreadCount) {
  PolicyFactory& factory = PolicyFactory::instance();
  if (!factory.contains_room_scheduler("thread-recorder")) {
    factory.register_room_scheduler(
        "thread-recorder", "static, recording its calling threads",
        [](const RoomSchedulerConfig&) {
          return std::make_unique<ThreadRecordingScheduler>();
        });
  }
  FacilityParams f = default_facility_scenario(3, 2, 42, 120.0);
  for (RoomParams& room : f.rooms) {
    room.scheduler = "thread-recorder";
    for (CoupledRackParams& rack : room.racks) rack.rack.num_servers = 4;
  }
  (void)ThreadRecordingScheduler::take_ids();

  // One thread: every room is stepped on the caller.
  FacilityEngine(f, 1).run();
  const std::set<std::thread::id> one = ThreadRecordingScheduler::take_ids();
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(*one.begin(), std::this_thread::get_id());

  // Two threads for three rooms: two leaders at most.
  FacilityEngine(f, 2).run();
  const std::set<std::thread::id> two = ThreadRecordingScheduler::take_ids();
  EXPECT_GE(two.size(), 1u);
  EXPECT_LE(two.size(), 2u);
}

TEST(FacilityEngine, UnconstrainedPlantEqualsStandaloneRooms) {
  // The facility recipe: rooms of the spec, re-seeded derive_seed(seed,
  // 1000 + room).  With an unconstrained plant and a flat supply profile
  // the facility must be EXACTLY K standalone room runs.
  ScenarioSpec spec;
  spec.rooms = 2;
  spec.racks = 2;
  spec.slots = 4;
  spec.seed = 77;
  spec.duration_s = 300.0;
  const FacilityParams params = spec.build_facility();
  ASSERT_FALSE(CoolingPlant(params.plant).constrained());
  const FacilityResult fac = FacilityEngine(params, 2).run();

  for (std::size_t r = 0; r < 2; ++r) {
    SCOPED_TRACE("room " + std::to_string(r));
    ScenarioSpec room_spec = spec;
    room_spec.rooms = 0;
    room_spec.seed = derive_seed(spec.seed, 1000 + r);
    const RoomResult standalone =
        RoomEngine(room_spec.build_room(), 2).run();
    expect_identical(standalone, fac.rooms[r].result);
    // And the plant exposure is the identity.
    EXPECT_EQ(fac.rooms[r].facility_scale_stats.min(), 1.0);
    EXPECT_EQ(fac.rooms[r].supply_offset_stats.max(), 0.0);
  }
  EXPECT_EQ(fac.plant_saturated_rounds, 0u);
}

TEST(FacilityEngine, ConstrainedPlantSaturatesAndThrottles) {
  const FacilityResult run =
      FacilityEngine(small_facility(), 2).run();
  EXPECT_GT(run.plant_saturated_rounds, 0u);
  double min_scale = 1.0;
  double max_offset = 0.0;
  for (const FacilityRoomSummary& room : run.rooms) {
    min_scale = std::min(min_scale, room.facility_scale_stats.min());
    max_offset = std::max(max_offset, room.supply_offset_stats.max());
  }
  EXPECT_LT(min_scale, 1.0);  // somebody got throttled
  EXPECT_GT(max_offset, 0.0);  // unmet heat + diurnal swing reached supply
}

TEST(FacilityEngine, CoarseTimingRunsTheBenchConfig) {
  // The facility-coarse timing bench_facility_scaling uses, at test size:
  // 5 s plant step, 1 min control period, 10 min rounds, hourly barriers.
  FacilityParams f = default_facility_scenario(1, 2, 7, 7200.0);
  for (RoomParams& room : f.rooms) {
    for (CoupledRackParams& rack : room.racks) {
      rack.rack.num_servers = 4;
      rack.rack.sim.physics_dt_s = 5.0;
      rack.rack.sim.cpu_period_s = 60.0;
      rack.coord.coordination_period_s = 600.0;
    }
  }
  f.facility_period_s = 3600.0;
  const FacilityEngine engine(std::move(f), 1);
  EXPECT_EQ(engine.rounds_per_barrier(), 6u);
  const FacilityResult run = engine.run();
  // N facility periods yield N-1 coordination rounds: the last barrier
  // coincides with end-of-run, so there is nothing left to allocate.
  EXPECT_EQ(run.facility_rounds, 1u);
  EXPECT_GT(run.total_energy_joules, 0.0);
}

TEST(FacilityEngine, ReportsSerialize) {
  const FacilityResult run = FacilityEngine(small_facility(), 1).run();
  EXPECT_NE(run.to_table().find("plant"), std::string::npos);
  EXPECT_NE(run.to_json().find("\"rooms\""), std::string::npos);
  EXPECT_NE(run.to_json("{\"x\": 1}").find("\"manifest\""), std::string::npos);
  EXPECT_NE(run.to_csv().find("room"), std::string::npos);
}

// ------------------------------------------------ ScenarioSpec facility

TEST(ScenarioFacility, JsonRoundTripsFacilityKeys) {
  ScenarioSpec spec;
  spec.rooms = 3;
  spec.racks = 2;
  spec.slots = 4;
  spec.plant_capacity_watts = 1234.5;
  spec.supply_amplitude_c = 3.25;
  spec.supply_period_s = 43200.0;
  spec.facility_period_s = 90.0;
  EXPECT_EQ(ScenarioSpec::from_json_text(spec.to_json()), spec);
}

TEST(ScenarioFacility, ValidationRejects) {
  ScenarioSpec spec;
  spec.rooms = 0;
  EXPECT_THROW(spec.build_facility(), std::invalid_argument);
  spec.rooms = 2;
  spec.supply_amplitude_c = -1.0;
  EXPECT_THROW(spec.build_facility(), std::invalid_argument);
  spec = ScenarioSpec{};
  spec.supply_period_s = 0.0;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  EXPECT_THROW(ScenarioSpec::from_json_text("{\"plant_watts\": 5}"),
               std::invalid_argument);  // typo'd knob must not run defaults
  // A non-multiple facility period passes the spec (the engine owns the
  // timing agreement) but is refused at engine construction.
  spec = ScenarioSpec{};
  spec.rooms = 2;
  spec.slots = 2;
  spec.facility_period_s = 45.0;
  EXPECT_THROW(FacilityEngine(spec.build_facility(), 1),
               std::invalid_argument);
}

TEST(ScenarioFacility, BuildFacilityWiresTheKnobs) {
  ScenarioSpec spec;
  spec.rooms = 2;
  spec.racks = 3;
  spec.slots = 4;
  spec.plant_capacity_watts = 999.0;
  spec.supply_amplitude_c = 1.5;
  spec.facility_period_s = 60.0;
  const FacilityParams f = spec.build_facility();
  ASSERT_EQ(f.rooms.size(), 2u);
  EXPECT_EQ(f.rooms[0].racks.size(), 3u);
  EXPECT_EQ(f.rooms[0].racks[0].rack.num_servers, 4u);
  EXPECT_EQ(f.plant.capacity_watts, 999.0);
  EXPECT_EQ(f.plant.supply_amplitude_c, 1.5);
  EXPECT_EQ(f.facility_period_s, 60.0);
  // Rooms are re-seeded per room, so their racks' seeds differ.
  EXPECT_NE(f.rooms[0].racks[0].rack.base_seed,
            f.rooms[1].racks[0].rack.base_seed);
}

}  // namespace
}  // namespace fsc
