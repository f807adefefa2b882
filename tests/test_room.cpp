// room/ subsystem tests: scheduler registry, cross-rack plenum physics,
// demand-scale migration mechanics, thermal-headroom hysteresis,
// power-aware re-packing + infeasible-budget rejection, lockstep
// determinism (bit-identical across thread counts), equivalence with K
// independent CoupledRackEngine runs when the room coupling is off, and
// the migration benefit on the default contended scenario.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>

#include "coord/coupled_rack_engine.hpp"
#include "core/policy_factory.hpp"
#include "fault/fault_plan.hpp"
#include "obs/metrics.hpp"
#include "room/cross_plenum.hpp"
#include "room/room_engine.hpp"
#include "room/schedulers.hpp"
#include "sim/instrumentation.hpp"
#include "util/lockstep_executor.hpp"
#include "workload/synthetic.hpp"

namespace fsc {
namespace {

CoupledRackParams small_rack(std::uint64_t seed, std::size_t n = 3,
                             double duration_s = 120.0) {
  CoupledRackParams p;
  p.rack.num_servers = n;
  p.rack.base_seed = seed;
  p.rack.sim.duration_s = duration_s;
  p.rack.sim.initial_utilization = 0.1;
  p.rack.workload.base.duration_s = duration_s;
  p.coord.coordination_period_s = 30.0;
  return p;
}

RoomParams small_room(std::size_t racks = 2, std::size_t slots = 3,
                      double duration_s = 120.0) {
  RoomParams p;
  for (std::size_t i = 0; i < racks; ++i) {
    p.racks.push_back(small_rack(1000 + i, slots, duration_s));
  }
  return p;
}

/// Value-returning adapter over the out-param RoomScheduler::schedule API
/// so the scheduler unit tests keep their expression-style assertions.
std::vector<RackDirective> run_schedule(
    RoomScheduler& sched, double t, const std::vector<RackObservation>& racks) {
  std::vector<RackDirective> out;
  sched.schedule(t, racks, out);
  return out;
}

RackObservation obs(std::size_t index, double inlet_c, double demand,
                    double scale = 1.0, std::size_t slots = 8) {
  RackObservation o;
  o.index = index;
  o.slots = slots;
  o.demand = demand;
  o.executed = demand;
  o.mean_inlet_celsius = inlet_c;
  o.max_inlet_celsius = inlet_c;
  o.demand_scale = scale;
  return o;
}

// ------------------------------------------------------------- registry

TEST(RoomSchedulerRegistry, BuiltinsAreRegistered) {
  const auto& factory = PolicyFactory::instance();
  for (const char* name : {"static", "thermal-headroom", "power-aware"}) {
    EXPECT_TRUE(factory.contains_room_scheduler(name)) << name;
    EXPECT_FALSE(factory.describe_room_scheduler(name).empty());
  }
  const auto names = factory.room_scheduler_names();
  EXPECT_GE(names.size(), 3u);
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
}

TEST(RoomSchedulerRegistry, MakeBuildsTheNamedScheduler) {
  RoomSchedulerConfig cfg;
  const auto sched =
      PolicyFactory::instance().make_room_scheduler("thermal-headroom", cfg);
  ASSERT_NE(sched, nullptr);
  EXPECT_EQ(sched->name(), "thermal-headroom");
}

TEST(RoomSchedulerRegistry, UnknownNameThrowsListingKnown) {
  RoomSchedulerConfig cfg;
  try {
    PolicyFactory::instance().make_room_scheduler("no-such-scheduler", cfg);
    FAIL() << "expected std::out_of_range";
  } catch (const std::out_of_range& e) {
    EXPECT_NE(std::string(e.what()).find("thermal-headroom"),
              std::string::npos);
  }
}

TEST(RoomSchedulerRegistry, NamespacesAreIndependent) {
  // "static" is a room scheduler; "static-fan" is the DtmPolicy and
  // "independent" the rack coordinator — none of them cross registries.
  const auto& factory = PolicyFactory::instance();
  EXPECT_TRUE(factory.contains_room_scheduler("static"));
  EXPECT_FALSE(factory.contains("static"));
  EXPECT_FALSE(factory.contains_coordinator("static"));
  EXPECT_FALSE(factory.contains_room_scheduler("independent"));
}

// ------------------------------------------------------ cross-rack plenum

TEST(CrossRackPlenum, ZeroRecirculationDecouplesTheRoom) {
  CrossRackPlenumParams p;
  p.recirculation_fraction = 0.0;
  const CrossRackPlenumModel model(p, 3);
  const auto offsets = model.ambient_offsets(
      {{2000.0, 6000.0}, {2000.0, 6000.0}, {2000.0, 6000.0}});
  for (double o : offsets) EXPECT_DOUBLE_EQ(o, 0.0);
}

TEST(CrossRackPlenum, NeighborsPreheatWithDistanceDecay) {
  CrossRackPlenumParams p;
  p.recirculation_fraction = 0.1;
  p.neighbor_decay = 0.5;
  const CrossRackPlenumModel model(p, 3);
  // Only rack 0 dissipates power.
  const auto offsets =
      model.ambient_offsets({{3200.0, 6000.0}, {0.0, 6000.0}, {0.0, 6000.0}});
  EXPECT_DOUBLE_EQ(offsets[0], 0.0);  // no self-recirculation
  EXPECT_GT(offsets[1], 0.0);
  EXPECT_NEAR(offsets[2], 0.5 * offsets[1], 1e-12);  // one rack further
}

TEST(CrossRackPlenum, RejectsMismatchedRackCount) {
  const CrossRackPlenumModel model(CrossRackPlenumParams{}, 2);
  EXPECT_THROW(model.ambient_offsets({{1000.0, 6000.0}}),
               std::invalid_argument);
}

// --------------------------------------------------- demand-scale hook

TEST(DemandScale, ScalesAndClampsTheWorkloadDemand) {
  SimulationParams sim;
  sim.duration_s = 10.0;
  sim.record_trace = false;
  SimulationEngine engine(sim);
  const SolutionConfig cfg;
  Rng rng(3);
  Server server(ServerParams{}, cfg.initial_fan_rpm, rng);
  const auto policy = make_solution(SolutionKind::kUncoordinated, cfg);
  ConstantWorkload workload(0.6);

  SimulationEngine::Session session(engine, server, *policy, workload);
  session.step_period();
  EXPECT_DOUBLE_EQ(session.last_demand(), 0.6);
  session.set_demand_scale(0.5);
  session.step_period();
  EXPECT_DOUBLE_EQ(session.last_demand(), 0.3);
  session.set_demand_scale(2.0);  // 1.2 demanded, clamped to full load
  session.step_period();
  EXPECT_DOUBLE_EQ(session.last_demand(), 1.0);
  EXPECT_THROW(session.set_demand_scale(-0.1), std::invalid_argument);
}

// ------------------------------------------------------ thermal-headroom

RoomSchedulerConfig headroom_cfg() {
  RoomSchedulerConfig cfg;
  cfg.migration_step = 0.2;
  cfg.hysteresis_celsius = 1.0;
  cfg.cooldown_rounds = 2;
  cfg.migration_cost_fraction = 0.1;
  return cfg;
}

TEST(ThermalHeadroom, ValidatesConfiguration) {
  RoomSchedulerConfig cfg = headroom_cfg();
  cfg.migration_step = 0.0;
  EXPECT_THROW(ThermalHeadroomScheduler{cfg}, std::invalid_argument);
  cfg = headroom_cfg();
  cfg.min_demand_scale = 3.0;  // above max
  EXPECT_THROW(ThermalHeadroomScheduler{cfg}, std::invalid_argument);
}

TEST(ThermalHeadroom, DeadbandHoldsTheAssignment) {
  ThermalHeadroomScheduler sched(headroom_cfg());
  // Spread (0.5 C) inside the 1 C deadband: nothing moves.
  const auto d =
      run_schedule(sched, 0.0, {obs(0, 30.5, 0.8), obs(1, 30.0, 0.2)});
  ASSERT_EQ(d.size(), 2u);
  EXPECT_DOUBLE_EQ(d[0].demand_scale, 1.0);
  EXPECT_DOUBLE_EQ(d[1].demand_scale, 1.0);
  EXPECT_EQ(sched.migrations(), 0u);
}

TEST(ThermalHeadroom, MigratesFromHotToCoolConservingDemand) {
  ThermalHeadroomScheduler sched(headroom_cfg());
  const auto d =
      run_schedule(sched, 0.0, {obs(0, 36.0, 0.8), obs(1, 30.0, 0.2)});
  ASSERT_EQ(d.size(), 2u);
  EXPECT_EQ(sched.migrations(), 1u);
  // Donor sheds exactly the step fraction.
  EXPECT_DOUBLE_EQ(sched.scales()[0], 0.8);
  // Moved units: 0.2 * 0.8 * 8 = 1.28 over the receiver's 0.2 * 8 = 1.6
  // raw units -> receiver scale 1 + 0.8.
  EXPECT_NEAR(sched.scales()[1], 1.8, 1e-12);
  EXPECT_DOUBLE_EQ(d[0].demand_scale, 0.8);
  // The receiver additionally pays the one-round migration cost.
  EXPECT_NEAR(d[1].demand_scale, 1.8 * 1.1, 1e-12);
  // Aggregate demanded utilization is conserved (cost aside):
  // 0.8*0.8*8 + (0.2*1.8/1.0)*8 == 0.8*8 + 0.2*8.
  EXPECT_NEAR(sched.scales()[0] * 0.8 * 8 + sched.scales()[1] * 0.2 * 8,
              0.8 * 8 + 0.2 * 8, 1e-9);
}

TEST(ThermalHeadroom, IdleRackIsSkippedAsReceiver) {
  // Rack 2 is coolest but idle — a demand multiplier cannot inject load
  // onto it, so the migration must fall through to the next-coolest
  // loaded rack instead of silently degenerating to the static policy.
  ThermalHeadroomScheduler sched(headroom_cfg());
  const auto d = run_schedule(sched, 
      0.0, {obs(0, 36.0, 0.8), obs(1, 31.0, 0.2), obs(2, 30.0, 0.0)});
  ASSERT_EQ(d.size(), 3u);
  EXPECT_EQ(sched.migrations(), 1u);
  EXPECT_DOUBLE_EQ(d[0].demand_scale, 0.8);  // donor still sheds
  EXPECT_GT(d[1].demand_scale, 1.0);         // loaded cool rack receives
  EXPECT_DOUBLE_EQ(d[2].demand_scale, 1.0);  // idle rack untouched
}

TEST(ThermalHeadroom, CooldownBlocksImmediateReMigration) {
  ThermalHeadroomScheduler sched(headroom_cfg());
  const std::vector<RackObservation> hot_cold = {obs(0, 36.0, 0.8),
                                                 obs(1, 30.0, 0.2)};
  (void)run_schedule(sched, 0.0, hot_cold);
  ASSERT_EQ(sched.migrations(), 1u);
  // Two cooldown rounds: the spread is still huge but nothing moves, and
  // the receiver's cost surcharge is retired (directive == scale).
  auto d = run_schedule(sched, 30.0, hot_cold);
  EXPECT_EQ(sched.migrations(), 1u);
  EXPECT_NEAR(d[1].demand_scale, 1.8, 1e-12);
  d = run_schedule(sched, 60.0, hot_cold);
  EXPECT_EQ(sched.migrations(), 1u);
  // Cooldown expired: the persistent spread triggers the next migration.
  (void)run_schedule(sched, 90.0, hot_cold);
  EXPECT_EQ(sched.migrations(), 2u);
}

TEST(ThermalHeadroom, ResetDiscardsScalesAndCooldown) {
  ThermalHeadroomScheduler sched(headroom_cfg());
  (void)run_schedule(sched, 0.0, {obs(0, 36.0, 0.8), obs(1, 30.0, 0.2)});
  ASSERT_EQ(sched.migrations(), 1u);
  sched.reset();
  EXPECT_EQ(sched.migrations(), 0u);
  const auto d =
      run_schedule(sched, 0.0, {obs(0, 30.2, 0.8), obs(1, 30.0, 0.2)});
  EXPECT_DOUBLE_EQ(d[0].demand_scale, 1.0);
  EXPECT_DOUBLE_EQ(d[1].demand_scale, 1.0);
}

// ----------------------------------------------------------- power-aware

TEST(PowerAware, RejectsBudgetBelowTheIdleFloor) {
  RoomSchedulerConfig cfg;
  cfg.total_slots = 16;
  cfg.room_power_budget_watts = 100.0;  // << 16 x idle draw
  EXPECT_THROW(PowerAwareScheduler{cfg}, std::invalid_argument);
}

TEST(PowerAware, UntouchedWhenEveryRackFitsItsBudget) {
  RoomSchedulerConfig cfg;
  cfg.num_racks = 2;
  cfg.total_slots = 16;
  cfg.room_power_budget_watts = 4000.0;  // 2000 W per rack, plenty
  PowerAwareScheduler sched(cfg);
  const auto d = run_schedule(sched, 0.0, {obs(0, 30.0, 0.9), obs(1, 30.0, 0.1)});
  ASSERT_EQ(d.size(), 2u);
  EXPECT_DOUBLE_EQ(d[0].demand_scale, 1.0);
  EXPECT_DOUBLE_EQ(d[1].demand_scale, 1.0);
}

TEST(PowerAware, RepacksOverBudgetLoadIntoHeadroom) {
  RoomSchedulerConfig cfg;
  cfg.num_racks = 2;
  cfg.total_slots = 16;
  cfg.room_power_budget_watts = 2000.0;  // 1000 W per rack
  PowerAwareScheduler sched(cfg);
  // Rack 0 wants 8 x 160 W = 1280 W (over); rack 1 idles with headroom.
  const auto d = run_schedule(sched, 0.0, {obs(0, 30.0, 1.0), obs(1, 30.0, 0.1)});
  ASSERT_EQ(d.size(), 2u);
  EXPECT_LT(d[0].demand_scale, 1.0);  // shed down to its budget
  EXPECT_GT(d[1].demand_scale, 1.0);  // absorbs the shed load
}

// ------------------------------------------------------------ room engine

void expect_identical(const CoupledRackResult& a, const CoupledRackResult& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.slots[i].result.fan_energy_joules,
              b.slots[i].result.fan_energy_joules);
    EXPECT_EQ(a.slots[i].result.cpu_energy_joules,
              b.slots[i].result.cpu_energy_joules);
    EXPECT_EQ(a.slots[i].deadline_violations, b.slots[i].deadline_violations);
    EXPECT_EQ(a.slots[i].result.max_junction_celsius,
              b.slots[i].result.max_junction_celsius);
    EXPECT_EQ(a.slots[i].inlet_stats.mean(), b.slots[i].inlet_stats.mean());
  }
  EXPECT_EQ(a.total_energy_joules, b.total_energy_joules);
  EXPECT_EQ(a.deadline_violation_percent, b.deadline_violation_percent);
}

TEST(RoomEngine, ValidatesConstruction) {
  EXPECT_THROW(RoomEngine(small_room(), 0), std::invalid_argument);
  EXPECT_THROW(RoomEngine(RoomParams{}, 1), std::invalid_argument);
  RoomParams p = small_room();
  p.racks[1].coord.coordination_period_s = 60.0;  // misaligned barriers
  EXPECT_THROW(RoomEngine(p, 1), std::invalid_argument);
  p = small_room();
  p.racks[1].rack.sim.duration_s = 240.0;
  EXPECT_THROW(RoomEngine(p, 1), std::invalid_argument);
  // Mixed SKUs: the scheduler prices with one datasheet model, so a rack
  // with a different nominal power model is refused.
  p = small_room();
  p.racks[1].rack.solution.cpu_power = CpuPowerModel(50.0, 100.0);
  EXPECT_THROW(RoomEngine(p, 1), std::invalid_argument);
}

TEST(RoomEngine, UnknownSchedulerThrowsAtRun) {
  RoomParams p = small_room();
  p.scheduler = "no-such-scheduler";
  EXPECT_THROW(RoomEngine(p, 1).run(), std::out_of_range);
}

TEST(RoomEngine, InfeasiblePowerBudgetIsRejectedAtRun) {
  RoomParams p = small_room();
  p.scheduler = "power-aware";
  p.sched.room_power_budget_watts = 50.0;  // below 6 servers' idle draw
  EXPECT_THROW(RoomEngine(p, 1).run(), std::invalid_argument);
}

TEST(RoomEngine, BitIdenticalAcross1And2And8Threads) {
  for (const char* scheduler : {"static", "thermal-headroom", "power-aware"}) {
    RoomParams p = small_room();
    p.scheduler = scheduler;
    p.sched.room_power_budget_watts = 800.0;  // tight: re-packing engages
    p.sched.hysteresis_celsius = 0.25;        // migrations actually fire
    const RoomResult one = RoomEngine(p, 1).run();
    const RoomResult two = RoomEngine(p, 2).run();
    const RoomResult eight = RoomEngine(p, 8).run();
    SCOPED_TRACE(scheduler);
    ASSERT_EQ(one.size(), two.size());
    ASSERT_EQ(one.size(), eight.size());
    for (std::size_t i = 0; i < one.size(); ++i) {
      expect_identical(one.racks[i].result, two.racks[i].result);
      expect_identical(one.racks[i].result, eight.racks[i].result);
      EXPECT_EQ(one.racks[i].final_demand_scale,
                two.racks[i].final_demand_scale);
      EXPECT_EQ(one.racks[i].final_demand_scale,
                eight.racks[i].final_demand_scale);
    }
    EXPECT_EQ(one.migration_events, two.migration_events);
    EXPECT_EQ(one.migration_events, eight.migration_events);
    EXPECT_EQ(one.total_energy_joules, eight.total_energy_joules);
  }
}

/// Steps a room session to its end on a one-thread executor and
/// aggregates, so two sessions driven this way differ only in how they
/// were built.
RoomResult drive_serially(RoomEngine::Session& session) {
  LockstepExecutor one(1);
  while (!session.done()) {
    session.mark_round_start();
    one.run(session.num_shards(),
            [&session](std::size_t i) { session.run_shard(i); });
    session.finish_round();
  }
  return session.finish();
}

/// An 8-rack room of 9-slot racks under thermal-headroom, with fans seized
/// in racks 3 and 6 so only some racks build a fault injector.
RoomParams eight_rack_room() {
  RoomParams p = small_room(8, 9);
  p.scheduler = "thermal-headroom";
  p.sched.hysteresis_celsius = 0.25;
  for (const std::size_t rack : {3u, 6u}) {
    p.racks[rack].faults.events.push_back(
        {FaultKind::kFanSeized, 0, 1, 30.0, -1.0, 0.0});
  }
  return p;
}

TEST(RoomEngine, BuildingOnATeamChangesNothing) {
  // Teams of 2, 3 and 4 split the eight racks evenly and unevenly; 8 and
  // 12 give one rack or none to a participant.  Telemetry is attached so
  // the registry's name order is compared too.
  obs::MetricsRegistry serial_metrics;
  RoomParams p = eight_rack_room();
  p.obs.metrics = &serial_metrics;
  RoomEngine::Session serial(p);
  const RoomResult reference = drive_serially(serial);
  EXPECT_GT(serial_metrics.snapshot().counter("fault.events_armed"), 0u);
  for (const std::size_t threads : {2u, 3u, 4u, 8u, 12u}) {
    SCOPED_TRACE(threads);
    obs::MetricsRegistry metrics;
    p.obs.metrics = &metrics;
    LockstepExecutor team(threads);
    RoomEngine::Session built(p, team);
    const RoomResult result = drive_serially(built);
    ASSERT_EQ(result.size(), reference.size());
    for (std::size_t i = 0; i < result.size(); ++i) {
      expect_identical(reference.racks[i].result, result.racks[i].result);
    }
    EXPECT_EQ(reference.to_json(), result.to_json());
    EXPECT_EQ(serial_metrics.snapshot().counters, metrics.snapshot().counters);
  }
}

TEST(RoomEngine, TeamBuildThrowsTheLowestRacksError) {
  // Rack 5 of 8 cannot be built (no servers) and rack 7 names an unknown
  // policy: every build must report rack 5, the one a serial loop meets
  // first, even when rack 7's participant fails too.
  RoomParams p = eight_rack_room();
  p.racks[5].rack.num_servers = 0;
  p.racks[7].rack.policy = "no-such-policy";
  std::string serial;
  try {
    RoomEngine::Session s(p);
  } catch (const std::invalid_argument& e) {
    serial = e.what();
  }
  ASSERT_NE(serial.find("at least one server"), std::string::npos) << serial;
  for (const std::size_t threads : {1u, 4u}) {
    SCOPED_TRACE(threads);
    LockstepExecutor team(threads);
    std::string built;
    try {
      RoomEngine::Session s(p, team);
    } catch (const std::invalid_argument& e) {
      built = e.what();
    }
    EXPECT_EQ(built, serial);
    // The team survives the failed wave and builds a valid room next.
    const RoomEngine::Session ok(small_room(8, 3), team);
    EXPECT_EQ(ok.num_slots(), 24u);
  }
}

TEST(RoomEngine, UncoupledStaticMatchesIndependentRackRunsExactly) {
  // static scheduler + cross-rack plenum off: the room must reproduce K
  // standalone CoupledRackEngine runs bit for bit (same specs, same RNG
  // streams, same physics — only the execution schedule differs).
  RoomParams p = small_room(3, 3);
  p.cross_plenum_enabled = false;
  const RoomResult room = RoomEngine(p, 4).run();
  ASSERT_EQ(room.size(), 3u);
  for (std::size_t i = 0; i < p.racks.size(); ++i) {
    const CoupledRackResult standalone =
        CoupledRackEngine(p.racks[i], 2).run();
    SCOPED_TRACE(i);
    expect_identical(room.racks[i].result, standalone);
    EXPECT_EQ(room.racks[i].result.coordination_rounds,
              standalone.coordination_rounds);
  }
}

TEST(RoomEngine, CrossPlenumPreheatsNeighborsOfTheHotRack) {
  // Rack 0 heavy, rack 1 idle: with the cross-rack plenum on, rack 1's
  // inlets must sit above its uncoupled baseline.
  RoomParams p = small_room(2, 3, 240.0);
  p.racks[0].rack.workload.base.low = 0.6;
  p.racks[0].rack.workload.base.high = 0.95;
  p.racks[1].rack.workload.base.low = 0.02;
  p.racks[1].rack.workload.base.high = 0.05;
  p.cross_plenum.recirculation_fraction = 0.15;
  const RoomResult on = RoomEngine(p, 2).run();
  RoomParams off = p;
  off.cross_plenum_enabled = false;
  const RoomResult base = RoomEngine(off, 2).run();
  EXPECT_GT(on.racks[1].ambient_offset_stats.max(), 0.0);
  EXPECT_GT(on.racks[1].result.slots[0].inlet_stats.mean(),
            base.racks[1].result.slots[0].inlet_stats.mean());
}

TEST(RoomEngine, ReportsRenderAllRacks) {
  const RoomResult r = RoomEngine(small_room(3), 2).run();
  EXPECT_NE(r.to_table().find("rack"), std::string::npos);
  EXPECT_NE(r.to_json().find("\"per_rack\""), std::string::npos);
  // CSV: header + one row per rack.
  const std::string csv = r.to_csv();
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 4);
}

// ----------------------------------------------- migration benefit

TEST(MigrationBenefit, ThermalHeadroomBeatsStaticOnTheDefaultScenario) {
  // The acceptance scenario of bench_migration_benefit, shortened: moving
  // load from the hot half of the room into the cold half must cut pooled
  // deadline violations.  Deterministic (fixed seed), so an exact
  // comparison is safe.
  RoomParams stat = default_room_scenario(4, 42, 600.0);
  RoomParams headroom = stat;
  headroom.scheduler = "thermal-headroom";

  const RoomResult r_static = RoomEngine(stat, 4).run();
  const RoomResult r_headroom = RoomEngine(headroom, 4).run();
  EXPECT_GT(r_headroom.migration_events, 0u);
  EXPECT_LT(r_headroom.pooled_deadline_violations(),
            r_static.pooled_deadline_violations());
}

}  // namespace
}  // namespace fsc
