// fault/ subsystem tests: the empty-plan bit-identity contract (a run with
// no faults armed is EXPECT_EQ-identical to a build without the fault
// layer, across thread counts on a rack several chunks wide), determinism
// of faulted runs under the same sweep, every batched lane — faulted or not —
// against its slot simulated alone with the same faults, FaultPlan JSON
// rejection of malformed events,
// component fault modes (sensor stuck / dropped / noisy, fan degraded /
// seized), blackout freezing at the barrier, the failsafe coordinator and
// room scheduler responses, the seeded scenario generator round-trip, and
// the predictor-backed evacuation pricing (the first cross-layer consumer
// of workload/predictor.hpp).
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

#include "actuator/fan_actuator.hpp"
#include "coord/coupled_rack_engine.hpp"
#include "coord/policies.hpp"
#include "core/policy_factory.hpp"
#include "fault/fault_generator.hpp"
#include "fault/fault_injector.hpp"
#include "fault/fault_plan.hpp"
#include "room/schedulers.hpp"
#include "sensor/sensor_chain.hpp"
#include "sim/server.hpp"
#include "sim/simulation.hpp"
#include "util/rng.hpp"
#include "workload/predictor.hpp"

namespace fsc {
namespace {

CoupledRackParams small_params(std::size_t n = 6, double duration_s = 150.0) {
  CoupledRackParams p;
  p.rack.num_servers = n;
  p.rack.base_seed = 1234;
  p.rack.sim.duration_s = duration_s;
  p.rack.sim.initial_utilization = 0.1;
  p.rack.workload.base.duration_s = duration_s;
  p.coord.coordination_period_s = 30.0;
  p.coord.fan_zone_size = 4;
  return p;
}

/// Slots of the thread-sweep racks: two full 8-lane chunks and a ragged
/// tail, so 2 and 8 threads split the rack across participants.
constexpr std::size_t kSweepSlots = 19;

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
    EXPECT_EQ(a.slots[i].mean_cap_limit, b.slots[i].mean_cap_limit);
  }
  EXPECT_EQ(a.total_energy_joules, b.total_energy_joules);
  EXPECT_EQ(a.deadline_violation_percent, b.deadline_violation_percent);
  EXPECT_EQ(a.thermal_violation_percent, b.thermal_violation_percent);
}

FaultPlan mixed_plan() {
  FaultPlan plan;
  plan.events.push_back(
      {FaultKind::kSensorStuck, 0, 0, 30.0, -1.0, 45.0});
  plan.events.push_back(
      {FaultKind::kFanSeized, 0, 2, 60.0, 60.0, 0.0});
  plan.events.push_back(
      {FaultKind::kSlotBlackout, 0, 4, 30.0, 60.0, 0.0});
  return plan;
}

// ------------------------------------------------------ plan validation

TEST(FaultPlan, ValidateRejectsOutOfRangeVictims) {
  FaultPlan plan;
  plan.events.push_back({FaultKind::kSensorStuck, 0, 9, 0.0, -1.0, 45.0});
  EXPECT_THROW(plan.validate(1, 8), std::invalid_argument);
  plan.events[0].slot = 0;
  plan.events[0].rack = 2;
  EXPECT_THROW(plan.validate(2, 8), std::invalid_argument);
  plan.events[0].rack = 1;
  EXPECT_NO_THROW(plan.validate(2, 8));
}

/// validate() must throw std::invalid_argument whose what() is exactly
/// `expected`.
void expect_validate_message(const FaultPlan& plan, const std::string& expected) {
  try {
    plan.validate(2, 8);
    ADD_FAILURE() << "accepted, expected: " << expected;
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()), expected);
  }
}

TEST(FaultPlan, ValidateMessagesNameTheEventAndTheRule) {
  FaultPlan plan;
  plan.events.push_back({FaultKind::kSensorStuck, 0, 0, 0.0, -1.0, 45.0});
  plan.events.push_back({FaultKind::kSensorNoisy, 5, 0, 0.0, -1.0, 1.0});
  expect_validate_message(
      plan, "FaultPlan: event 1 (sensor-noisy): rack index out of range");
  plan.events[1].rack = 1;
  plan.events[1].value = 0.0;
  expect_validate_message(
      plan, "FaultPlan: event 1 (sensor-noisy): noise stddev must be > 0");
  plan.events[1] = {FaultKind::kFanDegraded, 1, 3, 0.0, -1.0, -100.0};
  expect_validate_message(
      plan, "FaultPlan: event 1 (fan-degraded): degraded max rpm must be > 0");
}

TEST(FaultPlan, JsonRoundTrip) {
  const FaultPlan plan = mixed_plan();
  const FaultPlan back = FaultPlan::from_json_text(plan.to_json(2));
  EXPECT_EQ(plan, back);
  EXPECT_EQ(FaultPlan::from_json_text(FaultPlan{}.to_json()), FaultPlan{});
}

/// from_json_text must throw std::invalid_argument whose message contains
/// `needle` (the event index and the offending key).
void expect_rejected(const std::string& events, const std::string& needle) {
  try {
    (void)FaultPlan::from_json_text(events);
    ADD_FAILURE() << "accepted " << events;
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << e.what();
  }
}

TEST(FaultPlan, JsonRejectsBadEventsNamingIndexAndKey) {
  // A good event first, so the message must name event 1, not event 0.
  auto second = [](const std::string& bad) {
    return R"([{"kind": "sensor-stuck", "slot": 1, "value": 45}, )" + bad +
           "]";
  };
  // Misspelled keys: once dropped silently, putting the fault on slot 0
  // ("slto") or arming it at t = 0 ("start").
  expect_rejected(second(R"({"kind": "fan-seized", "slto": 9})"),
                  "event 1 key 'slto'");
  expect_rejected(second(R"({"kind": "fan-seized", "start": 600})"),
                  "event 1 key 'start'");
  // Indices are checked before the cast: 2.7 once became slot 2, and 1e300
  // slot 0 through an undefined float-to-integer conversion.
  expect_rejected(second(R"({"kind": "fan-seized", "slot": 2.7})"),
                  "event 1 key 'slot'");
  expect_rejected(second(R"({"kind": "fan-seized", "slot": 1e300})"),
                  "event 1 key 'slot'");
  expect_rejected(second(R"({"kind": "fan-seized", "slot": -1})"),
                  "event 1 key 'slot'");
  expect_rejected(second(R"({"kind": "fan-seized", "rack": 0.5})"),
                  "event 1 key 'rack'");
  expect_rejected(second(R"({"kind": "fan-seized", "rack": "0"})"),
                  "event 1 key 'rack'");
  // Times and values must be finite (strtod reads 1e999 as infinity).
  expect_rejected(second(R"({"kind": "fan-seized", "start_s": 1e999})"),
                  "event 1 key 'start_s'");
  expect_rejected(second(R"({"kind": "fan-seized", "duration_s": -1e999})"),
                  "event 1 key 'duration_s'");
  expect_rejected(second(R"({"kind": "sensor-noisy", "value": 1e999})"),
                  "event 1 key 'value'");
  expect_rejected(second(R"({"kind": "fan-melted"})"), "event 1 key 'kind'");
  expect_rejected(second(R"({"slot": 1})"), "event 1: missing key 'kind'");
  // Large integral indices still parse exactly.
  EXPECT_EQ(FaultPlan::from_json_text(
                R"([{"kind": "fan-seized", "slot": 4503599627370496}])")
                .events[0]
                .slot,
            std::size_t{4503599627370496});
}

TEST(FaultPlan, ForRackRehomesToRackZero) {
  FaultPlan plan;
  plan.events.push_back({FaultKind::kSensorStuck, 0, 1, 0.0, -1.0, 45.0});
  plan.events.push_back({FaultKind::kFanSeized, 2, 3, 10.0, -1.0, 0.0});
  const FaultPlan r2 = plan.for_rack(2);
  ASSERT_EQ(r2.size(), 1u);
  EXPECT_EQ(r2.events[0].rack, 0u);
  EXPECT_EQ(r2.events[0].slot, 3u);
  EXPECT_TRUE(plan.for_rack(1).empty());
}

// ------------------------------------------------- component fault modes

TEST(SensorFault, StuckFreezesTheReading) {
  Rng rng(7);
  SensorChain chain = SensorChain::table1_defaults(rng);
  chain.reset(60.0);
  chain.set_fault(SensorFaultMode::kStuck, 42.0);
  // After the pipeline lag drains, every delivered sample is the stuck-at
  // value regardless of the true temperature.
  for (int i = 0; i < 30; ++i) chain.observe(75.0, 1.0);
  EXPECT_DOUBLE_EQ(chain.read(), 42.0);
  chain.clear_fault();
  for (int i = 0; i < 30; ++i) chain.observe(75.0, 1.0);
  EXPECT_NEAR(chain.read(), 75.0, 1.0);  // within one ADC step
}

TEST(SensorFault, DroppedGoesStale) {
  Rng rng(7);
  SensorChain chain = SensorChain::table1_defaults(rng);
  chain.reset(60.0);
  chain.set_fault(SensorFaultMode::kDropped, 0.0);
  for (int i = 0; i < 30; ++i) chain.observe(75.0, 1.0);
  EXPECT_NEAR(chain.read(), 60.0, 1.0);  // still the pre-fault reading
}

TEST(FanFault, SeizedWindmillsBelowTheFloor) {
  FanActuator fan(FanParams{}, 4000.0);
  fan.set_fault(FanFaultMode::kSeized, 0.0);
  fan.command(8000.0);
  for (int i = 0; i < 20; ++i) fan.step(1.0);
  EXPECT_DOUBLE_EQ(fan.speed(), FanActuator::kDefaultSeizedRpm);
  EXPECT_LT(fan.speed(), fan.params().min_rpm);
  fan.clear_fault();
  for (int i = 0; i < 20; ++i) fan.step(1.0);
  EXPECT_NEAR(fan.speed(), 8000.0, 1e-9);
}

TEST(FanFault, DegradedCapsTheCeiling) {
  FanActuator fan(FanParams{}, 2000.0);
  fan.set_fault(FanFaultMode::kDegradedMax, 3000.0);
  fan.command(8000.0);
  for (int i = 0; i < 20; ++i) fan.step(1.0);
  EXPECT_DOUBLE_EQ(fan.speed(), 3000.0);
}

// --------------------------------------------------- empty-plan identity

TEST(FaultInjection, EmptyPlanIsBitIdenticalAcrossThreads) {
  // The fault layer's core contract: an empty FaultPlan constructs no
  // injector at all, so the run is bit-identical to a pre-fault build —
  // enforced here against the 1-thread baseline across the thread sweep.
  CoupledRackParams p = small_params(kSweepSlots);
  p.coordinator = "shared-fan-zone";
  ASSERT_TRUE(p.faults.empty());
  const CoupledRackResult baseline = CoupledRackEngine(p, 1).run();
  for (std::size_t threads : {2u, 8u}) {
    SCOPED_TRACE(testing::Message() << "threads=" << threads);
    expect_identical(baseline, CoupledRackEngine(p, threads).run());
  }
}

TEST(FaultInjection, NeverFiringPlanMatchesEmptyPlan) {
  // An injector that never arms anything must not perturb the run either:
  // stamp() only rewrites the detectability flags to their defaults.
  CoupledRackParams p = small_params();
  p.coordinator = "shared-fan-zone";
  const CoupledRackResult empty = CoupledRackEngine(p, 2).run();
  CoupledRackParams q = p;
  q.faults.events.push_back(
      {FaultKind::kFanSeized, 0, 0, 1e9, -1.0, 0.0});  // beyond the horizon
  expect_identical(empty, CoupledRackEngine(q, 2).run());
}

// ------------------------------------------------- faulted determinism

TEST(FaultInjection, FaultedRunIsDeterministicAcrossThreads) {
  CoupledRackParams p = small_params(kSweepSlots);
  p.coordinator = "failsafe";
  p.faults = mixed_plan();
  const CoupledRackResult baseline = CoupledRackEngine(p, 1).run();
  for (std::size_t threads : {2u, 8u}) {
    SCOPED_TRACE(testing::Message() << "threads=" << threads);
    expect_identical(baseline, CoupledRackEngine(p, threads).run());
  }
}

TEST(FaultInjection, FaultsChangeTheOutcome) {
  CoupledRackParams p = small_params();
  p.coordinator = "shared-fan-zone";
  const CoupledRackResult healthy = CoupledRackEngine(p, 2).run();
  CoupledRackParams q = p;
  q.faults.events.push_back({FaultKind::kFanSeized, 0, 1, 30.0, -1.0, 0.0});
  const CoupledRackResult seized = CoupledRackEngine(q, 2).run();
  // A seized blower is a real physical change: the victim runs hotter.
  EXPECT_GT(seized.slots[1].result.max_junction_celsius,
            healthy.slots[1].result.max_junction_celsius);
}

/// Every plant fault kind on slots 0-5, armed and (some) cleared at the
/// 30 s barriers: a stuck, a noisy and a dropped sensor, a
/// degraded ceiling below min_rpm that clears and one above it, a seized
/// rotor at the default windmill speed that clears and one above
/// min_rpm, and a blackout, which leaves the plant alone.
FaultPlan every_kind_plan() {
  FaultPlan plan;
  plan.events = {
      {FaultKind::kSensorStuck, 0, 0, 30.0, -1.0, 45.0},
      {FaultKind::kFanDegraded, 0, 0, 60.0, -1.0, 2200.0},
      {FaultKind::kSensorNoisy, 0, 1, 30.0, 60.0, 1.5},
      {FaultKind::kFanSeized, 0, 2, 60.0, 60.0, 0.0},
      {FaultKind::kFanDegraded, 0, 3, 30.0, 90.0, 1200.0},
      {FaultKind::kSensorDropped, 0, 4, 60.0, -1.0, 0.0},
      {FaultKind::kSlotBlackout, 0, 4, 30.0, 60.0, 0.0},
      {FaultKind::kFanSeized, 0, 5, 30.0, -1.0, 2500.0},
  };
  return plan;
}

/// Replays one slot's faults onto that slot simulated alone.  The session
/// resolves the demand once per control period, at the period's start and
/// before its physics, so advancing a one-server FaultInjector to the
/// latest coordination barrier there arms and clears each fault at the
/// same instant the rack's injector does.
class FaultReplayWorkload final : public Workload {
 public:
  FaultReplayWorkload(const Workload& inner, const FaultPlan& rack_plan,
                      std::size_t slot, Server& server, double barrier_s)
      : inner_(inner),
        injector_(slot_plan(rack_plan, slot), {&server}, obs::Telemetry{}),
        barrier_s_(barrier_s) {}

  double demand(double t) const override {
    injector_.advance(std::floor(t / barrier_s_) * barrier_s_);
    return inner_.demand(t);
  }

 private:
  static FaultPlan slot_plan(const FaultPlan& rack_plan, std::size_t slot) {
    FaultPlan out;
    for (FaultEvent e : rack_plan.events) {
      if (e.slot != slot) continue;
      e.slot = 0;
      out.events.push_back(e);
    }
    return out;
  }

  const Workload& inner_;
  mutable FaultInjector injector_;
  double barrier_s_;
};

TEST(FaultInjection, EveryLaneMatchesItsScalarRunUnderFaults) {
  // Faulted lanes stay in the batch: a fan fault is the lane's drive, a
  // sensor fault runs in the sensor's own sample path.  On an uncoupled
  // rack every slot, faulted or not, must match the slot simulated alone
  // through Server::step with the same faults armed at the same barriers.
  CoupledRackParams p = small_params(kSweepSlots);
  p.coordinator = "independent";
  p.plenum_enabled = false;
  p.faults = every_kind_plan();
  const Rack rack(p.rack);

  auto run_alone = [&](std::size_t i, const FaultPlan& plan) {
    const RackServerSpec& spec = rack.server(i);
    Rng rng(spec.seed);
    const auto workload = make_slot_workload(spec, rng);
    Server server(spec.server, spec.solution.initial_fan_rpm, rng);
    const FaultReplayWorkload replay(*workload, plan, i, server,
                                     p.coord.coordination_period_s);
    const auto dtm = PolicyFactory::instance().make(p.rack.policy, spec.solution);
    return run_simulation(server, *dtm, replay, p.rack.sim);
  };
  std::vector<SimulationResult> alone;
  for (std::size_t i = 0; i < rack.size(); ++i) {
    alone.push_back(run_alone(i, p.faults));
    // Every faulted slot's faults change its run.
    if (i < 6) {
      EXPECT_NE(alone[i].fan_energy_joules,
                run_alone(i, FaultPlan{}).fan_energy_joules) << "slot " << i;
    }
  }

  for (std::size_t threads : {1u, 2u, 8u}) {
    const CoupledRackResult faulted = CoupledRackEngine(p, threads).run();
    for (std::size_t i = 0; i < rack.size(); ++i) {
      SCOPED_TRACE(testing::Message() << "threads=" << threads << " slot=" << i);
      EXPECT_EQ(faulted.slots[i].result.fan_energy_joules,
                alone[i].fan_energy_joules);
      EXPECT_EQ(faulted.slots[i].result.cpu_energy_joules,
                alone[i].cpu_energy_joules);
      EXPECT_EQ(faulted.slots[i].result.max_junction_celsius,
                alone[i].junction_stats.max());
      EXPECT_EQ(faulted.slots[i].deadline_violations,
                alone[i].deadline.violations());
    }
  }
}

// ------------------------------------------------- barrier-level effects

TEST(FaultInjection, BlackoutFreezesTheObservation) {
  CoupledRackParams p = small_params(4);
  p.coordinator = "independent";
  p.faults.events.push_back(
      {FaultKind::kSlotBlackout, 0, 2, 60.0, -1.0, 0.0});
  CoupledRackEngine::Session session(p);
  std::vector<SlotObservation> before;  // the last gather that got out
  std::size_t dark_rounds = 0;
  while (!session.done()) {
    for (std::size_t s = 0; s < session.num_shards(); ++s) {
      session.run_shard(s);
    }
    session.coordinate_round();
    const auto& obs = session.last_observations();
    ASSERT_EQ(obs.size(), 4u);
    if (obs[2].telemetry_ok) {
      before = obs;
    } else {
      // Dark: every payload field is the frozen last-good view (the
      // blackout arms at the t = 60 barrier, so that is the t = 30
      // gather); only the clock advances.
      ++dark_rounds;
      ASSERT_FALSE(before.empty());
      EXPECT_EQ(obs[2].measured_temp, before[2].measured_temp);
      EXPECT_EQ(obs[2].fan_actual_rpm, before[2].fan_actual_rpm);
      EXPECT_EQ(obs[2].demand, before[2].demand);
      EXPECT_GT(obs[2].time_s, before[2].time_s);
      EXPECT_TRUE(obs[1].telemetry_ok);  // neighbors stay live
    }
  }
  EXPECT_GT(dark_rounds, 1u);
}

TEST(FaultInjection, DroppedSensorIsDetectedStuckIsNot) {
  CoupledRackParams p = small_params(4);
  p.faults.events.push_back(
      {FaultKind::kSensorDropped, 0, 0, 30.0, -1.0, 0.0});
  p.faults.events.push_back({FaultKind::kSensorStuck, 0, 1, 30.0, -1.0, 45.0});
  CoupledRackEngine::Session session(p);
  for (std::size_t s = 0; s < session.num_shards(); ++s) session.run_shard(s);
  session.coordinate_round();  // t = 30: both events armed at this barrier
  const auto& obs = session.last_observations();
  EXPECT_FALSE(obs[0].sensor_ok);  // staleness monitor trips
  EXPECT_TRUE(obs[1].sensor_ok);   // stuck-at lies within spec: undetected
  EXPECT_TRUE(obs[0].dark());
  EXPECT_FALSE(obs[1].dark());
}

TEST(Failsafe, FloorEngagesWithinOnePeriodOfBlackout) {
  CoupledRackParams p = small_params(4);
  p.coordinator = "failsafe";
  p.coord.fan_zone_size = 4;
  p.faults.events.push_back(
      {FaultKind::kSlotBlackout, 0, 2, 60.0, -1.0, 0.0});
  const double floor_rpm = FailsafeCoordinator(p.coord).floor_rpm();
  CoupledRackEngine::Session session(p);
  bool saw_post_blackout_round = false;
  while (!session.done()) {
    for (std::size_t s = 0; s < session.num_shards(); ++s) {
      session.run_shard(s);
    }
    session.coordinate_round();
    const auto& obs = session.last_observations();
    // The blackout arms at the t = 60 barrier; the very next gather must
    // already show every zone member commanded to at least the safe floor.
    if (session.time_s() > 60.0) {
      saw_post_blackout_round = true;
      for (const SlotObservation& o : obs) {
        // The dark slot's own observation is the frozen pre-blackout view;
        // the live zone members show the floor command in force.
        if (!o.telemetry_ok) continue;
        EXPECT_GE(o.fan_cmd_rpm, floor_rpm) << "t=" << session.time_s();
      }
    }
  }
  EXPECT_TRUE(saw_post_blackout_round);
  (void)session.finish();
}

// --------------------------------------------------- failsafe coordinator

TEST(FailsafeCoordinator, DarkSlotRampsTheWholeZone) {
  CoordinatorConfig cfg;
  cfg.fan_zone_size = 2;
  FailsafeCoordinator coord(cfg);
  std::vector<SlotObservation> obs(4);
  for (auto& o : obs) {
    o.fan_requested_rpm = 2000.0;
    o.fan_actual_rpm = 2000.0;
  }
  obs[1].telemetry_ok = false;  // zone {0, 1} has a dark member
  std::vector<SlotDirective> directives;
  coord.coordinate(0.0, obs, directives);
  ASSERT_EQ(directives.size(), 4u);
  EXPECT_DOUBLE_EQ(directives[0].fan_override_rpm, coord.floor_rpm());
  EXPECT_DOUBLE_EQ(directives[1].fan_override_rpm, coord.floor_rpm());
  // Zone {2, 3} is healthy: max member request, as shared-fan-zone would.
  EXPECT_DOUBLE_EQ(directives[2].fan_override_rpm, 2000.0);
  EXPECT_DOUBLE_EQ(directives[3].fan_override_rpm, 2000.0);
}

TEST(FailsafeCoordinator, SeizedBlowerCapsTheSlotAndMaxesTheZone) {
  CoordinatorConfig cfg;
  cfg.fan_zone_size = 2;
  FailsafeCoordinator coord(cfg);
  std::vector<SlotObservation> obs(2);
  for (auto& o : obs) {
    o.fan_requested_rpm = 3000.0;
    o.fan_actual_rpm = 3000.0;
    o.measured_temp = 60.0;
  }
  obs[0].fan_actual_rpm = 400.0;  // impossible for a healthy actuator
  obs[0].measured_temp = cfg.thermal_limit_celsius + 5.0;  // past the limit
  std::vector<SlotDirective> directives;
  coord.coordinate(0.0, obs, directives);
  EXPECT_DOUBLE_EQ(directives[0].cap_limit, cfg.failsafe_seized_cap);
  EXPECT_DOUBLE_EQ(directives[1].cap_limit, 1.0);
  EXPECT_DOUBLE_EQ(directives[0].fan_override_rpm, cfg.fan_max_rpm);
  EXPECT_DOUBLE_EQ(directives[1].fan_override_rpm, cfg.fan_max_rpm);
}

TEST(FailsafeCoordinator, SeizedThrottleReleasesOnceTheVictimCools) {
  // The seized cap duty-cycles: full cap at the limit, uncapped once the
  // victim has cooled out of the ramp band, partial cap in between.
  CoordinatorConfig cfg;
  cfg.fan_zone_size = 2;
  FailsafeCoordinator coord(cfg);
  std::vector<SlotObservation> obs(2);
  for (auto& o : obs) {
    o.fan_requested_rpm = 3000.0;
    o.fan_actual_rpm = 3000.0;
    o.measured_temp = 60.0;
  }
  obs[0].fan_actual_rpm = 400.0;

  obs[0].measured_temp = 40.0;  // well below the ramp band
  std::vector<SlotDirective> directives;
  coord.coordinate(0.0, obs, directives);
  EXPECT_DOUBLE_EQ(directives[0].cap_limit, 1.0);
  // The zone still goes to max while the blower is seized.
  EXPECT_DOUBLE_EQ(directives[0].fan_override_rpm, cfg.fan_max_rpm);

  // The same buffer again: the previous round's contents are overwritten.
  obs[0].measured_temp = cfg.thermal_limit_celsius - 5.0;  // inside the band
  coord.coordinate(30.0, obs, directives);
  EXPECT_LT(directives[0].cap_limit, 1.0);
  EXPECT_GT(directives[0].cap_limit, cfg.failsafe_seized_cap);
}

// ------------------------------------------------ failsafe room scheduler

std::vector<RackObservation> bright_room(std::size_t racks, double demand) {
  std::vector<RackObservation> obs(racks);
  for (std::size_t i = 0; i < racks; ++i) {
    obs[i].index = i;
    obs[i].slots = 8;
    obs[i].demand = demand;
    obs[i].demand_scale = 1.0;
    // Equal inlets: the thermal-headroom half stays quiet (spread below
    // the hysteresis deadband), isolating the evacuation path.
    obs[i].mean_inlet_celsius = 30.0;
  }
  return obs;
}

TEST(FailsafeRoomScheduler, EvacuatesTheDarkRack) {
  RoomSchedulerConfig cfg;
  cfg.num_racks = 3;
  cfg.total_slots = 24;
  cfg.cooldown_rounds = 0;
  FailsafeRoomScheduler sched(cfg);
  std::vector<RackDirective> out;
  auto obs = bright_room(3, 0.5);
  // Warm the forecast with live rounds first.
  for (int round = 0; round < 4; ++round) sched.schedule(round, obs, out);
  EXPECT_EQ(sched.evacuations(), 0u);
  EXPECT_NEAR(sched.last_forecast(0), 0.5, 1e-12);

  obs[0].dark_slots = 2;  // rack 0 goes dark
  sched.schedule(5.0, obs, out);
  EXPECT_EQ(sched.evacuations(), 1u);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_LT(sched.scales()[0], 1.0);          // donor shed load
  EXPECT_GT(out[1].demand_scale, 1.0);        // coolest bright rack absorbs
  EXPECT_DOUBLE_EQ(sched.scales()[2], 1.0);   // bystander untouched
}

TEST(FailsafeRoomScheduler, ForecastIgnoresFrozenDarkReadings) {
  // The cross-layer predictor contract: a dark rack's frozen observation
  // must not be fed into its moving average — the forecast stays pinned at
  // the last live window, exactly what a hand-rolled predictor over the
  // same bright samples produces.
  RoomSchedulerConfig cfg;
  cfg.num_racks = 2;
  cfg.total_slots = 16;
  cfg.predictor_window = 3;
  cfg.cooldown_rounds = 0;
  FailsafeRoomScheduler sched(cfg);
  MovingAveragePredictor reference(cfg.predictor_window);
  std::vector<RackDirective> out;
  auto obs = bright_room(2, 0.4);
  for (int round = 0; round < 3; ++round) {
    obs[0].demand = 0.4 + 0.1 * round;
    reference.observe(obs[0].demand / obs[0].demand_scale);
    sched.schedule(round, obs, out);
    obs[0].demand_scale = sched.scales()[0];
    obs[0].demand *= obs[0].demand_scale;
  }
  EXPECT_DOUBLE_EQ(sched.last_forecast(0), reference.predict());

  const double pinned = sched.last_forecast(0);
  obs[0].dark_slots = 1;
  obs[0].demand = 99.0;  // absurd frozen reading: must be ignored
  sched.schedule(10.0, obs, out);
  EXPECT_DOUBLE_EQ(sched.last_forecast(0), pinned);
}

// ------------------------------------------------------------- generator

TEST(FaultScenarioGenerator, SeedRoundTrip) {
  FaultScenarioParams params;
  params.num_racks = 2;
  params.num_slots = 8;
  params.num_events = 6;
  const FaultScenarioGenerator gen(params);
  const FaultPlan a = gen.generate(123);
  const FaultPlan b = gen.generate(123);
  const FaultPlan c = gen.generate(124);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(a.size(), 6u);
  EXPECT_NO_THROW(a.validate(params.num_racks, params.num_slots));
  // And the JSON round-trip preserves a generated plan exactly.
  EXPECT_EQ(FaultPlan::from_json_text(a.to_json(2)), a);
}

TEST(FaultScenarioGenerator, EventsLandInsideTheWindow) {
  FaultScenarioParams params;
  params.num_events = 32;
  params.duration_s = 600.0;
  const FaultPlan plan = FaultScenarioGenerator(params).generate(7);
  for (const FaultEvent& e : plan.events) {
    EXPECT_GE(e.start_s, params.earliest_fraction * params.duration_s);
    EXPECT_LE(e.start_s, params.latest_fraction * params.duration_s);
    if (!e.permanent()) {
      EXPECT_GT(e.duration_s, 0.0);
    }
  }
}

// ------------------------------------------------------ injector surface

TEST(FaultInjector, CountsArmsAndClears) {
  CoupledRackParams p = small_params(4, 150.0);
  p.faults.events.push_back({FaultKind::kFanSeized, 0, 1, 30.0, 60.0, 0.0});
  CoupledRackEngine::Session session(p);
  while (!session.done()) {
    for (std::size_t s = 0; s < session.num_shards(); ++s) {
      session.run_shard(s);
    }
    session.coordinate_round();
  }
  // Armed at the 30 s barrier, cleared at the 90 s one; the slot's fan
  // slews home afterwards, so the final gather shows a live actuator.
  const auto& obs = session.last_observations();
  EXPECT_GT(obs[1].fan_actual_rpm, 1000.0);
  (void)session.finish();
}

TEST(FaultInjector, RejectsForeignRackEvents) {
  CoupledRackParams p = small_params(4);
  p.faults.events.push_back({FaultKind::kSensorStuck, 1, 0, 0.0, -1.0, 45.0});
  EXPECT_THROW(CoupledRackEngine(p, 1).run(), std::invalid_argument);
}

}  // namespace
}  // namespace fsc
