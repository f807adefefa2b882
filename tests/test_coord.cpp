// coord/ subsystem tests: coordinator registry, plenum physics (the rack
// and cross-rack plenums bit-identical to the per-pair formula), water-fill
// arbitration, lockstep determinism (bit-identical across thread counts),
// equivalence with per-slot run_simulation, trace round-trips through
// the rack, and the coordination benefit on the default scenario.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include "coord/coupled_rack_engine.hpp"
#include "coord/plenum.hpp"
#include "coord/policies.hpp"
#include "core/policy_factory.hpp"
#include "rack/rack.hpp"
#include "room/cross_plenum.hpp"
#include "sim/simulation.hpp"
#include "util/lockstep_executor.hpp"
#include "util/rng.hpp"
#include "workload/synthetic.hpp"
#include "workload/trace_io.hpp"

namespace fsc {
namespace {

/// One slot simulated on its own through run_simulation, built exactly as
/// the rack engine builds the slot (same spec, RNG stream, workload and
/// policy) — the uncoupled reference the lockstep engine must reproduce.
SimulationResult run_slot_alone(const RackServerSpec& spec,
                                const RackParams& rack) {
  Rng rng(spec.seed);
  const auto workload = make_slot_workload(spec, rng);
  Server server(spec.server, spec.solution.initial_fan_rpm, rng);
  const auto dtm = PolicyFactory::instance().make(rack.policy, spec.solution);
  return run_simulation(server, *dtm, *workload, rack.sim);
}

CoupledRackParams small_params(std::size_t n = 6, double duration_s = 120.0) {
  CoupledRackParams p;
  p.rack.num_servers = n;
  p.rack.base_seed = 1234;
  p.rack.sim.duration_s = duration_s;
  p.rack.sim.initial_utilization = 0.1;
  p.rack.workload.base.duration_s = duration_s;
  p.coord.coordination_period_s = 30.0;
  p.coord.fan_zone_size = 4;  // uneven zones on 6 slots: {0..3}, {4, 5}
  return p;
}

// ------------------------------------------------------------- registry

TEST(CoordinatorRegistry, BuiltinsAreRegistered) {
  const auto& factory = PolicyFactory::instance();
  for (const char* name : {"independent", "shared-fan-zone", "power-budget"}) {
    EXPECT_TRUE(factory.contains_coordinator(name)) << name;
    EXPECT_FALSE(factory.describe_coordinator(name).empty());
  }
  const auto names = factory.coordinator_names();
  EXPECT_GE(names.size(), 3u);
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
}

TEST(CoordinatorRegistry, MakeBuildsTheNamedCoordinator) {
  CoordinatorConfig cfg;
  const auto coord =
      PolicyFactory::instance().make_coordinator("shared-fan-zone", cfg);
  ASSERT_NE(coord, nullptr);
  EXPECT_EQ(coord->name(), "shared-fan-zone");
}

TEST(CoordinatorRegistry, UnknownNameThrowsListingKnown) {
  CoordinatorConfig cfg;
  try {
    PolicyFactory::instance().make_coordinator("no-such-coordinator", cfg);
    FAIL() << "expected std::out_of_range";
  } catch (const std::out_of_range& e) {
    EXPECT_NE(std::string(e.what()).find("independent"), std::string::npos);
  }
}

TEST(CoordinatorRegistry, DuplicateRegistrationThrows) {
  EXPECT_THROW(PolicyFactory::instance().register_coordinator(
                   "independent", "dup",
                   [](const CoordinatorConfig& cfg) {
                     return std::make_unique<IndependentCoordinator>(cfg);
                   }),
               std::invalid_argument);
}

TEST(CoordinatorRegistry, PolicyAndCoordinatorNamespacesAreIndependent) {
  // "independent" is a coordinator, not a DtmPolicy.
  EXPECT_FALSE(PolicyFactory::instance().contains("independent"));
  EXPECT_TRUE(PolicyFactory::instance().contains_coordinator("independent"));
}

// --------------------------------------------------------------- plenum

TEST(SharedPlenum, ValidatesParameters) {
  EXPECT_THROW(SharedPlenumModel(PlenumParams{}, {}), std::invalid_argument);
  PlenumParams bad;
  bad.recirculation_fraction = -0.1;
  EXPECT_THROW(SharedPlenumModel(bad, {40.0}), std::invalid_argument);
  bad = PlenumParams{};
  bad.neighbor_decay = 1.5;
  EXPECT_THROW(SharedPlenumModel(bad, {40.0}), std::invalid_argument);
}

TEST(SharedPlenum, ExhaustRiseScalesWithPowerAndInverseAirflow) {
  const SharedPlenumModel plenum(PlenumParams{}, {40.0});
  const PlenumParams& p = plenum.params();
  // At the reference speed the calibration holds exactly.
  EXPECT_NEAR(plenum.exhaust_rise(p.watts_per_kelvin_at_ref, p.reference_fan_rpm),
              1.0, 1e-12);
  // Half the airflow doubles the rise; double the power doubles the rise.
  EXPECT_NEAR(plenum.exhaust_rise(120.0, 3000.0),
              2.0 * plenum.exhaust_rise(120.0, 6000.0), 1e-12);
  EXPECT_NEAR(plenum.exhaust_rise(240.0, 6000.0),
              2.0 * plenum.exhaust_rise(120.0, 6000.0), 1e-12);
}

TEST(SharedPlenum, ZeroRecirculationDecouplesTheRack) {
  PlenumParams p;
  p.recirculation_fraction = 0.0;
  const SharedPlenumModel plenum(p, {40.0, 42.0, 44.0});
  const auto inlets = plenum.inlet_temperatures(
      {{200.0, 3000.0}, {200.0, 3000.0}, {200.0, 3000.0}});
  EXPECT_DOUBLE_EQ(inlets[0], 40.0);
  EXPECT_DOUBLE_EQ(inlets[1], 42.0);
  EXPECT_DOUBLE_EQ(inlets[2], 44.0);
}

TEST(SharedPlenum, NeighborsPreheatEachOtherWithDistanceDecay) {
  PlenumParams p;
  p.recirculation_fraction = 0.2;
  p.neighbor_decay = 0.5;
  const SharedPlenumModel plenum(p, {40.0, 40.0, 40.0});
  // Only slot 0 dissipates power.
  const auto inlets =
      plenum.inlet_temperatures({{240.0, 6000.0}, {0.0, 6000.0}, {0.0, 6000.0}});
  const double rise0 = plenum.exhaust_rise(240.0, 6000.0);
  EXPECT_DOUBLE_EQ(inlets[0], 40.0);  // no self-recirculation
  EXPECT_NEAR(inlets[1], 40.0 + 0.2 * rise0, 1e-12);
  EXPECT_NEAR(inlets[2], 40.0 + 0.2 * 0.5 * rise0, 1e-12);
  EXPECT_GT(inlets[1], inlets[2]);
}

TEST(SharedPlenum, PreheatIsCappedAtMaxRise) {
  PlenumParams p;
  p.recirculation_fraction = 1.0;
  p.neighbor_decay = 1.0;
  p.max_rise_celsius = 2.0;
  const SharedPlenumModel plenum(p, {40.0, 40.0});
  const auto inlets =
      plenum.inlet_temperatures({{1000.0, 1000.0}, {1000.0, 1000.0}});
  EXPECT_DOUBLE_EQ(inlets[0], 42.0);
  EXPECT_DOUBLE_EQ(inlets[1], 42.0);
}

TEST(SharedPlenum, RejectsMismatchedSlotCount) {
  const SharedPlenumModel plenum(PlenumParams{}, {40.0, 40.0});
  EXPECT_THROW(plenum.inlet_temperatures({{100.0, 3000.0}}),
               std::invalid_argument);
}

/// The plenum formula evaluated pair by pair, std::pow per pair, summing
/// over j in ascending order: the reference the model's precomputed
/// weight table must reproduce bit for bit.
std::vector<double> per_pair_pow_inlets(
    const PlenumParams& p, const std::vector<double>& base,
    const std::vector<PlenumSlotState>& slots) {
  std::vector<double> rise(slots.size());
  for (std::size_t j = 0; j < slots.size(); ++j) {
    const double rpm = std::max(slots[j].fan_rpm, p.min_airflow_rpm);
    rise[j] = slots[j].cpu_watts /
              (p.watts_per_kelvin_at_ref * rpm / p.reference_fan_rpm);
  }
  std::vector<double> out(slots.size());
  for (std::size_t i = 0; i < slots.size(); ++i) {
    double preheat = 0.0;
    for (std::size_t j = 0; j < slots.size(); ++j) {
      if (j == i) continue;
      const std::size_t d = i > j ? i - j : j - i;
      const double w = p.recirculation_fraction *
                       std::pow(p.neighbor_decay, static_cast<double>(d - 1));
      preheat += w * rise[j];
    }
    out[i] = base[i] + std::min(preheat, p.max_rise_celsius);
  }
  return out;
}

/// Seeded operating points; state 0 runs every slot hot with a stalled
/// fan, which drives any slot with a neighbor into max_rise_celsius.
std::vector<std::vector<PlenumSlotState>> random_plenum_states(
    std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<PlenumSlotState>> states(6);
  states[0].assign(n, PlenumSlotState{1000.0, 0.0});
  for (std::size_t s = 1; s < states.size(); ++s) {
    for (std::size_t i = 0; i < n; ++i) {
      states[s].push_back({rng.uniform(0.0, 300.0), rng.uniform(0.0, 12000.0)});
    }
  }
  return states;
}

TEST(SharedPlenum, InletsMatchThePerPairPowFormulaBitForBit) {
  // Decay 0 exercises pow(0, 0) = 1 (only adjacent slots couple).
  for (std::size_t n : {1u, 2u, 3u, 64u}) {
    for (double decay : {0.0, 0.37, 0.5, 1.0}) {
      SCOPED_TRACE("slots=" + std::to_string(n) +
                   " decay=" + std::to_string(decay));
      PlenumParams p;
      p.neighbor_decay = decay;
      Rng rng(n * 131 + static_cast<std::uint64_t>(decay * 100.0));
      std::vector<double> base(n);
      for (double& b : base) b = rng.uniform(18.0, 35.0);
      const SharedPlenumModel plenum(p, base);
      std::vector<double> out;
      bool capped = false;
      for (const auto& slots : random_plenum_states(n, 7 + n)) {
        const std::vector<double> expected =
            per_pair_pow_inlets(p, base, slots);
        EXPECT_EQ(plenum.inlet_temperatures(slots), expected);
        plenum.inlet_temperatures(slots, out);
        EXPECT_EQ(out, expected);
        for (std::size_t i = 0; i < n; ++i) {
          capped |= expected[i] == base[i] + p.max_rise_celsius;
        }
      }
      EXPECT_EQ(capped, n > 1) << "the hot state must reach max_rise_celsius";
    }
  }
}

TEST(CrossRackPlenum, OffsetsMatchThePerPairPowFormulaBitForBit) {
  for (std::size_t racks : {1u, 2u, 3u, 64u}) {
    for (double decay : {0.0, 0.37, 0.5, 1.0}) {
      SCOPED_TRACE("racks=" + std::to_string(racks) +
                   " decay=" + std::to_string(decay));
      CrossRackPlenumParams cp;
      cp.neighbor_decay = decay;
      const CrossRackPlenumModel model(cp, racks);
      PlenumParams p;
      p.recirculation_fraction = cp.recirculation_fraction;
      p.neighbor_decay = cp.neighbor_decay;
      p.reference_fan_rpm = cp.reference_fan_rpm;
      p.watts_per_kelvin_at_ref = cp.watts_per_kelvin_at_ref;
      p.min_airflow_rpm = cp.min_airflow_rpm;
      p.max_rise_celsius = cp.max_rise_celsius;
      const std::vector<double> zero(racks, 0.0);
      std::vector<double> out;
      for (auto slots : random_plenum_states(racks, 11 + racks)) {
        std::vector<RackPlenumState> states;
        for (PlenumSlotState& s : slots) {
          s.cpu_watts *= 16.0;  // a whole rack's power, not one server's
          states.push_back({s.cpu_watts, s.fan_rpm});
        }
        const std::vector<double> expected =
            per_pair_pow_inlets(p, zero, slots);
        EXPECT_EQ(model.ambient_offsets(states), expected);
        model.ambient_offsets(states, out);
        EXPECT_EQ(out, expected);
      }
    }
  }
}

// ----------------------------------------------------------- water-fill

TEST(PowerBudget, WaterFillGrantsEveryoneUnderBudget) {
  std::vector<double> alloc;
  PowerBudgetCoordinator::water_fill({100.0, 50.0, 30.0}, 200.0, alloc);
  EXPECT_DOUBLE_EQ(alloc[0], 100.0);
  EXPECT_DOUBLE_EQ(alloc[1], 50.0);
  EXPECT_DOUBLE_EQ(alloc[2], 30.0);
}

TEST(PowerBudget, WaterFillRedistributesUnusedHeadroom) {
  // Budget 240 across demands {200, 60, 40}: the two light slots keep
  // their full demand, the heavy one gets everything left over.
  std::vector<double> alloc;
  PowerBudgetCoordinator::water_fill({200.0, 60.0, 40.0}, 240.0, alloc);
  EXPECT_DOUBLE_EQ(alloc[1], 60.0);
  EXPECT_DOUBLE_EQ(alloc[2], 40.0);
  EXPECT_DOUBLE_EQ(alloc[0], 140.0);
}

TEST(PowerBudget, WaterFillSplitsEquallyWhenAllSaturate) {
  std::vector<double> alloc;
  PowerBudgetCoordinator::water_fill({200.0, 300.0}, 100.0, alloc);
  EXPECT_DOUBLE_EQ(alloc[0], 50.0);
  EXPECT_DOUBLE_EQ(alloc[1], 50.0);
}

TEST(PowerBudget, RejectsBudgetBelowTheIdleFloor) {
  // 8 slots draw >= 8 x power(min_cap) ~ 794 W even fully capped; a 500 W
  // budget can never be met and must be refused at construction.
  CoordinatorConfig cfg;
  cfg.num_slots = 8;
  cfg.rack_power_budget_watts = 500.0;
  EXPECT_THROW(PowerBudgetCoordinator{cfg}, std::invalid_argument);
}

TEST(PowerBudget, CoordinateCapsOnlyOversubscribedSlots) {
  CoordinatorConfig cfg;
  cfg.num_slots = 2;
  cfg.rack_power_budget_watts = 240.0;  // < 2 x 160 W peak
  PowerBudgetCoordinator coord(cfg);
  std::vector<SlotObservation> obs(2);
  obs[0].demand = 1.0;   // 160 W wanted
  obs[1].demand = 0.1;   // 102.4 W wanted
  std::vector<SlotDirective> directives;
  coord.coordinate(0.0, obs, directives);
  ASSERT_EQ(directives.size(), 2u);
  EXPECT_LT(directives[0].cap_limit, 1.0);   // heavy slot capped
  EXPECT_DOUBLE_EQ(directives[1].cap_limit, 1.0);  // light slot untouched
  // The heavy slot's cap converts back to its granted watts.
  const double granted = cfg.cpu_power.power(directives[0].cap_limit);
  EXPECT_NEAR(granted + cfg.cpu_power.power(0.1), 240.0, 1e-9);
}

// ------------------------------------------------------------- fan zone

TEST(FanZone, ZoneSpeedIsMaxMemberRequest) {
  CoordinatorConfig cfg;
  cfg.fan_zone_size = 2;
  FanZoneCoordinator coord(cfg);
  std::vector<SlotObservation> obs(4);
  obs[0].fan_requested_rpm = 3000.0;
  obs[1].fan_requested_rpm = 5000.0;
  obs[2].fan_requested_rpm = 2000.0;
  obs[3].fan_requested_rpm = 1000.0;  // below the floor
  std::vector<SlotDirective> directives;
  coord.coordinate(0.0, obs, directives);
  ASSERT_EQ(directives.size(), 4u);
  EXPECT_DOUBLE_EQ(directives[0].fan_override_rpm, 5000.0);
  EXPECT_DOUBLE_EQ(directives[1].fan_override_rpm, 5000.0);
  EXPECT_DOUBLE_EQ(directives[2].fan_override_rpm, 2000.0);
  EXPECT_DOUBLE_EQ(directives[3].fan_override_rpm, 2000.0);
}

// -------------------------------------------------- coupled rack engine

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

TEST(CoupledRackEngine, ValidatesConstruction) {
  EXPECT_THROW(CoupledRackEngine(small_params(), 0), std::invalid_argument);
  CoupledRackParams p = small_params();
  p.coord.coordination_period_s = 0.7;  // not a multiple of the 1 s period
  EXPECT_THROW(CoupledRackEngine(p, 1), std::invalid_argument);
}

TEST(CoupledRackEngine, UnknownCoordinatorThrowsAtRun) {
  CoupledRackParams p = small_params();
  p.coordinator = "no-such-coordinator";
  EXPECT_THROW(CoupledRackEngine(p, 1).run(), std::out_of_range);
}

TEST(CoupledRackEngine, BitIdenticalAcross1And2And8Threads) {
  for (const char* coordinator :
       {"independent", "shared-fan-zone", "power-budget"}) {
    CoupledRackParams p = small_params();
    p.coordinator = coordinator;
    p.coord.rack_power_budget_watts = 700.0;  // tight: capping engages
    const CoupledRackResult one = CoupledRackEngine(p, 1).run();
    const CoupledRackResult two = CoupledRackEngine(p, 2).run();
    const CoupledRackResult eight = CoupledRackEngine(p, 8).run();
    SCOPED_TRACE(coordinator);
    expect_identical(one, two);
    expect_identical(one, eight);
  }
}

TEST(CoupledRackEngine, RepeatedRunsAreIdentical) {
  CoupledRackParams p = small_params();
  p.coordinator = "shared-fan-zone";
  const CoupledRackEngine engine(p, 2);
  expect_identical(engine.run(), engine.run());
}

/// Steps a session to its end on a one-thread executor and aggregates, so
/// two sessions driven this way differ only in how they were built.
CoupledRackResult drive_serially(CoupledRackEngine::Session& session) {
  LockstepExecutor one(1);
  while (!session.done()) {
    one.run(session.num_shards(),
            [&session](std::size_t i) { session.run_shard(i); });
    session.coordinate_round();
  }
  return session.finish();
}

/// what() of the std::out_of_range `build` throws ("" when none).
template <typename Build>
std::string out_of_range_what(Build&& build) {
  try {
    build();
  } catch (const std::out_of_range& e) {
    return e.what();
  }
  return "";
}

TEST(CoupledRackEngine, BuildingOnATeamChangesNothing) {
  // 19 slots: two full 8-lane chunks and a ragged tail.  Teams of 2, 3, 4
  // and 8 split the slot wave evenly and unevenly.
  CoupledRackParams p = small_params(19);
  p.coordinator = "shared-fan-zone";
  CoupledRackEngine::Session serial(p);
  const CoupledRackResult reference = drive_serially(serial);
  for (const std::size_t threads : {2u, 3u, 4u, 8u}) {
    SCOPED_TRACE(threads);
    LockstepExecutor team(threads);
    CoupledRackEngine::Session built(p, team);
    const CoupledRackResult result = drive_serially(built);
    expect_identical(reference, result);
    EXPECT_EQ(reference.to_json(), result.to_json());
  }
}

TEST(CoupledRackEngine, TeamBuildThrowsTheSerialError) {
  CoupledRackParams p = small_params(19);
  p.rack.policy = "no-such-policy";
  const std::string serial =
      out_of_range_what([&] { CoupledRackEngine::Session s(p); });
  ASSERT_NE(serial.find("no-such-policy"), std::string::npos) << serial;

  LockstepExecutor team(4);
  EXPECT_EQ(out_of_range_what([&] { CoupledRackEngine::Session s(p, team); }),
            serial);
  // The team survives the failed wave: it runs the next one in full and
  // builds a valid session.
  std::vector<int> ran(8, 0);
  team.run(ran.size(), [&ran](std::size_t i) { ran[i] = 1; });
  EXPECT_EQ(std::count(ran.begin(), ran.end(), 1), 8);
  const CoupledRackEngine::Session ok(small_params(19), team);
  EXPECT_EQ(ok.num_slots(), 19u);
}

TEST(CoupledRackEngine, UncoupledIndependentMatchesPerSlotRunsExactly) {
  // plenum off + no-op coordinator: the lockstep engine must reproduce
  // independent per-slot runs bit for bit (same specs, same RNG streams,
  // same physics — only the execution schedule differs).
  CoupledRackParams p = small_params();
  p.plenum_enabled = false;
  const CoupledRackResult coupled = CoupledRackEngine(p, 3).run();
  const Rack rack(p.rack);
  ASSERT_EQ(coupled.size(), rack.size());
  double fan_energy = 0.0;
  double cpu_energy = 0.0;
  std::size_t periods = 0;
  std::size_t violations = 0;
  for (std::size_t i = 0; i < coupled.size(); ++i) {
    const SimulationResult alone = run_slot_alone(rack.server(i), p.rack);
    const SolutionResult row = alone.summarize("slot");
    EXPECT_EQ(coupled.slots[i].result.fan_energy_joules, row.fan_energy_joules);
    EXPECT_EQ(coupled.slots[i].result.cpu_energy_joules, row.cpu_energy_joules);
    EXPECT_EQ(coupled.slots[i].deadline_violations,
              alone.deadline.violations());
    EXPECT_EQ(coupled.slots[i].result.max_junction_celsius,
              row.max_junction_celsius);
    EXPECT_EQ(coupled.slots[i].result.thermal_violation_percent,
              row.thermal_violation_percent);
    fan_energy += row.fan_energy_joules;
    cpu_energy += row.cpu_energy_joules;
    periods += alone.deadline.periods();
    violations += alone.deadline.violations();
  }
  EXPECT_EQ(coupled.total_energy_joules, fan_energy + cpu_energy);
  EXPECT_EQ(coupled.deadline_violation_percent,
            100.0 * static_cast<double>(violations) /
                static_cast<double>(periods));
}

TEST(CoupledRackEngine, PlenumCouplingRaisesInletsAboveBase) {
  CoupledRackParams p = small_params();
  p.rack.jitter.ambient_delta_celsius = 0.0;  // uniform base inlets
  const double base = p.rack.server.thermal.params().ambient_celsius;
  const CoupledRackResult r = CoupledRackEngine(p, 2).run();
  // Every slot has working neighbors, so recirculation preheats them all.
  for (const CoupledSlotSummary& s : r.slots) {
    EXPECT_GT(s.inlet_stats.mean(), base);
  }
  // Disabling the plenum keeps inlets at base and changes the physics.
  CoupledRackParams off = p;
  off.plenum_enabled = false;
  const CoupledRackResult r_off = CoupledRackEngine(off, 2).run();
  for (const CoupledSlotSummary& s : r_off.slots) {
    EXPECT_DOUBLE_EQ(s.inlet_stats.mean(), base);
  }
  EXPECT_NE(r.total_energy_joules, r_off.total_energy_joules);
}

TEST(CoupledRackEngine, FanZoneOverridesEveryRound) {
  CoupledRackParams p = small_params();
  p.coordinator = "shared-fan-zone";
  const CoupledRackResult r = CoupledRackEngine(p, 1).run();
  ASSERT_GT(r.coordination_rounds, 0u);
  for (const CoupledSlotSummary& s : r.slots) {
    EXPECT_EQ(s.fan_override_rounds, r.coordination_rounds);
  }
}

TEST(CoupledRackEngine, TightBudgetActuallyCaps) {
  CoupledRackParams p = small_params();
  p.coordinator = "power-budget";
  p.coord.rack_power_budget_watts = 650.0;  // ~108 W/slot: heavily capped
  const CoupledRackResult r = CoupledRackEngine(p, 1).run();
  bool any_capped = false;
  for (const CoupledSlotSummary& s : r.slots) {
    if (s.mean_cap_limit < 1.0) any_capped = true;
  }
  EXPECT_TRUE(any_capped);
}

TEST(CoupledRackEngine, ReportsRenderAllSlots) {
  const CoupledRackResult r = CoupledRackEngine(small_params(3), 1).run();
  EXPECT_NE(r.to_table().find("slot"), std::string::npos);
  EXPECT_NE(r.to_json().find("\"per_slot\""), std::string::npos);
  // CSV: header + one row per slot.
  const std::string csv = r.to_csv();
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 4);
}

// ----------------------------------------------- coordination benefit

TEST(CoordinationBenefit, CoordinatorsBeatIndependentOnTheDefaultScenario) {
  // The acceptance scenario of bench_coord_overhead, shortened: fan-zone
  // arbitration must cut deadline violations, budget capping must cut
  // total energy.  Deterministic (fixed seed), so exact comparisons are
  // safe.
  const double duration = 600.0;
  CoupledRackParams ind = default_coupled_scenario(42, duration);
  CoupledRackParams zone = ind;
  zone.coordinator = "shared-fan-zone";
  CoupledRackParams budget = ind;
  budget.coordinator = "power-budget";

  const CoupledRackResult r_ind = CoupledRackEngine(ind, 4).run();
  const CoupledRackResult r_zone = CoupledRackEngine(zone, 4).run();
  const CoupledRackResult r_budget = CoupledRackEngine(budget, 4).run();

  EXPECT_LT(r_zone.pooled_deadline_violations(),
            r_ind.pooled_deadline_violations());
  EXPECT_LT(r_zone.thermal_violation_percent, r_ind.thermal_violation_percent);
  EXPECT_LT(r_budget.total_energy_joules, r_ind.total_energy_joules);
}

// ------------------------------------------------- trace-driven slots

TEST(TraceDrivenRack, TracesAssignRoundRobinToSlots) {
  Rng rng(9);
  SquareNoiseParams wl;
  wl.duration_s = 60.0;
  auto t0 = std::shared_ptr<const SampledWorkload>(
      make_square_noise_workload(wl, rng));
  auto t1 = std::shared_ptr<const SampledWorkload>(
      make_square_noise_workload(wl, rng));
  RackParams p;
  p.num_servers = 5;
  p.traces = {t0, t1};
  const Rack rack(p);
  EXPECT_EQ(rack.server(0).trace, t0);
  EXPECT_EQ(rack.server(1).trace, t1);
  EXPECT_EQ(rack.server(2).trace, t0);
  EXPECT_EQ(rack.server(4).trace, t0);
}

TEST(TraceDrivenRack, MakeSlotWorkloadPrefersTheTrace) {
  Rng rng(9);
  RackServerSpec spec;
  spec.workload.base.duration_s = 30.0;
  auto trace = std::shared_ptr<const SampledWorkload>(
      workload_from_csv("time,utilization\n0,0.5\n1,0.25\n"));
  spec.trace = trace;
  const auto w = make_slot_workload(spec, rng);
  EXPECT_EQ(w.get(), trace.get());
  spec.trace = nullptr;
  const auto synthetic = make_slot_workload(spec, rng);
  EXPECT_NE(synthetic, nullptr);
  EXPECT_NE(synthetic.get(), static_cast<const Workload*>(trace.get()));
}

TEST(TraceDrivenRack, SaveLoadRoundTripGivesIdenticalSlotSummaries) {
  // Build a trace whose samples survive the 9-significant-digit CSV text
  // representation exactly, replay it through the rack, persist it, load
  // it back from a trace directory, and demand identical slot summaries.
  const double duration = 90.0;
  std::vector<double> samples;
  for (std::size_t i = 0; i < 100; ++i) {
    samples.push_back(std::round(5000.0 + 4000.0 * std::sin(0.1 * i)) / 1e4);
  }
  auto original =
      std::make_shared<const SampledWorkload>(samples, 1.0);

  const std::string dir = ::testing::TempDir() + "fsc_trace_roundtrip";
  std::filesystem::create_directories(dir);
  save_workload(*original, original->duration(), original->sample_period(),
                dir + "/trace0.csv");
  const auto loaded = load_trace_dir(dir);
  ASSERT_EQ(loaded.size(), 1u);
  ASSERT_EQ(loaded[0]->size(), original->size());

  RackParams p;
  p.num_servers = 3;
  p.base_seed = 77;
  p.sim.duration_s = duration;
  RackParams p_orig = p;
  p_orig.traces = {original};
  RackParams p_loaded = p;
  p_loaded.traces.assign(loaded.begin(), loaded.end());

  const Rack rack_orig(p_orig);
  const Rack rack_loaded(p_loaded);
  ASSERT_EQ(rack_orig.size(), rack_loaded.size());
  for (std::size_t i = 0; i < rack_orig.size(); ++i) {
    const SimulationResult a = run_slot_alone(rack_orig.server(i), p_orig);
    const SimulationResult b = run_slot_alone(rack_loaded.server(i), p_loaded);
    EXPECT_EQ(a.fan_energy_joules, b.fan_energy_joules) << i;
    EXPECT_EQ(a.cpu_energy_joules, b.cpu_energy_joules) << i;
    EXPECT_EQ(a.summarize("a").max_junction_celsius,
              b.summarize("b").max_junction_celsius) << i;
    EXPECT_EQ(a.deadline.violations(), b.deadline.violations()) << i;
  }
}

}  // namespace
}  // namespace fsc
