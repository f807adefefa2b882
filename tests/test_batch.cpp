// batch/ subsystem tests: the batched SoA plant kernel must be
// BIT-identical to the scalar path — not close, identical — at every rung
// of the ladder:
//
//   * ServerBatch at N = 1 against Server::step and against
//     ServerThermalModel::step (the scalar step is the N = 1 wrapper over
//     the same plant_kernel.hpp expressions);
//   * the period kernel (LaneAccounting::advance_period) against the
//     scalar Server::step and against itself run one substep per call,
//     which never takes the settled tail: state and memo tallies equal;
//     and across the settled tail's 8-lane blocks, where a lane of a
//     later block reaches its sample instant first;
//   * RackBatchStepper's lane accounting (sensor phase, energy, junction
//     statistics) against per-slot scalar Session::step_period, at every
//     period boundary, across range widths and thread counts, under the
//     per-period fan overrides, cap limits, demand scales and inlet
//     changes a coordinator and a room impose between periods, and under
//     every sensor and fan fault kind armed and cleared at barriers;
//   * a full coupled rack run and a full scheduled room, on racks that
//     split into several 8-lane chunks, across thread counts against the
//     1-thread run.
//
// Every comparison below uses exact double equality (EXPECT_EQ), because
// the design guarantee is "same FP operations in the same per-slot order",
// not "small error".
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "batch/lane_accounting.hpp"
#include "batch/plant_kernel.hpp"
#include "batch/rack_stepper.hpp"
#include "batch/server_batch.hpp"
#include "coord/coupled_rack_engine.hpp"
#include "core/policy_factory.hpp"
#include "rack/rack.hpp"
#include "room/room_engine.hpp"
#include "sim/instrumentation.hpp"
#include "sim/server.hpp"
#include "thermal/server_thermal_model.hpp"
#include "util/lockstep_executor.hpp"
#include "util/rng.hpp"

namespace fsc {
namespace {

constexpr double kDt = 0.05;
constexpr long kSubstepsPerPeriod = 20;

// ------------------------------------------------------------ kernel unit

TEST(PlantKernel, MatchesModelClassExpressions) {
  const HeatSinkModel hs = HeatSinkModel::table1_defaults();
  const FanPowerModel fp = FanPowerModel::table1_defaults();
  for (double rpm : {0.0, 0.5, 1.0, 1500.0, 3333.3, 8500.0, 9000.0}) {
    EXPECT_EQ(hs.resistance(rpm),
              plant::heat_sink_resistance(hs.r_base(), hs.r_coeff(), hs.r_exp(), rpm));
    EXPECT_EQ(fp.power(rpm), plant::fan_power(fp.power_at_max(), fp.max_speed(), rpm));
  }
}

TEST(PlantKernel, SlewLandsExactlyOnCommandWithinReach) {
  // Within reach: returns the command itself, not actual + delta (which
  // could round differently) — mirrors FanActuator::step's assignment.
  EXPECT_EQ(plant::slew_toward(3000.0, 3040.0, 50.0), 3040.0);
  EXPECT_EQ(plant::slew_toward(3000.0, 2990.0, 50.0), 2990.0);
  // Out of reach: bounded move toward the command.
  EXPECT_EQ(plant::slew_toward(3000.0, 4000.0, 50.0), 3050.0);
  EXPECT_EQ(plant::slew_toward(3000.0, 2000.0, 50.0), 2950.0);
}

/// Speeds, commands and reaches at the edges of the slew's select: signed
/// zeros, subnormals, infinities, NaN, exact and just-missed reaches.
std::vector<double> slew_edge_values() {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double tiny = std::numeric_limits<double>::denorm_min();
  return {0.0,     -0.0,    tiny,    -tiny,  1.0,     50.0,
          3000.0,  3050.0,  2950.0,  std::nextafter(3050.0, 0.0),
          3000.0 + 1e-9,    8500.0,  -3000.0, 1e308,   -1e308,
          inf,     -inf,    nan,     -nan};
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// Equal bits, signed zeros included, or both NaN: which NaN an add of
/// two NaNs returns depends on the operand order the compiler emits.
bool same_value(double a, double b) {
  return std::isnan(a) ? std::isnan(b) : bits(a) == bits(b);
}

TEST(ServerBatch, SlewPassMatchesScalarSlewOnEdgeValues) {
  // 11 lanes, each replayed through the scalar plant::slew_toward,
  // period after period, over the edge values as commands and slews (an
  // infinite slew over dt = 0 gives a NaN reach).
  const std::vector<double> v = slew_edge_values();
  constexpr std::size_t kLanes = 11;
  Rng rng(4);
  std::vector<std::unique_ptr<Server>> servers;
  ServerBatch batch;
  for (std::size_t i = 0; i < kLanes; ++i) {
    servers.push_back(std::make_unique<Server>(Server::table1_defaults(rng)));
    batch.add_server(*servers.back());
  }
  std::vector<double> ref(kLanes);
  for (std::size_t i = 0; i < kLanes; ++i) ref[i] = batch.fan_rpm(i);
  for (std::size_t round = 0; round < 3 * v.size(); ++round) {
    const double dt = round % 5 == 4 ? 0.0 : kDt;
    for (std::size_t i = 0; i < kLanes; ++i) {
      const double cmd = v[(round * 7 + i * 3) % v.size()];
      const double slew = v[(round + i * 5) % v.size()];
      batch.set_inputs(i, 80.0, FanDrive{cmd, slew}, 30.0);
    }
    batch.prepare_dt(dt);
    for (int s = 0; s < 3; ++s) {
      batch.step_range(0, kLanes, dt);
      for (std::size_t i = 0; i < kLanes; ++i) {
        const double cmd = v[(round * 7 + i * 3) % v.size()];
        const double slew = v[(round + i * 5) % v.size()];
        ref[i] = plant::slew_toward(ref[i], cmd, slew * dt);
        ASSERT_TRUE(same_value(batch.fan_rpm(i), ref[i]))
            << "round " << round << " substep " << s << " lane " << i << ": "
            << batch.fan_rpm(i) << " vs " << ref[i];
      }
    }
  }
}

// -------------------------------------------------- N = 1 vs Server::step

TEST(ServerBatch, N1BitIdenticalToScalarServerStep) {
  // Noisy sensor on a sample period that is not a multiple of dt: the
  // period kernel must take each sample at the same substep, with the
  // same Rng draw, as SensorChain::observe.
  ServerParams params;
  params.sensor.noise_stddev = 0.4;
  params.sensor.sample_period_s = 0.73;
  Rng rng_a(7);
  Rng rng_b(7);
  Server scalar(params, 2000.0, rng_a);
  Server batched(params, 2000.0, rng_b);

  ServerBatch batch;
  ASSERT_EQ(batch.add_server(batched), 0u);
  ASSERT_EQ(batch.size(), 1u);
  LaneAccounting accounts;
  ASSERT_EQ(accounts.add_lane(batched), 0u);
  batch.prepare_dt(kDt);

  for (long period = 0; period < 120; ++period) {
    // Exercise all regimes: load square wave, fan commands that slew for
    // several substeps (and then settle for whole periods, so the kernel
    // runs its settled tail), an inlet retarget mid-run (plenum coupling).
    const double u = (period / 7) % 2 == 0 ? 0.25 : 0.85;
    const double cmd = (period % 40) < 20 ? 2500.0 : 7000.0;
    scalar.command_fan(cmd);
    batched.command_fan(cmd);
    if (period == 60) {
      scalar.set_inlet_temperature(45.5);
      batched.set_inlet_temperature(45.5);
    }
    batch.set_inputs(0, batched.cpu_power_now(u), batched.fan_speed_commanded(),
                     batched.inlet_temperature());
    accounts.load(0);
    for (long s = 0; s < kSubstepsPerPeriod; ++s) scalar.step(u, kDt);
    accounts.advance_period(batch, 0, 1, kDt, kSubstepsPerPeriod);
    ASSERT_EQ(scalar.true_junction(), batch.junction_celsius(0)) << period;
    ASSERT_EQ(scalar.true_heat_sink(), batch.heat_sink_celsius(0));
    ASSERT_EQ(scalar.fan_speed_actual(), batch.fan_rpm(0));
    accounts.store(0, batch);
    ASSERT_EQ(scalar.true_junction(), batched.true_junction()) << period;
    ASSERT_EQ(scalar.true_heat_sink(), batched.true_heat_sink());
    ASSERT_EQ(scalar.fan_speed_actual(), batched.fan_speed_actual());
    ASSERT_EQ(scalar.measured_temp(), batched.measured_temp()) << period;
    ASSERT_EQ(scalar.energy().fan_energy(), batched.energy().fan_energy());
    ASSERT_EQ(scalar.energy().cpu_energy(), batched.energy().cpu_energy());
    ASSERT_EQ(scalar.energy().elapsed(), batched.energy().elapsed());
    ASSERT_EQ(scalar.junction().stats().mean(), batched.junction().stats().mean());
    ASSERT_EQ(scalar.junction().stats().max(), batched.junction().stats().max());
    ASSERT_EQ(scalar.junction().violation_time_s(),
              batched.junction().violation_time_s());
  }
}

TEST(ServerBatch, N1BitIdenticalToThermalModelStep) {
  // Saturate the slew so the batch actuator sits exactly on the command
  // from the first substep; the thermal trajectory then compares directly
  // against ServerThermalModel::step at the commanded speed.
  ServerParams params;
  params.fan.slew_rpm_per_s = 1e9;
  Rng rng(3);
  Server server(params, 3000.0, rng);
  ServerThermalModel model = ServerThermalModel::table1_defaults();
  model.settle(server.cpu_power_now(0.0), 3000.0);

  ServerBatch batch;
  batch.add_server(server);

  for (long period = 0; period < 40; ++period) {
    const double rpm = 1500.0 + 500.0 * static_cast<double>(period % 12);
    const double u = 0.1 * static_cast<double>(period % 10);
    const double p_cpu = server.cpu_power_now(u);
    batch.set_inputs(0, p_cpu, rpm, model.params().ambient_celsius);
    for (long s = 0; s < kSubstepsPerPeriod; ++s) {
      model.step(p_cpu, rpm, kDt);
      batch.step_all(kDt);
      ASSERT_EQ(model.junction(), batch.junction_celsius(0))
          << "period " << period << " substep " << s;
      ASSERT_EQ(model.heat_sink_temperature(), batch.heat_sink_celsius(0));
    }
  }
}

TEST(ServerBatch, DtChangeRefreshesTheMemoisedDecays) {
  Rng rng_a(11);
  Rng rng_b(11);
  Server scalar = Server::table1_defaults(rng_a);
  Server batched = Server::table1_defaults(rng_b);
  ServerBatch batch;
  batch.add_server(batched);
  LaneAccounting accounts;
  accounts.add_lane(batched);
  batch.set_inputs(0, batched.cpu_power_now(0.6), 4000.0, batched.inlet_temperature());
  scalar.command_fan(4000.0);
  batched.command_fan(4000.0);

  for (double dt : {0.05, 0.05, 0.1, 0.05, 0.025}) {
    batch.prepare_dt(dt);
    accounts.load(0);
    for (int s = 0; s < 10; ++s) scalar.step(0.6, dt);
    accounts.advance_period(batch, 0, 1, dt, 10);
    ASSERT_EQ(scalar.true_junction(), batch.junction_celsius(0)) << "dt " << dt;
    ASSERT_EQ(scalar.true_heat_sink(), batch.heat_sink_celsius(0));
    accounts.store(0, batch);
    ASSERT_EQ(scalar.measured_temp(), batched.measured_temp()) << "dt " << dt;
    ASSERT_EQ(scalar.energy().cpu_energy(), batched.energy().cpu_energy());
    ASSERT_EQ(scalar.energy().elapsed(), batched.energy().elapsed());
  }
}

TEST(ServerBatch, ValidatesInputs) {
  Rng rng(1);
  Server server = Server::table1_defaults(rng);
  ServerBatch batch;
  batch.add_server(server);
  EXPECT_THROW(batch.set_inputs(1, 100.0, 3000.0, 42.0), std::invalid_argument);
  EXPECT_THROW(batch.set_inputs(0, -1.0, 3000.0, 42.0), std::invalid_argument);
  EXPECT_THROW(batch.step_all(-0.01), std::invalid_argument);
}

TEST(ServerBatch, StepRangeRequiresPreparedDt) {
  Rng rng(1);
  Server server = Server::table1_defaults(rng);
  ServerBatch batch;
  batch.add_server(server);  // resets the dt memo
  EXPECT_THROW(batch.step_range(0, 1, kDt), std::logic_error);
  batch.prepare_dt(kDt);
  EXPECT_NO_THROW(batch.step_range(0, 1, kDt));
  EXPECT_THROW(batch.step_range(0, 2, kDt), std::invalid_argument);
}

TEST(LaneAccounting, AdvancePeriodValidatesRangeAndDt) {
  Rng rng(1);
  Server a = Server::table1_defaults(rng);
  Server b = Server::table1_defaults(rng);
  ServerBatch batch;
  LaneAccounting accounts;
  batch.add_server(a);
  accounts.add_lane(a);
  EXPECT_THROW(accounts.advance_period(batch, 0, 1, kDt, 1), std::logic_error);
  batch.prepare_dt(kDt);
  EXPECT_NO_THROW(accounts.advance_period(batch, 0, 1, kDt, 1));
  EXPECT_THROW(accounts.advance_period(batch, 0, 2, kDt, 1),
               std::invalid_argument);
  EXPECT_THROW(accounts.advance_period(batch, 1, 0, kDt, 1),
               std::invalid_argument);
  batch.add_server(b);  // the accounting no longer covers the batch
  batch.prepare_dt(kDt);
  EXPECT_THROW(accounts.advance_period(batch, 0, 1, kDt, 1),
               std::invalid_argument);
}

TEST(ServerBatch, RangedStepsComposeToTheWholeBatchStep) {
  // Stepping [0, 3) and [3, n) separately must equal one step_all: lanes
  // are independent, so the split is exact, not approximate.
  Rng rng_a(5);
  Rng rng_b(5);
  std::vector<std::unique_ptr<Server>> whole_servers;
  std::vector<std::unique_ptr<Server>> split_servers;
  ServerBatch whole;
  ServerBatch split;
  for (std::size_t i = 0; i < 7; ++i) {
    whole_servers.push_back(
        std::make_unique<Server>(Server::table1_defaults(rng_a)));
    split_servers.push_back(
        std::make_unique<Server>(Server::table1_defaults(rng_b)));
    whole.add_server(*whole_servers.back());
    split.add_server(*split_servers.back());
  }
  for (std::size_t i = 0; i < 7; ++i) {
    const double cmd = 2500.0 + 700.0 * static_cast<double>(i);
    whole.set_inputs(i, 80.0, cmd, 40.0);
    split.set_inputs(i, 80.0, cmd, 40.0);
  }
  split.prepare_dt(kDt);
  for (int s = 0; s < 200; ++s) {
    whole.step_all(kDt);
    split.step_range(3, 7, kDt);  // order across disjoint ranges is free
    split.step_range(0, 3, kDt);
    for (std::size_t i = 0; i < 7; ++i) {
      ASSERT_EQ(whole.junction_celsius(i), split.junction_celsius(i)) << i;
      ASSERT_EQ(whole.heat_sink_celsius(i), split.heat_sink_celsius(i)) << i;
      ASSERT_EQ(whole.fan_rpm(i), split.fan_rpm(i)) << i;
      ASSERT_EQ(whole.fan_watts(i), split.fan_watts(i)) << i;
    }
  }
}

TEST(ServerBatch, MemoCountersSeeHitsSharedHitsAndMisses) {
  // Four identical-SKU lanes slewing in lockstep: the first moving lane in
  // a pass pays the pow/exp, the other three share it; once settled, every
  // lane is a plain hit.
  Rng rng(2);
  std::vector<std::unique_ptr<Server>> servers;
  ServerBatch batch;
  for (std::size_t i = 0; i < 4; ++i) {
    servers.push_back(std::make_unique<Server>(Server::table1_defaults(rng)));
    batch.add_server(*servers.back());
  }
  for (std::size_t i = 0; i < 4; ++i) batch.set_inputs(i, 80.0, 5000.0, 40.0);
  batch.prepare_dt(kDt);

  // Telemetry is opt-in: the default must leave the counters untouched.
  batch.step_range(0, 4, kDt);
  EXPECT_EQ(batch.memo_hits() + batch.memo_shared_hits() + batch.memo_misses(),
            0u);
  batch.set_memo_telemetry(true);
  batch.reset_memo_counters();

  batch.step_range(0, 4, kDt);  // all four lanes still slewing to 5000 rpm
  EXPECT_EQ(batch.memo_misses(), 1u);
  EXPECT_EQ(batch.memo_shared_hits(), 3u);
  EXPECT_EQ(batch.memo_hits(), 0u);

  for (int s = 0; s < 2000; ++s) batch.step_all(kDt);  // settle on 5000 rpm
  const std::uint64_t misses_settled = batch.memo_misses();
  const std::uint64_t hits_before = batch.memo_hits();
  batch.step_all(kDt);
  EXPECT_EQ(batch.memo_misses(), misses_settled);  // no new transcendentals
  EXPECT_EQ(batch.memo_hits(), hits_before + 4);
}

TEST(ServerBatch, MemoTotalsIdenticalAcrossRangeWidths) {
  // The shared/miss split shifts with range boundaries (the rolling share
  // restarts in every range); the lane total and the full hits cannot.
  constexpr std::size_t kLanes = 7;
  constexpr int kPeriods = 30;
  std::uint64_t reference_hits = 0;
  for (const std::size_t width : {kLanes, std::size_t{3}}) {
    SCOPED_TRACE("width=" + std::to_string(width));
    Rng rng(9);
    std::vector<std::unique_ptr<Server>> servers;
    ServerBatch batch;
    for (std::size_t i = 0; i < kLanes; ++i) {
      servers.push_back(std::make_unique<Server>(Server::table1_defaults(rng)));
      batch.add_server(*servers.back());
    }
    batch.prepare_dt(kDt);
    batch.set_memo_telemetry(true);
    for (int period = 0; period < kPeriods; ++period) {
      // Lockstep slews: odd and even lanes share a command.
      for (std::size_t i = 0; i < kLanes; ++i) {
        const double cmd = period % 10 < 5
                               ? 3000.0
                               : 6000.0 + 500.0 * static_cast<double>(i % 2);
        batch.set_inputs(i, 80.0, cmd, 40.0);
      }
      for (long s = 0; s < kSubstepsPerPeriod; ++s) {
        for (std::size_t lo = 0; lo < kLanes; lo += width) {
          batch.step_range(lo, std::min(lo + width, kLanes), kDt);
        }
      }
    }
    EXPECT_EQ(batch.memo_hits() + batch.memo_shared_hits() + batch.memo_misses(),
              kLanes * kPeriods * kSubstepsPerPeriod);
    EXPECT_GT(batch.memo_shared_hits(), 0u);
    if (width == kLanes) {
      reference_hits = batch.memo_hits();
      EXPECT_GT(reference_hits, 0u);
    } else {
      EXPECT_EQ(batch.memo_hits(), reference_hits);
    }
  }
}

TEST(ServerBatch, CommandIsClampedIntoTheFanEnvelope) {
  Rng rng(1);
  Server server = Server::table1_defaults(rng);
  ServerBatch batch;
  batch.add_server(server);
  // Commands outside [min, max] behave exactly like FanActuator::command.
  batch.set_inputs(0, 100.0, 20000.0, 42.0);
  for (int s = 0; s < 400; ++s) batch.step_all(kDt);
  EXPECT_EQ(batch.fan_rpm(0), server.params().fan.max_rpm);
  batch.set_inputs(0, 100.0, 0.0, 42.0);
  for (int s = 0; s < 400; ++s) batch.step_all(kDt);
  EXPECT_EQ(batch.fan_rpm(0), server.params().fan.min_rpm);
}

// ------------------- lane accounting: RackBatchStepper vs scalar sessions

/// One slot built the way the rack engine builds it: seeded plant,
/// workload and policy, and the three standard sinks on its own engine.
struct LaneSlot {
  Rng rng;
  std::shared_ptr<const Workload> workload;
  Server server;
  std::unique_ptr<DtmPolicy> policy;
  SimulationEngine engine;
  DeadlineStatsSink deadline;
  ThermalViolationSink thermal;
  EnergyAccumulatorSink energy;
  std::unique_ptr<SimulationEngine::Session> session;

  LaneSlot(const RackServerSpec& spec, const RackParams& rack)
      : rng(spec.seed),
        workload(make_slot_workload(spec, rng)),
        server(spec.server, spec.solution.initial_fan_rpm, rng),
        policy(PolicyFactory::instance().make(rack.policy, spec.solution)),
        engine(rack.sim) {
    engine.add_sink(&deadline);
    engine.add_sink(&thermal);
    engine.add_sink(&energy);
    session = std::make_unique<SimulationEngine::Session>(engine, server,
                                                          *policy, *workload);
  }
};

/// Everything the lane accounting writes back, at one period boundary.
struct LaneState {
  double cpu_j, fan_j, elapsed_s;
  RunningStats::State junction;
  double violation_s;
  double measured_c;
  double fan_rpm;
};

LaneState lane_state(const Server& server) {
  const EnergyMeter& e = server.energy();
  const JunctionMeter& j = server.junction();
  return {e.cpu_energy(),
          e.fan_energy(),
          e.elapsed(),
          j.stats().state(),
          j.violation_time_s(),
          server.measured_temp(),
          server.fan_speed_actual()};
}

LaneState lane_state(const LaneSlot& slot) { return lane_state(slot.server); }

void expect_same_lane(const LaneState& want, const LaneState& got) {
  EXPECT_EQ(want.cpu_j, got.cpu_j);
  EXPECT_EQ(want.fan_j, got.fan_j);
  EXPECT_EQ(want.elapsed_s, got.elapsed_s);
  EXPECT_EQ(want.junction.n, got.junction.n);
  EXPECT_EQ(want.junction.mean, got.junction.mean);
  EXPECT_EQ(want.junction.m2, got.junction.m2);
  EXPECT_EQ(want.junction.sum, got.junction.sum);
  EXPECT_EQ(want.junction.min, got.junction.min);
  EXPECT_EQ(want.junction.max, got.junction.max);
  EXPECT_EQ(want.violation_s, got.violation_s);
  EXPECT_EQ(want.measured_c, got.measured_c);
  EXPECT_EQ(want.fan_rpm, got.fan_rpm);
}

/// Two full 8-lane ranges and a ragged tail at width 8.
constexpr std::size_t kLaneSlots = 19;
constexpr long kLanePeriods = 90;
/// One control period of substeps, in seconds.
constexpr double kPeriodS = kDt * static_cast<double>(kSubstepsPerPeriod);

/// A 19-slot rack whose sensors are noisy (every sample draws from the
/// slot's Rng) and sampled on a period that is not a multiple of dt, with
/// a limit low enough that violation time accrues.
RackParams lane_rack() {
  RackParams rack = default_coupled_scenario(99, 90.0).rack;
  rack.num_servers = kLaneSlots;
  rack.server.sensor.noise_stddev = 0.5;
  rack.server.sensor.sample_period_s = 0.73;
  rack.sim.thermal_limit_celsius = 62.0;
  return rack;
}

/// What the fault injector changes at a barrier, as a pure function of
/// (period, slot): every fan fault kind — a degraded ceiling above and
/// below min_rpm, a seized rotor windmilling above min_rpm and at the
/// default speed — and every sensor fault kind, each armed and cleared.
void steer_faults(long period, std::size_t slot, Server& server) {
  const bool odd = slot % 2 != 0;
  switch ((period + 4 * static_cast<long>(slot)) % 30) {
    case 3:
      server.set_fan_fault(FanFaultMode::kDegradedMax, odd ? 2200.0 : 1200.0);
      break;
    case 14:
      server.set_fan_fault(FanFaultMode::kSeized, odd ? 2500.0 : 0.0);
      break;
    case 10:
    case 21:
      server.clear_fan_fault();
      break;
    default: break;
  }
  switch ((period + 7 * static_cast<long>(slot)) % 30) {
    case 2: server.set_sensor_fault(SensorFaultMode::kStuck, 55.0); break;
    case 8: server.set_sensor_fault(SensorFaultMode::kDropped, 0.0); break;
    case 14: server.set_sensor_fault(SensorFaultMode::kNoisy, 1.5); break;
    case 20: server.clear_sensor_fault(); break;
    default: break;
  }
}

/// What coordinate_round and the room change between periods, as a pure
/// function of (period, slot): fan overrides set and cleared, cap limits,
/// demand scales, inlet retargets and fault transitions.  The reference
/// and the stepper run apply exactly the same steering at the same
/// barrier.
void steer(long period, std::size_t slot, LaneSlot& lane) {
  steer_faults(period, slot, lane.server);
  SimulationEngine::Session& s = *lane.session;
  const long phase = period + static_cast<long>(slot);
  if (phase % 5 == 0) {
    s.set_fan_override(2500.0 + 900.0 * static_cast<double>(slot % 4));
  } else if (phase % 5 == 3) {
    s.clear_fan_override();
  }
  s.set_cap_limit(phase % 7 < 3 ? 0.55 + 0.1 * static_cast<double>(slot % 3)
                                : 1.0);
  s.set_demand_scale(period % 11 < 6 ? 1.0
                                     : 0.6 + 0.2 * static_cast<double>(slot % 3));
  if (period % 13 == 6) {
    lane.server.set_inlet_temperature(
        lane.server.inlet_temperature() + 0.5 * static_cast<double>(slot % 4) -
        0.75);
  }
}

std::vector<std::unique_ptr<LaneSlot>> make_lane_slots(const RackParams& rack_params) {
  const Rack rack(rack_params);
  std::vector<std::unique_ptr<LaneSlot>> slots;
  for (const RackServerSpec& spec : rack.servers()) {
    slots.push_back(std::make_unique<LaneSlot>(spec, rack_params));
  }
  return slots;
}

TEST(LaneAccounting, StepperMatchesScalarSessionsEveryPeriod) {
  const RackParams rack = lane_rack();

  // Reference: every slot through the scalar Session::step_period.
  std::vector<std::vector<LaneState>> want(kLanePeriods);
  bool below_floor = false;  // a fault drove some fan under min_rpm
  bool crossed = false;      // some junction crossed the limit mid-period
  {
    auto slots = make_lane_slots(rack);
    for (long p = 0; p < kLanePeriods; ++p) {
      for (std::size_t i = 0; i < slots.size(); ++i) {
        steer(p, i, *slots[i]);
        slots[i]->session->step_period();
        want[p].push_back(lane_state(*slots[i]));
        below_floor |= want[p].back().fan_rpm < rack.server.fan.min_rpm;
        if (p > 0) {
          const double over = want[p][i].violation_s - want[p - 1][i].violation_s;
          crossed |= over > 0.0 && over < kPeriodS;
        }
      }
    }
  }
  // The run must exercise what is being compared.
  ASSERT_GT(want.back()[0].violation_s, 0.0);
  ASSERT_GT(want.back()[0].junction.n, 0u);
  ASSERT_TRUE(below_floor);
  ASSERT_TRUE(crossed);

  for (std::size_t width :
       {std::size_t{1}, std::size_t{3}, std::size_t{8}, kLaneSlots}) {
    for (std::size_t threads : {1u, 2u, 8u}) {
      SCOPED_TRACE("width=" + std::to_string(width) +
                   " threads=" + std::to_string(threads));
      auto slots = make_lane_slots(rack);
      RackBatchStepper stepper;
      for (auto& slot : slots) stepper.add_slot(*slot->session, slot->server);
      stepper.prepare();
      LockstepExecutor executor(threads);
      const std::size_t ranges = (kLaneSlots + width - 1) / width;
      for (long p = 0; p < kLanePeriods; ++p) {
        for (std::size_t i = 0; i < kLaneSlots; ++i) steer(p, i, *slots[i]);
        executor.run(ranges, [&stepper, width](std::size_t r) {
          stepper.advance_range_periods(
              r * width, std::min((r + 1) * width, kLaneSlots), 1);
        });
        for (std::size_t i = 0; i < kLaneSlots; ++i) {
          SCOPED_TRACE("period=" + std::to_string(p) +
                       " slot=" + std::to_string(i));
          expect_same_lane(want[p][i], lane_state(*slots[i]));
          if (HasFailure()) return;
        }
      }
    }
  }
}

/// The period kernel's own fleet: `lanes` Servers with noisy sensors,
/// lane i sampled every `sample_period(i)` seconds, and a junction limit
/// the load crosses, stepped on one batch.  Lane `shared` (unless it is
/// `lanes`) draws from lane `source`'s Rng, so when both lie in one range
/// their samples interleave in (substep, lane) order.
struct KernelFleet {
  static constexpr double kLimit = 62.0;

  std::vector<std::unique_ptr<Rng>> rngs;
  std::vector<std::unique_ptr<Server>> servers;
  ServerBatch batch;
  LaneAccounting accounts;

  KernelFleet(std::size_t lanes, std::size_t source, std::size_t shared,
              double (*sample_period)(std::size_t)) {
    for (std::size_t i = 0; i < lanes; ++i) {
      ServerParams params;
      params.sensor.noise_stddev = 0.5;
      params.sensor.sample_period_s = sample_period(i);
      rngs.push_back(std::make_unique<Rng>(derive_seed(17, i)));
      Rng& rng = i == shared ? *rngs[source] : *rngs.back();
      servers.push_back(std::make_unique<Server>(
          params, 2000.0 + 150.0 * static_cast<double>(i % 4), rng));
      servers.back()->junction_meter().reset(kLimit);
      batch.add_server(*servers.back());
      accounts.add_lane(*servers.back());
    }
    batch.prepare_dt(kDt);
    batch.set_memo_telemetry(true);
  }
  /// `kLaneSlots` lanes sampled every 0.73 s; with `share`, lanes 2 and 5
  /// share an Rng — both inside the first range at width >= 8.
  explicit KernelFleet(bool share)
      : KernelFleet(kLaneSlots, 2, share ? 5 : kLaneSlots,
                    [](std::size_t) { return 0.73; }) {}

  std::size_t size() const noexcept { return servers.size(); }

  /// The period's inputs, a pure function of (period, lane): commands
  /// that hold for six periods (the lanes settle, so ranges run whole
  /// periods in the settled tail), a seized fan on lane 3 (infinite
  /// slew) from period 10 to 30, a load square wave that carries the
  /// junctions across the limit mid-period, and an inlet retarget.
  /// Returns the utilization.
  double steer(long period, std::size_t i) {
    Server& server = *servers[i];
    const double lane = static_cast<double>(i);
    server.command_fan(((period / 6) + static_cast<long>(i)) % 3 == 0
                           ? 2200.0 + 100.0 * lane
                           : 4500.0);
    if (i == 3 && period == 10) server.set_fan_fault(FanFaultMode::kSeized, 2500.0);
    if (i == 3 && period == 30) server.clear_fan_fault();
    if (period == 40) server.set_inlet_temperature(server.inlet_temperature() + 1.5);
    return ((period + static_cast<long>(i)) / 4) % 2 == 0 ? 0.2 : 0.9;
  }

  /// One period of the scalar reference: every lane substep-outer,
  /// lane-inner — the order the kernel's samples are drawn in.
  void step_scalar(long period) {
    std::vector<double> u(size());
    for (std::size_t i = 0; i < size(); ++i) u[i] = steer(period, i);
    for (long s = 0; s < kSubstepsPerPeriod; ++s) {
      for (std::size_t i = 0; i < size(); ++i) servers[i]->step(u[i], kDt);
    }
  }

  /// Open the period on every lane: steer, gather, load.
  void begin(long period) {
    for (std::size_t i = 0; i < size(); ++i) {
      const double u = steer(period, i);
      batch.set_inputs(i, servers[i]->cpu_power_now(u), servers[i]->fan_drive(),
                       servers[i]->inlet_temperature());
      accounts.load(i);
    }
  }
  void end() {
    for (std::size_t i = 0; i < size(); ++i) accounts.store(i, batch);
  }
};

TEST(LaneAccounting, PeriodKernelMatchesScalarAndPerSubstepPaths) {
  // Which build of the period kernel the scalar oracle checks: with
  // clones, the one CPUID picked.
#ifdef FSC_PERIOD_KERNEL_CLONES
  RecordProperty("period_kernel_clone",
                 __builtin_cpu_supports("avx2") ? "avx2" : "default");
#else
  RecordProperty("period_kernel_clone", "single build");
#endif
  for (std::size_t width :
       {std::size_t{1}, std::size_t{3}, std::size_t{8}, kLaneSlots}) {
    const bool share = width >= 8;
    SCOPED_TRACE("width=" + std::to_string(width));
    // The scalar reference steps every lane substep-outer, lane-inner —
    // the order the kernel's samples are drawn in.
    KernelFleet scalar(share);
    KernelFleet whole(share);   // one kernel call per range per period
    KernelFleet single(share);  // one substep per call: never the tail
    bool crossed = false;
    bool seized = false;
    for (long p = 0; p < kLanePeriods; ++p) {
      std::vector<double> violation_before(kLaneSlots);
      for (std::size_t i = 0; i < kLaneSlots; ++i) {
        violation_before[i] = scalar.servers[i]->junction().violation_time_s();
      }
      scalar.step_scalar(p);
      whole.begin(p);
      single.begin(p);
      for (std::size_t lo = 0; lo < kLaneSlots; lo += width) {
        const std::size_t hi = std::min(lo + width, kLaneSlots);
        whole.accounts.advance_period(whole.batch, lo, hi, kDt,
                                      kSubstepsPerPeriod);
      }
      for (long s = 0; s < kSubstepsPerPeriod; ++s) {
        for (std::size_t lo = 0; lo < kLaneSlots; lo += width) {
          const std::size_t hi = std::min(lo + width, kLaneSlots);
          single.accounts.advance_period(single.batch, lo, hi, kDt, 1);
        }
      }
      whole.end();
      single.end();
      for (std::size_t i = 0; i < kLaneSlots; ++i) {
        SCOPED_TRACE("period=" + std::to_string(p) +
                     " lane=" + std::to_string(i));
        const LaneState want = lane_state(*scalar.servers[i]);
        expect_same_lane(want, lane_state(*whole.servers[i]));
        expect_same_lane(want, lane_state(*single.servers[i]));
        if (HasFailure()) return;
        const double over = want.violation_s - violation_before[i];
        crossed |= over > 0.0 && over < kPeriodS;
        seized |= i == 3 && p == 10 && want.fan_rpm == 2500.0;
      }
    }
    // The run must exercise what is being compared.
    EXPECT_TRUE(crossed);
    EXPECT_TRUE(seized);  // the infinite slew landed within one period
    // The tail counts its hits in bulk; the totals cannot move.
    EXPECT_EQ(whole.batch.memo_hits(), single.batch.memo_hits());
    EXPECT_EQ(whole.batch.memo_shared_hits(), single.batch.memo_shared_hits());
    EXPECT_EQ(whole.batch.memo_misses(), single.batch.memo_misses());
    EXPECT_GT(whole.batch.memo_misses(), 0u);
    EXPECT_EQ(whole.batch.memo_hits() + whole.batch.memo_shared_hits() +
                  whole.batch.memo_misses(),
              kLaneSlots * kLanePeriods * kSubstepsPerPeriod);
  }
}

/// Lanes 8, 12, 17, 20 and 23 sample about 2.5x as often as the rest, at
/// periods that are not multiples of dt and differ lane to lane.
double staggered_sample_period(std::size_t i) {
  const bool fast = i == 8 || i == 12 || i == 17 || i == 20 || i == 23;
  return fast ? 0.29 + 0.01 * static_cast<double>(i % 3)
              : 0.73 + 0.013 * static_cast<double>(i % 5);
}

TEST(LaneAccounting, SettledTailMatchesScalarAcrossBlocks) {
  // The settled tail runs each range in 8-lane blocks, K substeps at a
  // time, K being the first substep at which ANY lane of the range reaches
  // a sample instant.  Here a lane of a later block reaches it first, and
  // lanes 1 and 8 (first and second block) share an Rng.
  constexpr std::size_t kLanes = 24;
  constexpr std::size_t kBlock = RackBatchStepper::kAutoChunkLanes;
  for (std::size_t width : {std::size_t{9}, std::size_t{16}, std::size_t{19},
                            kLanes}) {
    SCOPED_TRACE("width=" + std::to_string(width));
    // Precondition: the first range's fastest sensor is not in its first
    // block, and both lanes sharing an Rng lie in that range.
    std::size_t fastest = 0;
    for (std::size_t i = 1; i < width; ++i) {
      if (staggered_sample_period(i) < staggered_sample_period(fastest)) {
        fastest = i;
      }
    }
    ASSERT_GE(fastest, kBlock);
    ASSERT_LT(std::size_t{8}, width);

    KernelFleet scalar(kLanes, 1, 8, staggered_sample_period);
    KernelFleet blocked(kLanes, 1, 8, staggered_sample_period);
    for (long p = 0; p < kLanePeriods; ++p) {
      scalar.step_scalar(p);
      blocked.begin(p);
      for (std::size_t lo = 0; lo < kLanes; lo += width) {
        blocked.accounts.advance_period(blocked.batch, lo,
                                        std::min(lo + width, kLanes), kDt,
                                        kSubstepsPerPeriod);
      }
      blocked.end();
      for (std::size_t i = 0; i < kLanes; ++i) {
        SCOPED_TRACE("period=" + std::to_string(p) +
                     " lane=" + std::to_string(i));
        expect_same_lane(lane_state(*scalar.servers[i]),
                         lane_state(*blocked.servers[i]));
        if (HasFailure()) return;
      }
    }
    // Commands hold for six periods, so most lane-substeps ran settled.
    EXPECT_GT(blocked.batch.memo_hits(),
              kLanes * kLanePeriods * kSubstepsPerPeriod / 2);
  }
}

/// A custom sink that observes control periods only.
class PeriodOnlySink final : public InstrumentationSink {
 public:
  void on_period(const PeriodSample& /*sample*/) override { ++periods_; }
  long periods() const noexcept { return periods_; }

 private:
  long periods_ = 0;
};

TEST(LaneAccounting, StepperAcceptsAnySink) {
  RackParams rack = lane_rack();
  rack.num_servers = 1;
  const RackServerSpec spec = Rack(rack).server(0);
  LaneSlot slot(spec, rack);
  PeriodOnlySink periods;
  slot.engine.add_sink(&periods);
  SimulationEngine::Session session(slot.engine, slot.server, *slot.policy,
                                    *slot.workload);
  RackBatchStepper stepper;
  EXPECT_NO_THROW(stepper.add_slot(session, slot.server));
  stepper.prepare();
  EXPECT_NO_THROW(stepper.advance_range_periods(0, 1, 3));
  EXPECT_EQ(session.periods_done(), 3);
  EXPECT_EQ(periods.periods(), 3);
}

TEST(LaneAccounting, RangeMustLieInsideTheBatch) {
  RackParams rack = lane_rack();
  rack.num_servers = 2;
  auto slots = make_lane_slots(rack);
  RackBatchStepper stepper;
  for (auto& slot : slots) stepper.add_slot(*slot->session, slot->server);
  stepper.prepare();
  EXPECT_THROW(stepper.advance_range_periods(2, 1, 1), std::invalid_argument);
  EXPECT_THROW(stepper.advance_range_periods(0, 3, 1), std::invalid_argument);
  EXPECT_NO_THROW(stepper.advance_range_periods(2, 2, 1));  // empty range
  EXPECT_EQ(slots[0]->session->periods_done(), 0);
}

// ---------------------------- full rack and room: thread invariance

void expect_identical(const CoupledRackResult& a, const CoupledRackResult& b) {
  ASSERT_EQ(a.slots.size(), b.slots.size());
  EXPECT_EQ(a.fan_energy_joules, b.fan_energy_joules);
  EXPECT_EQ(a.cpu_energy_joules, b.cpu_energy_joules);
  EXPECT_EQ(a.deadline_violation_percent, b.deadline_violation_percent);
  EXPECT_EQ(a.thermal_violation_percent, b.thermal_violation_percent);
  EXPECT_EQ(a.max_junction_stats.max(), b.max_junction_stats.max());
  EXPECT_EQ(a.mean_junction_stats.mean(), b.mean_junction_stats.mean());
  EXPECT_EQ(a.coordination_rounds, b.coordination_rounds);
  for (std::size_t i = 0; i < a.slots.size(); ++i) {
    EXPECT_EQ(a.slots[i].deadline_violations, b.slots[i].deadline_violations) << i;
    EXPECT_EQ(a.slots[i].result.fan_energy_joules,
              b.slots[i].result.fan_energy_joules) << i;
    EXPECT_EQ(a.slots[i].result.cpu_energy_joules,
              b.slots[i].result.cpu_energy_joules) << i;
    EXPECT_EQ(a.slots[i].result.max_junction_celsius,
              b.slots[i].result.max_junction_celsius) << i;
    EXPECT_EQ(a.slots[i].inlet_stats.mean(), b.slots[i].inlet_stats.mean()) << i;
    EXPECT_EQ(a.slots[i].inlet_stats.max(), b.slots[i].inlet_stats.max()) << i;
    EXPECT_EQ(a.slots[i].mean_cap_limit, b.slots[i].mean_cap_limit) << i;
    EXPECT_EQ(a.slots[i].fan_override_rounds, b.slots[i].fan_override_rounds) << i;
  }
}

/// Slots per rack in the engine-level sweeps: two full 8-lane chunks and
/// a ragged tail, so 2 and 8 threads split a rack across participants.
constexpr std::size_t kSweepSlots = 19;

CoupledRackParams rack_params(const std::string& coordinator) {
  CoupledRackParams p = default_coupled_scenario(1234, 240.0);
  p.rack.num_servers = kSweepSlots;
  // The default scenario's 1000 W budget is sized for its 8 slots.
  p.coord.rack_power_budget_watts = 125.0 * static_cast<double>(kSweepSlots);
  p.coordinator = coordinator;
  return p;
}

TEST(BatchedRack, BitIdenticalAcrossThreads) {
  // Reference: the 1-thread run.  2 and 8 threads must reproduce it.
  for (const char* coordinator : {"independent", "shared-fan-zone", "power-budget"}) {
    const CoupledRackResult ref = CoupledRackEngine(rack_params(coordinator), 1).run();
    for (std::size_t threads : {2u, 8u}) {
      SCOPED_TRACE(std::string(coordinator) +
                   " threads=" + std::to_string(threads));
      expect_identical(ref,
                       CoupledRackEngine(rack_params(coordinator), threads).run());
    }
  }
}

void expect_identical(const RoomResult& a, const RoomResult& b) {
  ASSERT_EQ(a.racks.size(), b.racks.size());
  EXPECT_EQ(a.fan_energy_joules, b.fan_energy_joules);
  EXPECT_EQ(a.cpu_energy_joules, b.cpu_energy_joules);
  EXPECT_EQ(a.deadline_violation_percent, b.deadline_violation_percent);
  EXPECT_EQ(a.thermal_violation_percent, b.thermal_violation_percent);
  EXPECT_EQ(a.migration_events, b.migration_events);
  for (std::size_t i = 0; i < a.racks.size(); ++i) {
    EXPECT_EQ(a.racks[i].final_demand_scale, b.racks[i].final_demand_scale) << i;
    EXPECT_EQ(a.racks[i].demand_scale_stats.mean(),
              b.racks[i].demand_scale_stats.mean()) << i;
    EXPECT_EQ(a.racks[i].ambient_offset_stats.mean(),
              b.racks[i].ambient_offset_stats.mean()) << i;
    expect_identical(a.racks[i].result, b.racks[i].result);
  }
}

RoomParams room_params() {
  RoomParams p = default_room_scenario(2, 77, 240.0);
  p.scheduler = "thermal-headroom";
  for (CoupledRackParams& rack : p.racks) rack.rack.num_servers = kSweepSlots;
  return p;
}

TEST(BatchedRoom, BitIdenticalAcrossThreads) {
  // Reference: the 1-thread run.
  const RoomResult ref = RoomEngine(room_params(), 1).run();
  ASSERT_GT(ref.migration_events, 0u);  // the scheduler must steer the racks
  for (std::size_t threads : {2u, 8u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    expect_identical(ref, RoomEngine(room_params(), threads).run());
  }
}

}  // namespace
}  // namespace fsc
