// Unit tests for src/thermal: heat-sink resistance law, RC node
// integration, the coupled two-node server model (Eqns. 2-3), and the
// junction meter.
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "thermal/heat_sink.hpp"
#include "thermal/junction_meter.hpp"
#include "thermal/rc_node.hpp"
#include "thermal/server_thermal_model.hpp"

namespace fsc {
namespace {

// ---------------------------------------------------------------- HeatSinkModel

TEST(HeatSink, Table1ResistanceFormula) {
  const auto hs = HeatSinkModel::table1_defaults();
  // Rhs(v) = 0.141 + 132.51 v^-0.923, spot-checked against the formula.
  for (double v : {1000.0, 2000.0, 6000.0, 8500.0}) {
    const double expected = 0.141 + 132.51 * std::pow(v, -0.923);
    EXPECT_NEAR(hs.resistance(v), expected, 1e-12) << "v=" << v;
  }
}

TEST(HeatSink, ResistanceDecreasesWithSpeed) {
  const auto hs = HeatSinkModel::table1_defaults();
  double prev = hs.resistance(500.0);
  for (double v = 1000.0; v <= 8500.0; v += 500.0) {
    const double r = hs.resistance(v);
    EXPECT_LT(r, prev) << "v=" << v;
    prev = r;
  }
}

TEST(HeatSink, ResistanceApproachesAsymptote) {
  const auto hs = HeatSinkModel::table1_defaults();
  EXPECT_GT(hs.resistance(8500.0), 0.141);
  EXPECT_LT(hs.resistance(8500.0), 0.141 + 0.05);
}

TEST(HeatSink, LowSpeedClampAtOneRpm) {
  const auto hs = HeatSinkModel::table1_defaults();
  EXPECT_DOUBLE_EQ(hs.resistance(0.0), hs.resistance(1.0));
  EXPECT_DOUBLE_EQ(hs.resistance(0.5), hs.resistance(1.0));
}

TEST(HeatSink, CapacitanceMatchesTable1TimeConstant) {
  const auto hs = HeatSinkModel::table1_defaults();
  // Table I: 60 s time constant at max airflow.
  EXPECT_NEAR(hs.time_constant(8500.0), 60.0, 1e-9);
}

TEST(HeatSink, TimeConstantGrowsAtLowSpeed) {
  const auto hs = HeatSinkModel::table1_defaults();
  EXPECT_GT(hs.time_constant(1000.0), hs.time_constant(8500.0));
}

TEST(HeatSink, SlopeMatchesNumericalDerivative) {
  const auto hs = HeatSinkModel::table1_defaults();
  for (double v : {1500.0, 4000.0, 7000.0}) {
    const double h = 1e-3;
    const double numeric = (hs.resistance(v + h) - hs.resistance(v - h)) / (2.0 * h);
    EXPECT_NEAR(hs.resistance_slope(v), numeric, std::fabs(numeric) * 1e-5);
  }
}

TEST(HeatSink, SpeedForResistanceRoundTrip) {
  const auto hs = HeatSinkModel::table1_defaults();
  for (double v : {1200.0, 3300.0, 7700.0}) {
    EXPECT_NEAR(hs.speed_for_resistance(hs.resistance(v)), v, 1e-6);
  }
}

TEST(HeatSink, SpeedForUnreachableResistanceThrows) {
  const auto hs = HeatSinkModel::table1_defaults();
  EXPECT_THROW(hs.speed_for_resistance(0.141), std::invalid_argument);
  EXPECT_THROW(hs.speed_for_resistance(0.05), std::invalid_argument);
}

TEST(HeatSink, RejectsBadParameters) {
  EXPECT_THROW(HeatSinkModel(-0.1, 100.0, 0.9, 8500.0, 60.0), std::invalid_argument);
  EXPECT_THROW(HeatSinkModel(0.1, -1.0, 0.9, 8500.0, 60.0), std::invalid_argument);
  EXPECT_THROW(HeatSinkModel(0.1, 100.0, 0.0, 8500.0, 60.0), std::invalid_argument);
  EXPECT_THROW(HeatSinkModel(0.1, 100.0, 0.9, 0.0, 60.0), std::invalid_argument);
  EXPECT_THROW(HeatSinkModel(0.1, 100.0, 0.9, 8500.0, 0.0), std::invalid_argument);
}

// ---------------------------------------------------------------- RcNode

TEST(RcNode, ExponentialApproach) {
  RcNode node(20.0);
  // After one time constant the gap closes to 1/e.
  node.step(/*ss=*/120.0, /*tau=*/10.0, /*dt=*/10.0);
  EXPECT_NEAR(node.temperature(), 120.0 - 100.0 * std::exp(-1.0), 1e-9);
}

TEST(RcNode, ManySmallStepsMatchOneBigStep) {
  RcNode a(20.0), b(20.0);
  a.step(100.0, 5.0, 10.0);
  for (int i = 0; i < 1000; ++i) b.step(100.0, 5.0, 0.01);
  // Exact exponential integration is step-size independent.
  EXPECT_NEAR(a.temperature(), b.temperature(), 1e-9);
}

TEST(RcNode, ZeroDtIsNoop) {
  RcNode node(42.0);
  node.step(100.0, 1.0, 0.0);
  EXPECT_DOUBLE_EQ(node.temperature(), 42.0);
}

TEST(RcNode, ConvergesToSteadyState) {
  RcNode node(0.0);
  node.step(77.0, 1.0, 1000.0);
  EXPECT_NEAR(node.temperature(), 77.0, 1e-9);
}

TEST(RcNode, NeverOvershootsFirstOrder) {
  RcNode node(20.0);
  for (int i = 0; i < 100; ++i) {
    node.step(80.0, 3.0, 0.5);
    EXPECT_LE(node.temperature(), 80.0 + 1e-12);
  }
}

TEST(RcNode, RejectsBadArguments) {
  RcNode node(0.0);
  EXPECT_THROW(node.step(1.0, 0.0, 1.0), std::invalid_argument);
  EXPECT_THROW(node.step(1.0, -1.0, 1.0), std::invalid_argument);
  EXPECT_THROW(node.step(1.0, 1.0, -0.1), std::invalid_argument);
}

TEST(RcNode, SetTemperatureOverrides) {
  RcNode node(10.0);
  node.set_temperature(99.0);
  EXPECT_DOUBLE_EQ(node.temperature(), 99.0);
}

// ---------------------------------------------------------------- ServerThermalModel

TEST(ServerThermal, SteadyStateEquation3) {
  auto m = ServerThermalModel::table1_defaults();
  // Eqn. 3: Tss_hs = Tamb + Rhs * P (Tamb = 42, R_die = 0.05 per DESIGN.md).
  const double p = 140.0;
  const double v = 3000.0;
  const double r = m.heat_sink().resistance(v);
  EXPECT_NEAR(m.steady_state_heat_sink(p, v), 42.0 + r * p, 1e-12);
  EXPECT_NEAR(m.steady_state_junction(p, v), 42.0 + r * p + 0.05 * p, 1e-12);
}

TEST(ServerThermal, SettleReachesSteadyState) {
  auto m = ServerThermalModel::table1_defaults();
  m.settle(160.0, 4000.0);
  EXPECT_NEAR(m.junction(), m.steady_state_junction(160.0, 4000.0), 1e-12);
  EXPECT_NEAR(m.heat_sink_temperature(), m.steady_state_heat_sink(160.0, 4000.0),
              1e-12);
}

TEST(ServerThermal, StepConvergesToSteadyState) {
  auto m = ServerThermalModel::table1_defaults();
  m.settle(96.0, 2000.0);
  // Hold a new operating point for 10 minutes; the plant must converge.
  for (int i = 0; i < 12000; ++i) m.step(160.0, 2000.0, 0.05);
  EXPECT_NEAR(m.junction(), m.steady_state_junction(160.0, 2000.0), 0.05);
}

TEST(ServerThermal, FasterFanMeansCoolerJunction) {
  auto m = ServerThermalModel::table1_defaults();
  const double p = 140.0;
  EXPECT_GT(m.steady_state_junction(p, 2000.0), m.steady_state_junction(p, 4000.0));
  EXPECT_GT(m.steady_state_junction(p, 4000.0), m.steady_state_junction(p, 8500.0));
}

TEST(ServerThermal, MorePowerMeansHotterJunction) {
  auto m = ServerThermalModel::table1_defaults();
  EXPECT_LT(m.steady_state_junction(96.0, 3000.0),
            m.steady_state_junction(160.0, 3000.0));
}

TEST(ServerThermal, DieRespondsMuchFasterThanHeatSink) {
  auto m = ServerThermalModel::table1_defaults();
  m.settle(96.0, 3000.0);
  const double hs0 = m.heat_sink_temperature();
  const double j0 = m.junction();
  // One second after a power step the die has moved nearly fully toward
  // its quasi-steady state while the heat sink has barely moved.
  for (int i = 0; i < 20; ++i) m.step(160.0, 3000.0, 0.05);
  const double die_move = m.junction() - j0;
  const double hs_move = m.heat_sink_temperature() - hs0;
  EXPECT_GT(die_move, 5.0 * hs_move);
}

TEST(ServerThermal, MinSpeedForLimitIsBoundary) {
  auto m = ServerThermalModel::table1_defaults();
  const double p = 150.0;
  const double limit = 78.0;  // reachable inside the fan envelope at 150 W
  const double v = m.min_speed_for_junction_limit(p, limit);
  EXPECT_LE(m.steady_state_junction(p, v), limit + 1e-6);
  // Just below the boundary speed the limit must be violated (unless the
  // boundary collapsed to the minimum).
  if (v > 1.5) {
    EXPECT_GT(m.steady_state_junction(p, v - 1.0), limit - 1e-6);
  }
}

TEST(ServerThermal, MinSpeedSaturatesAtMaxWhenUnreachable) {
  auto m = ServerThermalModel::table1_defaults();
  // An absurdly low limit cannot be met even at max speed.
  EXPECT_DOUBLE_EQ(m.min_speed_for_junction_limit(160.0, 30.0), 8500.0);
}

TEST(ServerThermal, MinSpeedIsMonotoneInPower) {
  auto m = ServerThermalModel::table1_defaults();
  const double limit = 75.0;
  double prev = 0.0;
  for (double p : {100.0, 120.0, 140.0, 160.0}) {
    const double v = m.min_speed_for_junction_limit(p, limit);
    EXPECT_GE(v, prev) << "p=" << p;
    prev = v;
  }
}

TEST(ServerThermal, OperatingWindowMatchesDesignIntent) {
  // DESIGN.md SS5: at T_ref = 75 C the steady-state fan speed spans roughly
  // 1870 rpm (u = 0.1) to 6000 rpm (u = 0.7) - the paper's 2000-6000 rpm
  // range; a 100 %-load spike cannot hold 75 C even at max fan (it needs
  // the full 8500 rpm and rides just under the 80 C limit); full load at
  // 2000 rpm violates the limit.  This pins the calibration of the
  // unpublished parameters (R_die, T_amb).
  auto m = ServerThermalModel::table1_defaults();
  const double p_low = 96.0 + 64.0 * 0.1;
  const double p_high = 96.0 + 64.0 * 0.7;
  const double p_full = 160.0;
  const double v_low = m.min_speed_for_junction_limit(p_low, 75.0);
  const double v_high = m.min_speed_for_junction_limit(p_high, 75.0);
  const double v_full = m.min_speed_for_junction_limit(p_full, 75.0);
  EXPECT_GT(v_low, 1500.0);
  EXPECT_LT(v_low, 2300.0);
  EXPECT_GT(v_high, 5200.0);
  EXPECT_LT(v_high, 6800.0);
  EXPECT_DOUBLE_EQ(v_full, 8500.0);  // saturated: spike demands max fan
  EXPECT_LT(m.steady_state_junction(p_full, 8500.0), 80.0);
  EXPECT_GT(m.steady_state_junction(160.0, 2000.0), 80.0);
}

TEST(ServerThermal, RejectsNegativeInputs) {
  auto m = ServerThermalModel::table1_defaults();
  EXPECT_THROW(m.step(-1.0, 1000.0, 0.1), std::invalid_argument);
  EXPECT_THROW(m.step(100.0, -1.0, 0.1), std::invalid_argument);
  EXPECT_THROW(m.step(100.0, 1000.0, -0.1), std::invalid_argument);
}

TEST(ServerThermal, ExactIntegrationStepSizeIndependent) {
  auto a = ServerThermalModel::table1_defaults();
  auto b = ServerThermalModel::table1_defaults();
  a.settle(96.0, 2000.0);
  b.settle(96.0, 2000.0);
  // Heat-sink trajectory is step-size independent; the die sees a
  // different (piecewise) heat-sink boundary so tiny deviations are
  // expected but must stay far below the ADC step.
  for (int i = 0; i < 600; ++i) a.step(160.0, 5000.0, 0.1);
  for (int i = 0; i < 6000; ++i) b.step(160.0, 5000.0, 0.01);
  EXPECT_NEAR(a.junction(), b.junction(), 0.05);
  EXPECT_NEAR(a.heat_sink_temperature(), b.heat_sink_temperature(), 1e-6);
}

// ---------------------------------------------------------------- JunctionMeter

TEST(JunctionMeter, ResetSetsLimitAndClears) {
  JunctionMeter m;
  m.add(90.0, 0.5);
  m.reset(70.0);
  EXPECT_EQ(m.limit_celsius(), 70.0);
  EXPECT_EQ(m.stats().count(), 0u);
  EXPECT_EQ(m.violation_time_s(), 0.0);
}

TEST(JunctionMeter, OnlySamplesStrictlyAboveTheLimitCount) {
  JunctionMeter m;
  m.reset(80.0);
  m.add(79.0, 0.05);
  m.add(80.0, 0.05);  // exactly at the limit: not a violation
  m.add(81.5, 0.05);
  m.add(82.5, 0.1);
  EXPECT_EQ(m.violation_time_s(), 0.05 + 0.1);
  EXPECT_EQ(m.stats().count(), 4u);
  EXPECT_EQ(m.stats().min(), 79.0);
  EXPECT_EQ(m.stats().max(), 82.5);
  EXPECT_DOUBLE_EQ(m.stats().mean(), (79.0 + 80.0 + 81.5 + 82.5) / 4.0);
}

TEST(JunctionMeter, RestoreRoundTrips) {
  JunctionMeter a;
  a.reset(60.0);
  for (double tj : {55.0, 61.25, 63.5, 58.0}) a.add(tj, 0.05);

  JunctionMeter b;
  b.reset(60.0);
  b.restore(a.stats().state(), a.violation_time_s());
  EXPECT_EQ(b.violation_time_s(), a.violation_time_s());
  EXPECT_EQ(b.stats().count(), a.stats().count());
  EXPECT_EQ(b.stats().mean(), a.stats().mean());
  EXPECT_EQ(b.stats().variance(), a.stats().variance());
  EXPECT_EQ(b.stats().sum(), a.stats().sum());
  EXPECT_EQ(b.stats().min(), a.stats().min());
  EXPECT_EQ(b.stats().max(), a.stats().max());
  // Both continue identically from the restored state.
  a.add(62.0, 0.05);
  b.add(62.0, 0.05);
  EXPECT_EQ(b.stats().mean(), a.stats().mean());
  EXPECT_EQ(b.violation_time_s(), a.violation_time_s());
}

}  // namespace
}  // namespace fsc
