// Rack tests: spec stamping is reproducible and slot-local, jitter stays in
// bounds, and a rack run through the coupled engine aggregates its slots
// and reports what it actually simulated.
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "coord/coupled_rack_engine.hpp"
#include "rack/rack.hpp"

namespace fsc {
namespace {

RackParams small_params(std::size_t n = 4) {
  RackParams p;
  p.num_servers = n;
  p.base_seed = 1234;
  p.sim.duration_s = 120.0;
  p.sim.initial_utilization = 0.1;
  p.workload.base.duration_s = p.sim.duration_s;
  return p;
}

TEST(Rack, RejectsEmptyRackAndNegativeJitter) {
  RackParams p = small_params(0);
  EXPECT_THROW(Rack{p}, std::invalid_argument);
  p = small_params();
  p.jitter.cpu_power_fraction = -0.1;
  EXPECT_THROW(Rack{p}, std::invalid_argument);
}

TEST(Rack, StampsRequestedNumberOfSpecs) {
  const Rack rack(small_params(6));
  EXPECT_EQ(rack.size(), 6u);
  for (std::size_t i = 0; i < rack.size(); ++i) {
    EXPECT_EQ(rack.server(i).index, i);
  }
}

TEST(Rack, SpecsAreReproducible) {
  const Rack a(small_params());
  const Rack b(small_params());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.server(i).seed, b.server(i).seed);
    EXPECT_EQ(a.server(i).server.thermal.params().ambient_celsius,
              b.server(i).server.thermal.params().ambient_celsius);
    EXPECT_EQ(a.server(i).workload.base.phase_s, b.server(i).workload.base.phase_s);
  }
}

TEST(Rack, SlotSpecIndependentOfRackSize) {
  // Server i's spec depends only on (base seed, i), not on how many other
  // servers exist — growing a rack never reshuffles existing machines.
  const Rack small(small_params(2));
  const Rack large(small_params(8));
  for (std::size_t i = 0; i < small.size(); ++i) {
    EXPECT_EQ(small.server(i).seed, large.server(i).seed);
    EXPECT_EQ(small.server(i).server.thermal.params().ambient_celsius,
              large.server(i).server.thermal.params().ambient_celsius);
  }
}

TEST(Rack, ServersAreHeterogeneousWithinBounds) {
  RackParams p = small_params(16);
  const Rack rack(p);
  const double nominal_ambient = p.server.thermal.params().ambient_celsius;
  const double nominal_dyn = p.server.cpu_power.dynamic_power();
  bool any_differs = false;
  for (const RackServerSpec& spec : rack.servers()) {
    const double ambient = spec.server.thermal.params().ambient_celsius;
    EXPECT_LE(std::fabs(ambient - nominal_ambient),
              p.jitter.ambient_delta_celsius + 1e-12);
    const double dyn_ratio = spec.server.cpu_power.dynamic_power() / nominal_dyn;
    EXPECT_LE(std::fabs(dyn_ratio - 1.0), p.jitter.cpu_power_fraction + 1e-12);
    EXPECT_GE(spec.workload.base.phase_s, 0.0);
    EXPECT_LE(spec.workload.base.phase_s,
              p.jitter.workload_phase_fraction * p.workload.base.period_s);
    if (ambient != nominal_ambient) any_differs = true;
  }
  EXPECT_TRUE(any_differs);
}

TEST(Rack, ZeroJitterReproducesTheTemplateExactly) {
  RackParams p = small_params();
  p.jitter = RackJitter{0.0, 0.0, 0.0, 0.0, 0.0};
  const Rack rack(p);
  for (const RackServerSpec& spec : rack.servers()) {
    EXPECT_EQ(spec.server.thermal.params().ambient_celsius,
              p.server.thermal.params().ambient_celsius);
    EXPECT_EQ(spec.server.cpu_power.dynamic_power(),
              p.server.cpu_power.dynamic_power());
    EXPECT_EQ(spec.workload.base.phase_s, 0.0);
    EXPECT_EQ(spec.workload.base.high, p.workload.base.high);
  }
}

/// The rack alone: no coordination, no plenum coupling.
CoupledRackResult run_uncoupled(const RackParams& rack, std::size_t threads) {
  CoupledRackParams p;
  p.rack = rack;
  p.plenum_enabled = false;
  return CoupledRackEngine(p, threads).run();
}

TEST(RackRun, AggregatesAllServersInSlotOrder) {
  const RackParams params = small_params();
  const CoupledRackResult result = run_uncoupled(params, 2);
  ASSERT_EQ(result.size(), params.num_servers);
  double fan_sum = 0.0;
  for (std::size_t i = 0; i < result.slots.size(); ++i) {
    EXPECT_EQ(result.slots[i].index, i);
    EXPECT_GT(result.slots[i].result.cpu_energy_joules, 0.0);
    fan_sum += result.slots[i].result.fan_energy_joules;
  }
  EXPECT_DOUBLE_EQ(result.fan_energy_joules, fan_sum);
  EXPECT_DOUBLE_EQ(result.total_energy_joules,
                   result.fan_energy_joules + result.cpu_energy_joules);
  EXPECT_EQ(result.duration_s, params.sim.duration_s);
  EXPECT_FALSE(result.to_table().empty());
}

TEST(RackRun, ReportsActualSimulatedDuration) {
  // A fractional duration rounds up to whole CPU periods inside the engine;
  // the rack aggregate must report what was actually simulated.
  RackParams p = small_params(2);
  p.sim.duration_s = 100.5;
  p.workload.base.duration_s = 101.0;
  const CoupledRackResult result = run_uncoupled(p, 1);
  EXPECT_EQ(result.duration_s, 101.0);
  EXPECT_EQ(result.slots[0].duration_s, 101.0);
}

TEST(RackRun, UnknownPolicyThrows) {
  RackParams p = small_params();
  p.policy = "no-such-policy";
  EXPECT_THROW(run_uncoupled(p, 2), std::out_of_range);
}

}  // namespace
}  // namespace fsc
