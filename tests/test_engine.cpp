// SimulationEngine tests: the compatibility wrapper must reproduce the
// pre-refactor monolithic loop exactly, and sinks must compose.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "core/policy_factory.hpp"
#include "core/solutions.hpp"
#include "sim/engine.hpp"
#include "sim/instrumentation.hpp"
#include "sim/simulation.hpp"
#include "util/units.hpp"
#include "workload/synthetic.hpp"

namespace fsc {
namespace {

/// The pre-refactor `run_simulation` loop, kept verbatim as the golden
/// reference: the wrapper over SimulationEngine must produce byte-identical
/// traces and statistics.
SimulationResult reference_run_simulation(Server& server, DtmPolicy& policy,
                                          const Workload& workload,
                                          const SimulationParams& params) {
  require(params.physics_dt_s > 0.0, "run_simulation: physics dt must be > 0");
  require(params.cpu_period_s >= params.physics_dt_s,
          "run_simulation: cpu period must be >= physics dt");
  require(params.duration_s > 0.0, "run_simulation: duration must be > 0");

  SimulationResult result;
  policy.reset();
  server.reset_energy();
  server.settle(params.initial_utilization, server.fan_speed_commanded());

  const long physics_per_period =
      std::lround(params.cpu_period_s / params.physics_dt_s);
  const long periods =
      static_cast<long>(std::ceil(params.duration_s / params.cpu_period_s));
  const long record_every = std::max<long>(
      1, std::lround(params.record_period_s / params.cpu_period_s));

  double cap = 1.0;
  double fan_cmd = server.fan_speed_commanded();
  double prev_demand = params.initial_utilization;
  double prev_executed = params.initial_utilization;
  double last_degradation = 0.0;
  double violation_time = 0.0;

  for (long k = 0; k < periods; ++k) {
    const double t = static_cast<double>(k) * params.cpu_period_s;

    DtmInputs in;
    in.time_s = t;
    in.measured_temp = server.measured_temp();
    in.quantization_step = server.quantization_step();
    in.fan_speed_cmd = fan_cmd;
    in.fan_speed_actual = server.fan_speed_actual();
    in.cpu_cap = cap;
    in.demand = prev_demand;
    in.executed = prev_executed;
    in.last_degradation = last_degradation;
    const DtmOutputs out = policy.step(in);
    fan_cmd = out.fan_speed_cmd;
    cap = clamp_utilization(out.cpu_cap);
    server.command_fan(fan_cmd);

    const double demand = workload.demand(t);
    const double executed = std::min(demand, cap);
    result.deadline.record(demand, cap);
    last_degradation = std::max(0.0, demand - cap);
    result.fan_speed_stats.add(fan_cmd);

    if (params.record_trace && k % record_every == 0) {
      TraceRecord rec;
      rec.time_s = t;
      rec.demand = demand;
      rec.cap = cap;
      rec.executed = executed;
      rec.fan_cmd_rpm = fan_cmd;
      rec.fan_actual_rpm = server.fan_speed_actual();
      rec.junction_celsius = server.true_junction();
      rec.heat_sink_celsius = server.true_heat_sink();
      rec.measured_celsius = server.measured_temp();
      rec.reference_celsius = policy.reference_temp();
      rec.cpu_watts = server.cpu_power_now(executed);
      rec.fan_watts = server.fan_power_now();
      result.trace.push_back(rec);
    }

    for (long i = 0; i < physics_per_period; ++i) {
      server.step(executed, params.physics_dt_s);
      result.junction_stats.add(server.true_junction());
      if (server.true_junction() > params.thermal_limit_celsius) {
        violation_time += params.physics_dt_s;
      }
    }

    prev_demand = demand;
    prev_executed = executed;
  }

  result.duration_s = static_cast<double>(periods) * params.cpu_period_s;
  result.fan_energy_joules = server.energy().fan_energy();
  result.cpu_energy_joules = server.energy().cpu_energy();
  result.thermal_violation_fraction = violation_time / result.duration_s;
  return result;
}

/// The quickstart scenario (examples/quickstart.cpp): Table I server, the
/// paper's square + noise workload, the full proposed solution.  The
/// callback receives freshly-seeded objects so both implementations see
/// identical RNG streams.
template <typename RunFn>
SimulationResult quickstart_run(RunFn&& run_fn, double duration_s = 1800.0) {
  Rng rng(2014);
  Server server(ServerParams{}, /*initial_fan_rpm=*/2000.0, rng);
  SquareNoiseParams wl;
  wl.duration_s = duration_s;
  const auto workload = make_square_noise_workload(wl, rng);
  SolutionConfig cfg;
  const auto policy =
      PolicyFactory::instance().make("r-coord+a-tref+ss-fan", cfg);
  SimulationParams sim;
  sim.duration_s = duration_s;
  sim.initial_utilization = 0.1;
  return run_fn(server, *policy, *workload, sim);
}

TEST(SimulationEngine, WrapperTraceIsByteIdenticalToPreRefactorLoop) {
  const SimulationResult expected = quickstart_run(reference_run_simulation);
  const SimulationResult actual = quickstart_run(run_simulation);

  ASSERT_EQ(actual.trace.size(), expected.trace.size());
  ASSERT_FALSE(actual.trace.empty());
  EXPECT_EQ(trace_to_csv(actual.trace), trace_to_csv(expected.trace));
  // Byte-for-byte on the raw doubles too, not just the CSV rendering.
  for (std::size_t i = 0; i < actual.trace.size(); ++i) {
    EXPECT_EQ(actual.trace[i].junction_celsius, expected.trace[i].junction_celsius);
    EXPECT_EQ(actual.trace[i].fan_cmd_rpm, expected.trace[i].fan_cmd_rpm);
    EXPECT_EQ(actual.trace[i].cap, expected.trace[i].cap);
  }
}

TEST(SimulationEngine, WrapperStatisticsMatchPreRefactorLoop) {
  const SimulationResult expected = quickstart_run(reference_run_simulation);
  const SimulationResult actual = quickstart_run(run_simulation);

  EXPECT_EQ(actual.duration_s, expected.duration_s);
  EXPECT_EQ(actual.fan_energy_joules, expected.fan_energy_joules);
  EXPECT_EQ(actual.cpu_energy_joules, expected.cpu_energy_joules);
  EXPECT_EQ(actual.thermal_violation_fraction, expected.thermal_violation_fraction);
  EXPECT_EQ(actual.deadline.periods(), expected.deadline.periods());
  EXPECT_EQ(actual.deadline.violations(), expected.deadline.violations());
  EXPECT_EQ(actual.junction_stats.mean(), expected.junction_stats.mean());
  EXPECT_EQ(actual.junction_stats.max(), expected.junction_stats.max());
  EXPECT_EQ(actual.fan_speed_stats.mean(), expected.fan_speed_stats.mean());
}

TEST(SimulationEngine, SinksComposeIndependently) {
  // An engine with only the energy sink reproduces the energy numbers of
  // the fully-instrumented wrapper; nothing forces the full sink set.
  const SimulationResult full = quickstart_run(run_simulation, 600.0);

  const SimulationResult lean = quickstart_run(
      [](Server& server, DtmPolicy& policy, const Workload& workload,
         const SimulationParams& params) {
        SimulationEngine engine(params);
        EnergyAccumulatorSink energy;
        engine.add_sink(&energy);
        const double duration = engine.run(server, policy, workload);
        SimulationResult r;
        r.duration_s = duration;
        r.fan_energy_joules = energy.fan_energy_joules();
        r.cpu_energy_joules = energy.cpu_energy_joules();
        return r;
      },
      600.0);

  EXPECT_EQ(lean.fan_energy_joules, full.fan_energy_joules);
  EXPECT_EQ(lean.cpu_energy_joules, full.cpu_energy_joules);
  EXPECT_EQ(lean.duration_s, full.duration_s);
  EXPECT_TRUE(lean.trace.empty());
}

TEST(SimulationEngine, RecordTraceOffPublishesNoRecords) {
  const SimulationResult r = quickstart_run(
      [](Server& server, DtmPolicy& policy, const Workload& workload,
         SimulationParams params) {
        params.record_trace = false;
        return run_simulation(server, policy, workload, params);
      },
      300.0);
  EXPECT_TRUE(r.trace.empty());
  EXPECT_GT(r.deadline.periods(), 0u);  // other sinks still ran
}

TEST(SimulationEngine, ValidatesParams) {
  SimulationParams p;
  p.physics_dt_s = 0.0;
  EXPECT_THROW(SimulationEngine{p}, std::invalid_argument);
  p = SimulationParams{};
  p.cpu_period_s = 0.01;  // below the physics step
  EXPECT_THROW(SimulationEngine{p}, std::invalid_argument);
  p = SimulationParams{};
  p.duration_s = 0.0;
  EXPECT_THROW(SimulationEngine{p}, std::invalid_argument);
  // The period count must fit in a long before the cast, not after.
  for (double duration_s : {1e300, std::numeric_limits<double>::infinity()}) {
    p = SimulationParams{};
    p.duration_s = duration_s;
    EXPECT_THROW(SimulationEngine{p}, std::invalid_argument) << duration_s;
  }
}

TEST(SimulationEngine, RejectsNullSink) {
  SimulationEngine engine{SimulationParams{}};
  EXPECT_THROW(engine.add_sink(nullptr), std::invalid_argument);
}

TEST(SimulationEngineSession, ManualSteppingMatchesRun) {
  // Chunked stepping through the Session (as the coupled rack engine does)
  // must reproduce run() exactly when no directives are applied.
  const SimulationResult via_run = quickstart_run(run_simulation, 600.0);
  const SimulationResult via_session = quickstart_run(
      [](Server& server, DtmPolicy& policy, const Workload& workload,
         const SimulationParams& params) {
        SimulationEngine engine(params);
        TraceRecorderSink trace;
        EnergyAccumulatorSink energy;
        engine.add_sink(&trace);
        engine.add_sink(&energy);
        SimulationEngine::Session session(engine, server, policy, workload);
        while (!session.done()) {
          for (int i = 0; i < 30 && !session.done(); ++i) session.step_period();
        }
        SimulationResult r;
        r.duration_s = session.finish();
        r.trace = trace.take_trace();
        r.fan_energy_joules = energy.fan_energy_joules();
        r.cpu_energy_joules = energy.cpu_energy_joules();
        return r;
      },
      600.0);
  EXPECT_EQ(via_session.duration_s, via_run.duration_s);
  EXPECT_EQ(via_session.fan_energy_joules, via_run.fan_energy_joules);
  EXPECT_EQ(via_session.cpu_energy_joules, via_run.cpu_energy_joules);
  ASSERT_EQ(via_session.trace.size(), via_run.trace.size());
  EXPECT_EQ(trace_to_csv(via_session.trace), trace_to_csv(via_run.trace));
}

TEST(SimulationEngineSession, CapLimitClampsThePolicyCap) {
  Rng rng(3);
  Server server = Server::table1_defaults(rng);
  SolutionConfig cfg;
  const auto policy = PolicyFactory::instance().make("uncoordinated", cfg);
  const ConstantWorkload workload(0.9);
  SimulationParams params;
  params.duration_s = 10.0;
  params.record_trace = false;
  SimulationEngine engine(params);
  SimulationEngine::Session session(engine, server, *policy, workload);
  session.set_cap_limit(0.3);
  while (!session.done()) session.step_period();
  EXPECT_DOUBLE_EQ(session.applied_cap(), 0.3);
  EXPECT_DOUBLE_EQ(session.last_executed(), 0.3);
  EXPECT_DOUBLE_EQ(session.last_demand(), 0.9);
  // The window means saw every period at the clamped level.
  EXPECT_DOUBLE_EQ(session.window_mean_executed(), 0.3);
  EXPECT_DOUBLE_EQ(session.window_mean_demand(), 0.9);
  session.finish();
  EXPECT_THROW(session.set_cap_limit(1.5), std::invalid_argument);
}

TEST(SimulationEngineSession, FanOverrideReplacesThePolicyCommand) {
  Rng rng(3);
  Server server = Server::table1_defaults(rng);
  SolutionConfig cfg;
  const auto policy = PolicyFactory::instance().make("r-coord", cfg);
  const ConstantWorkload workload(0.5);
  SimulationParams params;
  params.duration_s = 5.0;
  params.record_trace = false;
  SimulationEngine engine(params);
  SimulationEngine::Session session(engine, server, *policy, workload);
  session.set_fan_override(4321.0);
  session.step_period();
  EXPECT_DOUBLE_EQ(session.applied_fan_cmd(), 4321.0);
  EXPECT_DOUBLE_EQ(server.fan_speed_commanded(), 4321.0);
  // The policy's own request is preserved for arbitration.
  EXPECT_NE(session.last_requested_fan(), 4321.0);
  session.clear_fan_override();
  session.step_period();
  EXPECT_EQ(session.applied_fan_cmd(), session.last_requested_fan());
  EXPECT_THROW(session.set_fan_override(-1.0), std::invalid_argument);
}

TEST(SimulationEngineSession, OverrideDoesNotPoisonThePolicysOwnRequest) {
  // Regression: policies hold their command between fan instants by
  // echoing fan_speed_cmd back.  If the engine fed them the override, the
  // slot's genuine request would be overwritten by the zone speed and
  // arbitration could never lower a zone again (one-way ratchet).  Under a
  // light constant load with a max-speed override in force across several
  // fan instants, the policy's own request must stay far below the
  // override.
  Rng rng(11);
  Server server = Server::table1_defaults(rng);
  SolutionConfig cfg;
  const auto policy = PolicyFactory::instance().make("r-coord", cfg);
  const ConstantWorkload workload(0.1);
  SimulationParams params;
  params.duration_s = 120.0;  // covers four 30 s fan instants
  params.record_trace = false;
  SimulationEngine engine(params);
  SimulationEngine::Session session(engine, server, *policy, workload);
  session.set_fan_override(8500.0);
  while (!session.done()) session.step_period();
  session.finish();
  EXPECT_DOUBLE_EQ(session.applied_fan_cmd(), 8500.0);
  EXPECT_LT(session.last_requested_fan(), 8000.0);
}

TEST(SimulationEngineSession, WindowResetsOnDemand) {
  Rng rng(4);
  Server server = Server::table1_defaults(rng);
  SolutionConfig cfg;
  const auto policy = PolicyFactory::instance().make("uncoordinated", cfg);
  const ConstantWorkload workload(0.4);
  SimulationParams params;
  params.duration_s = 6.0;
  params.record_trace = false;
  SimulationEngine engine(params);
  SimulationEngine::Session session(engine, server, *policy, workload);
  session.step_period();
  session.step_period();
  EXPECT_DOUBLE_EQ(session.window_mean_demand(), 0.4);
  session.reset_window();
  // Empty window falls back to the last period's values.
  EXPECT_DOUBLE_EQ(session.window_mean_demand(), 0.4);
  EXPECT_DOUBLE_EQ(session.window_mean_executed(), session.last_executed());
}

}  // namespace
}  // namespace fsc
