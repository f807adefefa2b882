// datacenter_day: a 24-hour diurnal workload on the full proposed control
// stack, compared hour-by-hour against a static "always fast" fan policy
// (the conservative firmware the paper says vendors ship).
//
// Demonstrates the energy argument of the paper at day scale: the
// variable-speed controller tracks the diurnal load curve, spending fan
// power only when the workload needs cooling.
//
// Usage: datacenter_day [seed]
#include <exception>
#include <iomanip>
#include <iostream>
#include <memory>

#include "cli_util.hpp"
#include "core/policy_factory.hpp"
#include "core/solutions.hpp"
#include "sim/simulation.hpp"
#include "workload/synthetic.hpp"

int main(int argc, char** argv) try {
  using namespace fsc;
  std::uint64_t seed = 99;
  if (argc > 1 && !fsc_cli::parse_unsigned(argv[1], seed)) {
    throw fsc_cli::bad_positional("seed", "a non-negative integer", argv[1]);
  }

  Rng rng(seed);
  DiurnalParams wl;  // trough 0.15 overnight, peak 0.85 mid-day
  const auto workload = make_diurnal_workload(wl, rng);

  SimulationParams sim;
  sim.duration_s = wl.duration_s;
  sim.initial_utilization = wl.base;
  sim.record_period_s = 60.0;

  // Run the proposed stack.
  SolutionConfig cfg;
  const auto policy = make_solution(SolutionKind::kRuleAdaptiveTrefSingleStep, cfg);
  Server server(ServerParams{}, cfg.initial_fan_rpm, rng);
  const auto proposed = run_simulation(server, *policy, *workload, sim);

  // Run the static-fan comparison (from the policy registry: fan pinned at
  // the worst-case-safe speed) on an identical plant and workload.  The
  // plant starts at the same speed the policy will command.
  Rng rng2(seed);
  const auto workload2 = make_diurnal_workload(wl, rng2);
  const auto static_policy = PolicyFactory::instance().make("static-fan", cfg);
  const double static_rpm = static_policy->step(DtmInputs{}).fan_speed_cmd;
  static_policy->reset();
  Server server2(ServerParams{}, static_rpm, rng2);
  const auto fixed = run_simulation(server2, *static_policy, *workload2, sim);

  std::cout << "=== datacenter_day: 24 h diurnal load, proposed stack vs "
               "static "
            << std::fixed << std::setprecision(0) << static_rpm
            << " rpm (worst-case-safe) fan ===\n\n";
  std::cout.unsetf(std::ios::fixed);
  std::cout << "hour  load   fan(rpm)  Tj(degC)  Tref\n";
  for (std::size_t i = 0; i < proposed.trace.size(); i += 60) {
    const auto& rec = proposed.trace[i];
    std::cout << std::fixed << std::setprecision(0) << std::setw(4)
              << rec.time_s / 3600.0 << std::setprecision(2) << std::setw(7)
              << rec.demand << std::setprecision(0) << std::setw(10)
              << rec.fan_cmd_rpm << std::setprecision(1) << std::setw(9)
              << rec.junction_celsius << std::setw(7) << rec.reference_celsius
              << "\n";
  }
  std::cout.unsetf(std::ios::fixed);

  const double saved = fixed.fan_energy_joules - proposed.fan_energy_joules;
  std::cout << "\n--- day summary ---\n" << std::setprecision(4);
  std::cout << "proposed: fan energy " << proposed.fan_energy_joules / 1000.0
            << " kJ, max Tj " << proposed.junction_stats.max()
            << " degC, deadline violations "
            << proposed.deadline.violation_percent() << " %\n";
  std::cout << "static  : fan energy " << fixed.fan_energy_joules / 1000.0
            << " kJ, max Tj " << fixed.junction_stats.max() << " degC\n";
  std::cout << "fan energy saved: " << 100.0 * saved / fixed.fan_energy_joules
            << " % (" << saved / 1000.0 << " kJ per server-day)\n";
  return 0;
} catch (const std::exception& e) {
  std::cerr << "datacenter_day: " << e.what() << "\n";
  return 1;
}
