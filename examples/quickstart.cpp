// Quickstart: build the Table I server, attach the paper's full control
// stack (adaptive PID fan + deadzone capper + rule coordination + adaptive
// set point + single-step scaling), run 30 minutes of the paper's square
// workload, and print a summary.
//
// Usage: quickstart [duration_seconds]
#include <exception>
#include <iostream>

#include "cli_util.hpp"
#include "core/policy_factory.hpp"
#include "core/solutions.hpp"
#include "sim/experiment.hpp"
#include "sim/simulation.hpp"
#include "workload/synthetic.hpp"

int main(int argc, char** argv) try {
  using namespace fsc;

  double duration = 1800.0;
  if (argc > 1 && !(fsc_cli::parse_double(argv[1], duration) && duration > 0.0)) {
    throw fsc_cli::bad_positional("duration", "a positive number of seconds",
                                  argv[1]);
  }

  // 1. The plant: a Table I enterprise server with the non-ideal sensing
  //    chain (10 s lag, 1 degC quantization).
  Rng rng(2014);
  ServerParams server_params;  // all Table I defaults
  Server server(server_params, /*initial_fan_rpm=*/2000.0, rng);

  // 2. The workload: square wave 0.1 <-> 0.7 with Gaussian noise (sigma =
  //    0.04), exactly the paper's synthetic trace.
  SquareNoiseParams wl;
  wl.duration_s = duration;
  const auto workload = make_square_noise_workload(wl, rng);

  // 3. The controller: the full proposed solution (Table III last row),
  //    built through the shared policy registry.
  SolutionConfig cfg;
  const auto policy =
      PolicyFactory::instance().make("r-coord+a-tref+ss-fan", cfg);

  // 4. Run.
  SimulationParams sim;
  sim.duration_s = duration;
  sim.initial_utilization = 0.1;
  const SimulationResult result = run_simulation(server, *policy, *workload, sim);

  // 5. Report.
  std::cout << "=== quickstart: R-coord + A-Tref + SSfan on the Table I server ===\n";
  std::cout << "simulated time        : " << result.duration_s << " s\n";
  std::cout << "deadline violations   : " << result.deadline.violation_percent()
            << " %\n";
  std::cout << "fan energy            : " << result.fan_energy_joules / 1000.0
            << " kJ\n";
  std::cout << "cpu energy            : " << result.cpu_energy_joules / 1000.0
            << " kJ\n";
  std::cout << "mean junction temp    : " << result.junction_stats.mean()
            << " degC\n";
  std::cout << "max junction temp     : " << result.junction_stats.max()
            << " degC\n";
  std::cout << "time above 80 degC    : "
            << 100.0 * result.thermal_violation_fraction << " %\n";
  std::cout << "mean fan speed        : " << result.fan_speed_stats.mean()
            << " rpm\n";
  return 0;
} catch (const std::exception& e) {
  std::cerr << "quickstart: " << e.what() << "\n";
  return 1;
}
