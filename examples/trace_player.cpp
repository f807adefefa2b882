// trace_player: replay a CSV utilization trace (columns: time,utilization)
// through any of the five Table III control solutions, writing the full
// simulation trace to a CSV for external plotting.
//
// Usage:
//   trace_player <input_trace.csv> [solution 0-4] [output.csv]
//
// With no arguments, a demonstration trace is generated, played, and both
// files are written to the current directory.
#include <exception>
#include <fstream>
#include <iostream>
#include <string>

#include "cli_util.hpp"
#include "core/solutions.hpp"
#include "sim/simulation.hpp"
#include "workload/synthetic.hpp"
#include "workload/trace_io.hpp"

int main(int argc, char** argv) try {
  using namespace fsc;

  std::string input = argc > 1 ? argv[1] : "";
  std::size_t solution_idx = 4;
  const std::string output = argc > 3 ? argv[3] : "trace_player_output.csv";

  if (argc > 2 && !(fsc_cli::parse_unsigned(argv[2], solution_idx) &&
                    solution_idx < all_solutions().size())) {
    for (SolutionKind k : all_solutions()) {
      std::cerr << "  " << static_cast<int>(k) << " = " << to_string(k) << "\n";
    }
    throw fsc_cli::bad_positional("solution", "an index 0..4 (listed above)",
                                  argv[2]);
  }

  Rng rng(7);
  std::unique_ptr<SampledWorkload> workload;
  if (input.empty()) {
    // Generate a demonstration trace: the paper's square + noise + spikes.
    SpikyParams p;
    p.base.duration_s = 1800.0;
    p.base.period_s = 400.0;
    workload = make_spiky_workload(p, rng);
    input = "trace_player_input.csv";
    save_workload(*workload, p.base.duration_s, 1.0, input);
    std::cout << "generated demonstration trace: " << input << "\n";
  } else {
    try {
      workload = load_workload(input);
    } catch (const std::exception& e) {
      std::cerr << "cannot load trace: " << e.what() << "\n";
      return 1;
    }
  }

  const auto kind = all_solutions()[solution_idx];
  SolutionConfig cfg;
  const auto policy = make_solution(kind, cfg);
  Server server(ServerParams{}, cfg.initial_fan_rpm, rng);

  SimulationParams sim;
  sim.duration_s = workload->duration();
  sim.initial_utilization = workload->demand(0.0);
  const auto result = run_simulation(server, *policy, *workload, sim);

  std::ofstream out(output);
  if (!out) {
    std::cerr << "cannot open output: " << output << "\n";
    return 1;
  }
  out << trace_to_csv(result.trace);

  std::cout << "=== trace_player ===\n";
  std::cout << "input trace       : " << input << " (" << workload->size()
            << " samples, " << workload->duration() << " s)\n";
  std::cout << "solution          : " << to_string(kind) << "\n";
  std::cout << "output            : " << output << " (" << result.trace.size()
            << " rows)\n";
  std::cout << "deadline violation: " << result.deadline.violation_percent()
            << " %\n";
  std::cout << "fan energy        : " << result.fan_energy_joules / 1000.0
            << " kJ\n";
  std::cout << "max junction      : " << result.junction_stats.max() << " degC\n";
  return 0;
} catch (const std::exception& e) {
  std::cerr << "trace_player: " << e.what() << "\n";
  return 1;
}
