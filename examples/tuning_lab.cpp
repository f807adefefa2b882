// tuning_lab: run the Ziegler-Nichols closed-loop tuning procedure
// (paper §IV-A, Eqns. 5-7) against the simulated Table I plant at several
// fan-speed operating regions and print the resulting gain schedule.
//
// This regenerates the constants checked into
// SolutionConfig::default_gain_schedule() from first principles.
//
// Usage: tuning_lab [region_rpm ...]   (default: 2000 6000)
#include <exception>
#include <iomanip>
#include <iostream>
#include <vector>

#include "cli_util.hpp"
#include "sim/zn_harness.hpp"

int main(int argc, char** argv) try {
  using namespace fsc;

  std::vector<double> regions;
  for (int i = 1; i < argc; ++i) {
    double rpm = 0.0;
    if (!(fsc_cli::parse_double(argv[i], rpm) && rpm > 0.0)) {
      throw fsc_cli::bad_positional("region_rpm", "a positive fan speed in rpm",
                                    argv[i]);
    }
    regions.push_back(rpm);
  }
  if (regions.empty()) regions = {2000.0, 6000.0};

  ServerParams server;
  ZnHarnessParams harness;
  ZnSearchParams search;
  search.kp_initial = 10.0;

  std::cout << "=== Ziegler-Nichols closed-loop tuning on the Table I plant ===\n";
  std::cout << "(10 s sensor lag in the loop; reference " << harness.reference_celsius
            << " degC; fan period " << harness.fan_period_s << " s)\n\n";
  std::cout << std::left << std::setw(12) << "region" << std::setw(12) << "u_op"
            << std::setw(12) << "Ku" << std::setw(12) << "Pu(s)" << std::setw(12)
            << "KP" << std::setw(12) << "KI" << std::setw(12) << "KD" << "\n";

  for (double rpm : regions) {
    const double u_op = operating_utilization(server, rpm, harness.reference_celsius);
    const auto experiment = make_region_experiment(server, rpm, harness);
    ZnSearchParams sp = search;
    sp.sample_period_s = harness.fan_period_s;
    const auto ug = find_ultimate_gain(experiment, sp);
    if (!ug) {
      std::cout << std::left << std::setw(12) << rpm << "no ultimate gain found\n";
      continue;
    }
    // Same post-processing as tune_pid: discretize at the fan period, then
    // set the first-step response to 0.45 Ku (deadbeat for a 1 degC ADC).
    const auto gains = normalize_first_step(
        discretize_gains(ziegler_nichols_gains(*ug), harness.fan_period_s),
        0.45 * ug->ku);
    std::cout << std::left << std::fixed << std::setprecision(3) << std::setw(12)
              << rpm << std::setw(12) << u_op << std::setw(12) << ug->ku
              << std::setw(12) << ug->pu_seconds << std::setw(12) << gains.kp
              << std::setw(12) << gains.ki << std::setw(12) << gains.kd << "\n";
    std::cout.unsetf(std::ios::fixed);
  }

  std::cout << "\nPaste into SolutionConfig::default_gain_schedule() as\n"
               "GainRegion{<region>, PidGains{KP, KI, KD}} entries.\n";
  return 0;
} catch (const std::exception& e) {
  std::cerr << "tuning_lab: " << e.what() << "\n";
  return 1;
}
