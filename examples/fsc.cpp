// fsc: the one command-line driver, at rack, room and facility scale.
//
// Every scenario flag parses into ONE fsc::ScenarioSpec, and the tier
// follows the spec:
//
//   rooms > 0   facility  K rooms against one shared cooling plant, synced
//                         only at facility barriers (spec.build_facility)
//   racks > 1   room      K racks under a RoomScheduler with cross-rack
//                         hot-aisle recirculation (spec.build_room)
//   otherwise   rack      N servers as one coupled plant under a
//                         RackCoordinator (spec.build_rack)
//
// The run writes a JSON report (its first key the run manifest) and,
// with --csv, a per-slot, per-rack or per-room CSV.  Any flag invocation
// has an exact JSON transcription: `--scenario run.json` replays it, and
// flags after --scenario override the file's values.
//
// Usage:
//   fsc [--scenario FILE.json] [--rooms K] [--racks K] [--slots N]
//       [--seed S] [--duration SECS] [--dtm POLICY] [--coordinator COORD]
//       [--scheduler SCHED] [--rack-budget W] [--room-budget W]
//       [--step FRAC] [--zone K] [--no-plenum] [--no-cross-plenum]
//       [--threads N] [--traces DIR] [--trace-pack FILE.fst]
//       [--plant-watts W] [--supply-amplitude C] [--facility-period S]
//       [--trace-out FILE.json] [--metrics-out FILE] [--metrics-every N]
//       [--progress] [--out FILE.json] [--csv FILE.csv] [--list]
//
//   --scenario     ScenarioSpec JSON (src/sim/scenario.hpp); its "faults"
//                  array schedules hardware faults, injected at barriers
//   --coordinator  per-rack RackCoordinator (default "independent");
//                  --list shows every dtm policy, coordinator and scheduler
//   --scheduler    room scheduler (default "static"; room and facility)
//   --rack-budget  rack CPU power budget in watts (< 0 = scenario default)
//   --room-budget  room CPU power budget in watts (< 0 = scenario default)
//   --step         fraction of a hot rack's load moved per migration
//   --threads      team size at every tier (default: all cores); any
//                  value gives the same report apart from the manifest
//   --plant-watts  shared cooling capacity; < 0 (default) = unconstrained
//   --supply-amplitude  diurnal supply-air peak offset in celsius
//   --facility-period   seconds between facility barriers, a whole multiple
//                  of the coordination period (<= 0 = every room round)
//   --trace-out    Chrome/Perfetto trace-event JSON of the run; telemetry
//                  never perturbs the simulation
//   --metrics-out  periodic time-series (".json" = JSON array, else CSV),
//                  sampled every --metrics-every rounds
//   --progress     heartbeat on stderr (rounds/s, ETA, live violations)
#include <chrono>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "cli_util.hpp"

#include "coord/coupled_rack_engine.hpp"
#include "core/policy_factory.hpp"
#include "facility/facility_engine.hpp"
#include "room/room_engine.hpp"
#include "sim/scenario.hpp"

namespace {

using fsc_cli::ScenarioFlag;

int usage(const char* argv0) {
  std::cerr
      << "usage: " << argv0
      << " [--scenario FILE.json] [--rooms K] [--racks K] [--slots N]\n"
         "       [--seed S] [--duration SECS] [--dtm POLICY] "
         "[--coordinator COORD]\n"
         "       [--scheduler SCHED] [--rack-budget W] [--room-budget W]\n"
         "       [--step FRAC] [--zone K] [--no-plenum] [--no-cross-plenum]\n"
         "       [--threads N] [--traces DIR] [--trace-pack FILE.fst]\n"
         "       [--plant-watts W] [--supply-amplitude C] "
         "[--facility-period S]\n"
         "       [--trace-out FILE.json] [--metrics-out FILE] "
         "[--metrics-every N]\n"
         "       [--progress] [--out FILE.json] [--csv FILE.csv] [--list]\n";
  return 1;
}

struct Outputs {
  std::string report = "fsc_report.json";
  std::string csv;
};

/// Run `engine`, then print `banner` and the result table and write the
/// reports.  Every tier's result has the same to_table / to_json(manifest)
/// / to_csv surface.
template <typename Engine>
int run_and_report(const Engine& engine, const std::string& banner,
                   const fsc::ScenarioSpec& spec, const Outputs& out,
                   fsc_cli::ObsCli& obs, int argc, char** argv) {
  const auto wall_t0 = std::chrono::steady_clock::now();
  const auto result = engine.run();
  const double wall_s = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - wall_t0)
                            .count();

  fsc::obs::RunManifest manifest = fsc::obs::RunManifest::collect();
  manifest.threads = engine.threads();
  manifest.seed = spec.seed;
  manifest.command = fsc::obs::command_line(argc, argv);
  manifest.wall_time_s = wall_s;
  const std::string manifest_json = manifest.to_json(4);

  std::cout << banner << result.to_table();
  std::ofstream report(out.report);
  if (!report) {
    std::cerr << "cannot write " << out.report << "\n";
    return 1;
  }
  report << result.to_json(manifest_json);
  std::cout << "\nreport written to " << out.report << "\n";
  obs.finish(manifest_json);
  if (!out.csv.empty()) {
    std::ofstream csv(out.csv);
    if (!csv) {
      std::cerr << "cannot write " << out.csv << "\n";
      return 1;
    }
    csv << result.to_csv();
    std::cout << "CSV written to " << out.csv << "\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace fsc;

  ScenarioSpec spec;
  Outputs out;
  fsc_cli::ObsCli obs;

  for (int i = 1; i < argc; ++i) {
    switch (fsc_cli::consume_scenario_flag(spec, argc, argv, i)) {
      case ScenarioFlag::kConsumed: continue;
      case ScenarioFlag::kError: return usage(argv[0]);
      case ScenarioFlag::kNotMine: break;
    }
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--list" || arg == "--list-policies") {
      fsc_cli::print_policy_listing(std::cout);
      return 0;
    } else if (arg == "--progress") {
      obs.progress = true;
    } else if (!has_value) {
      std::cerr << "unknown argument or missing value: '" << arg << "'\n";
      return usage(argv[0]);
    } else if (arg == "--trace-out") {
      obs.trace_path = argv[++i];
    } else if (arg == "--metrics-out") {
      obs.metrics_path = argv[++i];
    } else if (arg == "--metrics-every") {
      if (!fsc_cli::parse_positive(argv[++i], obs.metrics_every)) {
        std::cerr << arg << ": expected a positive integer, got '" << argv[i]
                  << "'\n";
        return usage(argv[0]);
      }
    } else if (arg == "--out") {
      out.report = argv[++i];
    } else if (arg == "--csv") {
      out.csv = argv[++i];
    } else {
      std::cerr << "unknown argument '" << arg << "'\n";
      return usage(argv[0]);
    }
  }

  try {
    const std::size_t threads = spec.resolve_threads();
    if (!obs.open(spec.duration_s, threads)) return 1;
    const auto& factory = PolicyFactory::instance();
    std::ostringstream banner;

    if (spec.rooms > 0) {
      FacilityParams params = spec.build_facility();
      params.obs = obs.telemetry();
      banner << "=== fsc facility: " << spec.rooms << " rooms x " << spec.racks
             << " racks x " << spec.slots << " slots, " << threads
             << " thread(s) ===\n\n";
      return run_and_report(FacilityEngine(std::move(params), threads),
                            banner.str(), spec, out, obs, argc, argv);
    }
    if (spec.racks > 1) {
      RoomParams params = spec.build_room();
      params.obs = obs.telemetry();
      banner << "=== fsc room: " << spec.racks << " racks x " << spec.slots
             << " slots, scheduler '" << params.scheduler << "' ("
             << factory.describe_room_scheduler(params.scheduler) << "), "
             << threads << " thread(s) ===\n\n";
      return run_and_report(RoomEngine(std::move(params), threads),
                            banner.str(), spec, out, obs, argc, argv);
    }
    CoupledRackParams params = spec.build_rack();
    params.obs = obs.telemetry();
    banner << "=== fsc rack: " << spec.slots << " slots, coordinator '"
           << params.coordinator << "' ("
           << factory.describe_coordinator(params.coordinator) << "), "
           << threads << " thread(s) ===\n\n";
    return run_and_report(CoupledRackEngine(std::move(params), threads),
                          banner.str(), spec, out, obs, argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "fsc: " << e.what() << "\n";
    return 1;
  }
}
