// The benchmark's workloads: seeded ScenarioSpecs for three tiers, the
// engine each one builds, and the checked outcome of one run.
//
// A workload is a closed batch of `scenarios` independent scenarios, each
// drawn from its own seed derived from the --seed argument.  The engines
// receive only the generated ScenarioSpec; nothing else about the seed
// reaches them.  One batch (not one scenario) is the unit the simulated
// metrics are pooled over, because a single seeded scenario's deadline
// violations are dominated by a handful of hot slots.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "sim/scenario.hpp"

namespace simbench {

enum class Tier { kRack, kRoom, kFacility };

struct Workload {
  const char* name;
  Tier tier;
  bool all_cores;        ///< team = host cores (rooms for the facility)
  double horizon_s;      ///< simulated seconds per scenario
  std::size_t scenarios; ///< scenarios per batch
};

/// The workload named `name`, or null.
const Workload* find_workload(const std::string& name);
/// Every workload, in BENCHMARK.json order.
const std::vector<Workload>& all_workloads();

/// Seed of scenario `i` of the batch drawn from `seed`.
std::uint64_t scenario_seed(std::uint64_t seed, std::size_t i);

/// The ScenarioSpec of one scenario: fleet shape, policies, plant and, for
/// the facility, a FaultScenarioGenerator plan drawn from `seed`.
/// `horizon_scale` shortens the horizon (self-test); 1 = the real one.
fsc::ScenarioSpec make_spec(const Workload& w, std::uint64_t seed,
                            std::size_t threads, double horizon_scale);

/// The team size the workload's measured runs use on this host.
std::size_t team_size(const Workload& w);

/// Servers simulated by one scenario of the workload.
std::size_t servers(const fsc::ScenarioSpec& spec);

/// The simulated outputs of one run plus a digest of its whole report.
struct Outcome {
  std::uint64_t digest = 0;  ///< FNV-1a of the manifest-free report(s)
  double deadline_violation_pct = 0.0;
  double fan_energy_kj = 0.0;
  double max_junction_c = 0.0;   ///< hottest junction of the run
  std::size_t migrations = 0;    ///< room migration events (room tiers)
  std::size_t facility_rounds = 0;
  std::size_t saturated_rounds = 0;
};

/// A constructed engine of the spec's tier, ready to run().
class Engine {
 public:
  virtual ~Engine() = default;
  virtual Outcome run() const = 0;
};

/// ScenarioSpec -> constructed engine at `threads` (build_rack/room/
/// facility plus the engine constructor).
std::unique_ptr<Engine> build_engine(const Workload& w,
                                     const fsc::ScenarioSpec& spec,
                                     std::size_t threads);

/// The 1-thread reference outcome of each scenario seed, computed side by
/// side on the host's cores.  Rethrows the first failure.
std::vector<Outcome> reference_outcomes(const Workload& w,
                                        const std::vector<std::uint64_t>& seeds,
                                        double horizon_scale);

/// Outcome extraction shared with the traced runs, which drive sessions
/// themselves and end with the same result types.
Outcome outcome_of(const fsc::CoupledRackResult& r);
Outcome outcome_of(const fsc::RoomResult& r);
Outcome outcome_of(const fsc::FacilityResult& r);

/// What one harness invocation measured.
struct Measurement {
  std::map<std::string, double> metrics;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  /// One-line JSON object of context (team, batch, probe calibration).
  std::string info_json;
};

/// Steady-clock seconds / nanoseconds (obs::monotonic_ns, so spans and
/// timings share one clock).
double now_s();
std::int64_t now_ns();

double median(std::vector<double> v);
/// q-quantile by linear interpolation between closest ranks.
double quantile(std::vector<double> v, double q);

/// Peak resident set of this process in MiB.
double peak_rss_mib();

}  // namespace simbench
