// fsc_simbench: the simulator's benchmark harness.
//
//   fsc_simbench --workload NAME --seed N --seconds S --trace 0|1
//                [--horizon-scale F] [--trace-out FILE.json]
//
// --trace 0 measures the end-to-end metrics: the workload's batch of
// seeded scenarios runs through Engine::run() with telemetry detached,
// repeatedly for S seconds, every run checked against a 1-thread
// reference.  --trace 1 measures the per-layer metrics (layers.hpp) and
// writes a Perfetto trace to --trace-out.  The last stdout line is one JSON
// object {"correct", "attempted", "failed", "metrics"}; the line before it
// records the seed, the team size and the run manifest.
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "layers.hpp"
#include "obs/manifest.hpp"
#include "util/json.hpp"
#include "workloads.hpp"

namespace {

using namespace simbench;

struct MetricDef {
  const char* name;
  const char* unit;
};

// The names and units BENCHMARK.json declares, in its order.
constexpr MetricDef kEndToEnd[] = {
    {"server_s_per_s", "server-s/s"}, {"setup_s", "s"},
    {"peak_rss_mib", "MiB"},          {"deadline_violation_pct", "%"},
    {"fan_energy_kj", "kJ"},          {"max_junction_c", "degC"},
};

constexpr MetricDef kPerLayer[] = {
    {"util.executor.wait_share", "ratio"},
    {"util.executor.busy_inflation", "ratio"},
    {"coord.shard_ns_per_server_substep", "ns"},
    {"coord.coordinate_round_us", "us"},
    {"coord.serial_share", "ratio"},
    {"batch.kernel_ns_per_lane_substep", "ns"},
    {"batch.kernel_share", "ratio"},
    {"batch.memo_hit_ratio", "ratio"},
    {"batch.probe_memo_hit_ratio", "ratio"},
    {"sim.begin_period_ns", "ns"},
    {"sim.step_period_ns", "ns"},
    {"room.session_setup_ms", "ms"},
    {"room.finish_round_us", "us"},
    {"room.round_ms_p50", "ms"},
    {"room.round_ms_p90", "ms"},
    {"room.round_samples", "count"},
    {"room.migrations", "count"},
    {"facility.allocate_us", "us"},
    {"facility.barrier_wait_share", "ratio"},
    {"facility.saturated_round_ratio", "ratio"},
    {"fault.armed_events", "count"},
    {"trace.overhead_ratio", "ratio"},
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  double horizon_scale = 1.0;
  std::string trace_out;
};

int usage() {
  std::cerr << "usage: fsc_simbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--horizon-scale F] [--trace-out FILE.json]\n"
               "workloads:";
  for (const Workload& w : all_workloads()) std::cerr << " " << w.name;
  std::cerr << "\n";
  return 2;
}

std::string number(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

/// The end-to-end measurement: set-up and Engine::run() timings cycling
/// through the batch for `seconds`, then the 1-thread references every
/// timed run must match (computed after the peak RSS is read, so the
/// references, run side by side, do not inflate it).
Measurement measure_end_to_end(const Workload& w, std::uint64_t seed,
                          double seconds, double horizon_scale) {
  Measurement res;
  const std::size_t team = team_size(w);
  const std::size_t k = w.scenarios;
  std::vector<std::uint64_t> seeds;
  for (std::size_t i = 0; i < k; ++i) seeds.push_back(scenario_seed(seed, i));

  const fsc::ScenarioSpec first = make_spec(w, seeds[0], team, horizon_scale);
  const double server_seconds =
      static_cast<double>(servers(first)) * first.duration_s;
  // One untimed run first, so lazy set-up and the caches are warm.
  build_engine(w, make_spec(w, seeds[0], team, horizon_scale), team)->run();
  // Each timed run is preceded by its own set-up (ScenarioSpec generation
  // -> constructed engine), so both samples interleave over the whole
  // window and a burst of host noise cannot land on one metric only.
  std::vector<double> setups;
  std::vector<double> walls;
  std::vector<std::pair<std::size_t, std::uint64_t>> digests;
  const double until = now_s() + seconds;
  for (std::size_t r = 0; walls.size() < 5 || now_s() < until; ++r) {
    const std::size_t i = r % k;
    ++res.attempted;
    try {
      const double t0 = now_s();
      const auto engine =
          build_engine(w, make_spec(w, seeds[i], team, horizon_scale), team);
      const double t1 = now_s();
      const Outcome o = engine->run();
      walls.push_back(now_s() - t1);
      setups.push_back(t1 - t0);
      digests.emplace_back(i, o.digest);
    } catch (const std::exception& e) {
      std::cerr << "fsc_simbench: run " << r << " failed: " << e.what() << "\n";
      ++res.failed;
      if (res.failed > 5 && walls.empty()) throw;
    }
  }
  auto& m = res.metrics;
  // A 1-thread run does the same work every time, so whatever slows it is
  // the host (cache and memory contention from other tenants, for
  // minutes at a time): its fastest run is the program's cost.  A team's
  // wall also holds its own barrier waits, which vary from run to run and
  // belong to the program, so there the median is the cost
  // (README.md, "Estimators").
  const double wall = team == 1 ? quantile(walls, 0.0) : median(walls);
  m["server_s_per_s"] = server_seconds / wall;
  m["setup_s"] = median(setups);
  m["peak_rss_mib"] = peak_rss_mib();

  const std::vector<Outcome> refs = reference_outcomes(w, seeds, horizon_scale);
  for (const auto& [i, digest] : digests) {
    if (digest != refs[i].digest) ++res.failed;
  }
  // The simulated outputs are deterministic per scenario; pool them over
  // the batch (means over equal-sized scenarios).
  for (const Outcome& o : refs) {
    m["deadline_violation_pct"] += o.deadline_violation_pct / k;
    m["fan_energy_kj"] += o.fan_energy_kj / k;
    m["max_junction_c"] += o.max_junction_c / k;
  }

  fsc::json::Value info = fsc::json::Value::object();
  info.set("team", fsc::json::Value::number(static_cast<double>(team)));
  info.set("servers",
           fsc::json::Value::number(static_cast<double>(servers(first))));
  info.set("horizon_s", fsc::json::Value::number(first.duration_s));
  info.set("scenarios", fsc::json::Value::number(static_cast<double>(k)));
  info.set("timed_runs",
           fsc::json::Value::number(static_cast<double>(walls.size())));
  info.set("wall_s_min", fsc::json::Value::number(quantile(walls, 0.0)));
  info.set("wall_s_p25", fsc::json::Value::number(quantile(walls, 0.25)));
  info.set("wall_s_median", fsc::json::Value::number(median(walls)));
  info.set("wall_s_p75", fsc::json::Value::number(quantile(walls, 0.75)));
  info.set("wall_s_max", fsc::json::Value::number(quantile(walls, 1.0)));
  res.info_json = info.dump();
  return res;
}

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    if (key == "--workload") {
      a.workload = val;
    } else if (key == "--seed") {
      a.seed = std::strtoull(val, nullptr, 10);
    } else if (key == "--seconds") {
      a.seconds = std::atof(val);
    } else if (key == "--trace") {
      a.trace = std::atoi(val);
    } else if (key == "--horizon-scale") {
      a.horizon_scale = std::atof(val);
    } else if (key == "--trace-out") {
      a.trace_out = val;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a.workload.empty() && a.seconds > 0.0 &&
         (a.trace == 0 || a.trace == 1) && a.horizon_scale > 0.0 &&
         a.horizon_scale <= 1.0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) return usage();
  const Workload* w = find_workload(args.workload);
  if (w == nullptr) return usage();

  Measurement res;
  try {
    res = args.trace == 0
              ? measure_end_to_end(*w, args.seed, args.seconds,
                                   args.horizon_scale)
              : measure_layers(*w, args.seed, args.seconds,
                               args.horizon_scale, args.trace_out);
  } catch (const std::exception& e) {
    std::cerr << "fsc_simbench: " << e.what() << "\n";
    return 1;
  }

  fsc::obs::RunManifest manifest = fsc::obs::RunManifest::collect();
  manifest.threads = team_size(*w);
  manifest.seed = args.seed;
  manifest.command = fsc::obs::command_line(argc, argv);
  std::cout << "{\"simbench\": {\"workload\": \"" << w->name
            << "\", \"seed\": " << args.seed << ", \"trace\": " << args.trace
            << ", \"run\": " << res.info_json << ", \"manifest\": "
            << fsc::json::Value::parse(manifest.to_json()).dump() << "}}\n";

  const std::span<const MetricDef> defs =
      args.trace == 0 ? std::span<const MetricDef>(kEndToEnd)
                      : std::span<const MetricDef>(kPerLayer);
  std::string metrics;
  for (const MetricDef& def : defs) {
    const auto it = res.metrics.find(def.name);
    if (it == res.metrics.end() || !std::isfinite(it->second)) {
      std::cerr << "fsc_simbench: metric " << def.name << " missing or not finite\n";
      return 1;
    }
    if (!metrics.empty()) metrics += ", ";
    metrics += std::string("\"") + def.name + "\": {\"value\": " +
               number(it->second) + ", \"unit\": \"" + def.unit + "\"}";
  }
  std::cout << "{\"correct\": " << (res.failed == 0 ? "true" : "false")
            << ", \"attempted\": " << res.attempted
            << ", \"failed\": " << res.failed << ", \"metrics\": {" << metrics
            << "}}" << std::endl;
  return 0;
}
