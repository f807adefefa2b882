// Flag-parsing helpers for the command-line front ends.  The fsc driver
// parses every scenario flag into ONE fsc::ScenarioSpec through
// consume_scenario_flag and builds engines exclusively through
// spec.build_rack()/build_room()/build_facility() — hand-assembly of
// engine params does not belong in examples/.
//
// Numbers are parsed whole: "60s", "12kW" or "abc" is an error naming the
// flag (or positional argument), never a silently truncated value.
#pragma once

#include <charconv>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <string>

#include "core/policy_factory.hpp"
#include "obs/manifest.hpp"
#include "obs/obs.hpp"
#include "obs/progress.hpp"
#include "obs/snapshot.hpp"
#include "sim/scenario.hpp"

namespace fsc_cli {

/// Parse all of `text` (null = missing value) as a finite decimal number
/// into `out`; false on an empty value, trailing characters, or overflow.
inline bool parse_double(const char* text, double& out) {
  if (text == nullptr) return false;
  const char* const last = text + std::strlen(text);
  double v = 0.0;
  const auto [end, ec] = std::from_chars(text, last, v);
  if (ec != std::errc() || end != last || end == text || !std::isfinite(v)) {
    return false;
  }
  out = v;
  return true;
}

/// Parse all of `text` (null = missing value) as an unsigned decimal
/// integer into `out`; false on a sign, trailing characters, or overflow.
template <typename Int>
bool parse_unsigned(const char* text, Int& out) {
  if (text == nullptr) return false;
  const char* const last = text + std::strlen(text);
  Int v = 0;
  const auto [end, ec] = std::from_chars(text, last, v);
  if (ec != std::errc() || end != last || end == text) return false;
  out = v;
  return true;
}

/// Parse a strictly positive integer flag value into `out`.
inline bool parse_positive(const char* text, std::size_t& out) {
  std::size_t v = 0;
  if (!parse_unsigned(text, v) || v == 0) return false;
  out = v;
  return true;
}

/// The error for a positional argument that does not parse, or parses out
/// of range; names it the way consume_scenario_flag names a flag.
inline std::invalid_argument bad_positional(const char* name,
                                            const char* expected,
                                            const char* got) {
  return std::invalid_argument(std::string(name) + ": expected " + expected +
                               ", got '" + got + "'");
}

/// Outcome of offering one argv slot to the scenario-flag parser.
enum class ScenarioFlag {
  kNotMine,   ///< not a scenario flag; the caller's loop handles it
  kConsumed,  ///< handled (the parser advanced `i` past any value)
  kError,     ///< recognized but the value was missing or malformed
};

/// Try to consume argv[i] as a scenario flag.  Each flag sets exactly one
/// ScenarioSpec field:
///
///   --scenario FILE   load a ScenarioSpec JSON file (sim/scenario.hpp);
///                     flags AFTER it override the file's values
///   --rooms N --racks N --slots N --seed S --duration SECS
///   --dtm POLICY --coordinator COORD --scheduler SCHED
///   --rack-budget W --room-budget W --step FRAC --zone K
///   --no-plenum --no-cross-plenum
///   --threads N
///   --traces DIR --trace-pack FILE
///   --plant-watts W --supply-amplitude C --facility-period S
///
/// On kError a note naming the flag is printed to stderr.  Scenario-file
/// load failures (missing file, bad JSON, unknown key) also print the
/// underlying reason.
inline ScenarioFlag consume_scenario_flag(fsc::ScenarioSpec& spec, int argc,
                                          char** argv, int& i) {
  const std::string arg = argv[i];
  if (arg == "--no-plenum") {
    spec.plenum = false;
    return ScenarioFlag::kConsumed;
  }
  if (arg == "--no-cross-plenum") {
    spec.cross_plenum = false;
    return ScenarioFlag::kConsumed;
  }
  const char* const value = i + 1 < argc ? argv[i + 1] : nullptr;
  // Every remaining flag takes one value: `ok` says whether it parsed.
  const auto take = [&](bool ok, const char* expected) {
    if (!ok) {
      std::cerr << arg << ": expected " << expected;
      if (value != nullptr) std::cerr << ", got '" << value << "'";
      std::cerr << "\n";
      return ScenarioFlag::kError;
    }
    ++i;
    return ScenarioFlag::kConsumed;
  };
  const auto text = [value](std::string& out) {
    if (value == nullptr) return false;
    out = value;
    return true;
  };

  if (arg == "--scenario") {
    if (value == nullptr) return take(false, "a file path");
    try {
      spec = fsc::ScenarioSpec::from_json_file(value);
    } catch (const std::exception& e) {
      std::cerr << e.what() << "\n";
      return ScenarioFlag::kError;
    }
    ++i;
    return ScenarioFlag::kConsumed;
  }
  if (arg == "--rooms") {
    return take(parse_positive(value, spec.rooms), "a positive integer");
  }
  if (arg == "--racks") {
    return take(parse_positive(value, spec.racks), "a positive integer");
  }
  if (arg == "--slots") {
    return take(parse_positive(value, spec.slots), "a positive integer");
  }
  if (arg == "--seed") {
    return take(parse_unsigned(value, spec.seed), "a non-negative integer");
  }
  if (arg == "--duration") {
    return take(parse_double(value, spec.duration_s) && spec.duration_s > 0.0,
                "a positive duration in seconds");
  }
  if (arg == "--dtm") return take(text(spec.dtm), "a policy name");
  if (arg == "--coordinator") {
    return take(text(spec.coordinator), "a coordinator name");
  }
  if (arg == "--scheduler") {
    return take(text(spec.scheduler), "a room scheduler name");
  }
  if (arg == "--rack-budget") {
    return take(parse_double(value, spec.rack_budget_watts),
                "a budget in watts (< 0 = scenario default)");
  }
  if (arg == "--room-budget") {
    return take(parse_double(value, spec.room_budget_watts),
                "a budget in watts (< 0 = scenario default)");
  }
  if (arg == "--step") {
    return take(parse_double(value, spec.migration_step),
                "a migration fraction in (0, 1)");
  }
  if (arg == "--zone") {
    return take(parse_positive(value, spec.fan_zone), "a positive integer");
  }
  if (arg == "--threads") {
    return take(parse_positive(value, spec.threads), "a positive integer");
  }
  if (arg == "--traces") return take(text(spec.trace_dir), "a directory");
  if (arg == "--trace-pack") {
    return take(text(spec.trace_pack), "a .fst pack file");
  }
  if (arg == "--plant-watts") {
    return take(parse_double(value, spec.plant_capacity_watts),
                "a capacity in watts (< 0 = unconstrained)");
  }
  if (arg == "--supply-amplitude") {
    return take(parse_double(value, spec.supply_amplitude_c) &&
                    spec.supply_amplitude_c >= 0.0,
                "a non-negative offset in celsius");
  }
  if (arg == "--facility-period") {
    return take(parse_double(value, spec.facility_period_s),
                "a period in seconds (<= 0 = every round)");
  }
  return ScenarioFlag::kNotMine;
}

/// The `--list-policies` view: every registry tier with descriptions, in
/// registration order (one Registry<T> behind all three, so the format is
/// uniform by construction).
inline void print_policy_listing(std::ostream& os) {
  const auto& factory = fsc::PolicyFactory::instance();
  os << "dtm policies:\n";
  for (const auto& e : factory.list_policies()) {
    os << "  " << e.name << "  -  " << e.description << "\n";
  }
  os << "rack coordinators:\n";
  for (const auto& e : factory.list_coordinators()) {
    os << "  " << e.name << "  -  " << e.description << "\n";
  }
  os << "room schedulers:\n";
  for (const auto& e : factory.list_room_schedulers()) {
    os << "  " << e.name << "  -  " << e.description << "\n";
  }
}

/// Observability flag state + sink ownership: the flag loop fills the public fields (--trace-out, --metrics-out,
/// --metrics-every, --progress), open() builds the sinks once the run
/// shape is known, telemetry() is dropped into params.obs, and finish()
/// (after the run) writes the trace file and reports where things went.
class ObsCli {
 public:
  std::string trace_path;    ///< --trace-out FILE (Perfetto JSON)
  std::string metrics_path;  ///< --metrics-out FILE (.json array, else CSV)
  std::size_t metrics_every = 10;  ///< --metrics-every N (rounds per sample)
  bool progress = false;           ///< --progress heartbeat on stderr

  bool active() const noexcept {
    return !trace_path.empty() || !metrics_path.empty() || progress;
  }

  /// Build the requested sinks.  `duration_s` feeds the progress ETA,
  /// `threads` sizes the registry's per-shard counter slots.  Returns
  /// false (with a note on stderr) when an output file cannot be opened.
  bool open(double duration_s, std::size_t threads) {
    if (!active()) return true;
    metrics_ = std::make_unique<fsc::obs::MetricsRegistry>(threads);
    if (!trace_path.empty()) {
      trace_ = std::make_unique<fsc::obs::TraceRecorder>();
    }
    if (!metrics_path.empty()) {
      exporter_ = std::make_unique<fsc::obs::SnapshotExporter>(metrics_path,
                                                               metrics_every);
      if (!exporter_->ok()) {
        std::cerr << "cannot write " << metrics_path << "\n";
        return false;
      }
    }
    if (progress) {
      progress_ = std::make_unique<fsc::obs::ProgressMeter>(duration_s);
    }
    return true;
  }

  fsc::obs::Telemetry telemetry() noexcept {
    fsc::obs::Telemetry t;
    t.metrics = metrics_.get();
    t.trace = trace_.get();
    t.snapshot = exporter_.get();
    t.progress = progress_.get();
    return t;
  }

  /// Post-run: write the trace (embedding the run manifest), close the
  /// time-series, and print the final counter snapshot.  `manifest_json`
  /// is the same object the report embeds (RunManifest::to_json).
  void finish(const std::string& manifest_json) {
    if (exporter_) {
      exporter_->close();
      std::cout << "metrics time-series written to " << metrics_path << "\n";
    }
    if (trace_ && trace_->write_json_file(trace_path, manifest_json)) {
      std::cout << "trace written to " << trace_path << " ("
                << trace_->recorded_events() << " events";
      if (trace_->dropped_events() > 0) {
        std::cout << ", " << trace_->dropped_events() << " dropped";
      }
      std::cout << ")\n";
    }
    if (metrics_ && (trace_ || exporter_)) {
      std::cout << "telemetry counters:\n" << metrics_->to_json() << "\n";
    }
  }

 private:
  std::unique_ptr<fsc::obs::MetricsRegistry> metrics_;
  std::unique_ptr<fsc::obs::TraceRecorder> trace_;
  std::unique_ptr<fsc::obs::SnapshotExporter> exporter_;
  std::unique_ptr<fsc::obs::ProgressMeter> progress_;
};

}  // namespace fsc_cli
