// ScenarioSpec: the one declarative description of a run, at every scale.
//
// Before this existed each driver hand-assembled CoupledRackParams or
// RoomParams from a dozen flag variables — the same fifteen lines of
// override plumbing in every CLI and bench, drifting
// independently.  A ScenarioSpec is the flag set as *data*: fleet shape,
// policy names, seed, execution knobs, trace source, and the fault plan,
// validated once (validate()) and lowered onto the engine parameter
// structs by build_rack()/build_room().  The JSON form (to_json /
// from_json_file) makes a run reproducible from one file:
//
//   fsc --scenario run.json
//
// The CLI parses its flags INTO a ScenarioSpec (examples/cli_util.hpp) and
// builds engines exclusively through it, so a flag invocation and its JSON
// transcription are the same run by construction.
//
// Layering: sim/ is normally below coord/ and room/; scenario.{hpp,cpp} is
// the sanctioned exception that reaches up, because "describe a whole run"
// is inherently a top-of-ladder concern (mirroring the PolicyFactory's
// register_builtin_* exception in the other direction).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "coord/coupled_rack_engine.hpp"
#include "facility/facility_engine.hpp"
#include "fault/fault_plan.hpp"
#include "room/room_engine.hpp"

namespace fsc {

/// A run, declaratively.  Every field has a sensible default; overrides
/// with "scenario default" sentinels (-1 budgets, 0 zone, empty strings)
/// leave the canonical contended scenario's value in force, exactly like
/// the CLI flags they replaced.
struct ScenarioSpec {
  // --- fleet shape -------------------------------------------------------
  std::size_t racks = 1;  ///< 1 = rack-scale (build_rack), > 1 = room-scale
  std::size_t slots = 8;  ///< servers per rack
  std::uint64_t seed = 42;
  double duration_s = 900.0;

  // --- policy selection (PolicyFactory keys) -----------------------------
  std::string dtm;          ///< per-server DtmPolicy; empty = scenario default
  std::string coordinator;  ///< rack coordinator; empty = scenario default
  std::string scheduler = "static";  ///< room scheduler (room-scale only)

  // --- control knobs -----------------------------------------------------
  double rack_budget_watts = -1.0;  ///< < 0 = scenario default
  double room_budget_watts = -1.0;  ///< < 0 = scenario default (room only)
  double migration_step = -1.0;     ///< <= 0 = scenario default (room only)
  std::size_t fan_zone = 0;         ///< slots per fan zone; 0 = default
  bool plenum = true;               ///< rack-level shared plenum
  bool cross_plenum = true;         ///< hot-aisle recirculation (room only)

  // --- execution ---------------------------------------------------------
  std::size_t threads = 0;  ///< 0 = hardware concurrency

  // --- inputs ------------------------------------------------------------
  std::string trace_dir;   ///< replay CSV traces (round-robin); empty = none
  std::string trace_pack;  ///< replay a .fst trace pack (mmap, zero-copy);
                           ///< mutually exclusive with trace_dir
  FaultPlan faults;        ///< scheduled hardware faults; empty = none

  // --- facility (facility-scale only; ignored by build_rack/build_room) --
  std::size_t rooms = 0;  ///< > 0 enables build_facility (rooms of `racks`)
  double plant_capacity_watts = -1.0;  ///< < 0 = unconstrained cooling plant
  double supply_amplitude_c = 0.0;     ///< diurnal supply-air peak offset
  double supply_period_s = 86400.0;    ///< supply profile cycle (a day)
  double facility_period_s = -1.0;     ///< <= 0 = every coordination round

  bool operator==(const ScenarioSpec&) const = default;

  /// Cross-field validation: positive fleet shape and duration, policy
  /// names known to the PolicyFactory (empty = default accepted), fault
  /// plan addressing real victims, migration step in (0, 1) when set.
  /// Throws std::invalid_argument naming the offending field.  build_*()
  /// validate implicitly.
  void validate() const;

  /// `threads` with the 0 sentinel resolved to the host's concurrency.
  std::size_t resolve_threads() const;

  /// Lower onto the rack-scale engine parameters (canonical contended
  /// scenario + these overrides).  Requires racks == 1.  Loads traces from
  /// trace_dir when set.  Telemetry is NOT part of a scenario — attach
  /// sinks to the returned params' obs field afterwards.
  CoupledRackParams build_rack() const;

  /// Lower onto the room-scale engine parameters (canonical contended room
  /// + these overrides, traces round-robined across the whole room, the
  /// fault plan re-homed per rack with FaultPlan::for_rack).
  RoomParams build_room() const;

  /// Lower onto the facility-scale engine parameters: `rooms` copies of
  /// build_room(), each re-seeded with derive_seed(seed, 1000 + room) —
  /// the exact recipe a per-room standalone equivalence check rebuilds —
  /// under the plant/profile knobs above.  Requires rooms >= 1.
  FacilityParams build_facility() const;

  /// The spec as a JSON object — a valid --scenario file.  Defaulted
  /// fields are emitted too, so the file documents the whole run.
  std::string to_json(int indent = 2) const;
  /// Parse the object form to_json emits.  Missing keys keep their
  /// defaults; unknown keys throw (a typo'd knob must not silently run the
  /// default).  Throws std::invalid_argument on malformed input.
  static ScenarioSpec from_json_text(const std::string& text);
  /// from_json_text over the contents of `path`; throws
  /// std::invalid_argument when the file cannot be read.
  static ScenarioSpec from_json_file(const std::string& path);
};

}  // namespace fsc
