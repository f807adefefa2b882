// Typed, scheduled hardware faults — the scenario-level description of
// "what breaks, where, and when".
//
// A FaultPlan is pure data: a list of FaultEvents against simulation time,
// validated once against the fleet shape and then handed to the engines
// (CoupledRackParams::faults), where a FaultInjector arms and clears the
// events at coordination barriers.  Plans are deterministic by
// construction — no randomness lives here; seeded plan *generation* is
// fault/fault_generator.hpp's job — and an empty plan is the contract for
// "the run is bit-identical to a build without the fault layer at all"
// (tests/test_fault.cpp enforces that).
//
// The fault taxonomy mirrors what production BMC stacks actually defend
// against (phosphor-pid-control's failsafe machinery): sensors that lie
// (stuck-at), go silent (dropped readings), or degrade (noise beyond
// spec); fans that lose headroom (degraded max) or stop (seized); and
// management-plane telemetry blackouts where the slot keeps running but
// the coordinator stops hearing from it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace fsc {

enum class FaultKind {
  kSensorStuck,    ///< sensor samples freeze at `value` degC
  kSensorDropped,  ///< sensor stops delivering samples (reading goes stale)
  kSensorNoisy,    ///< extra Gaussian noise, stddev `value` degC
  kFanDegraded,    ///< fan cannot exceed `value` rpm (worn bearing, clogged)
  kFanSeized,      ///< rotor jams; blades windmill at `value` rpm (0 = default)
  kSlotBlackout,   ///< telemetry link dark: coordinator sees the last-good
                   ///< observation, flagged telemetry_ok = false
};

const char* to_string(FaultKind kind) noexcept;
/// Inverse of to_string; throws std::invalid_argument on an unknown name.
FaultKind fault_kind_from_string(const std::string& name);

/// One scheduled fault.  `rack` / `slot` address the victim; `start_s` is
/// simulation time (events quantize to the next coordination barrier, the
/// only instants the injector runs at); `duration_s` <= 0 means permanent.
/// `value` is kind-specific (see FaultKind) and unused where not noted.
struct FaultEvent {
  FaultKind kind = FaultKind::kSensorStuck;
  std::size_t rack = 0;
  std::size_t slot = 0;
  double start_s = 0.0;
  double duration_s = -1.0;  ///< <= 0: never clears
  double value = 0.0;

  bool permanent() const noexcept { return duration_s <= 0.0; }
  bool operator==(const FaultEvent&) const = default;
};

/// The full schedule for one run.  Events need not be sorted; the injector
/// orders its own bookkeeping.
struct FaultPlan {
  std::vector<FaultEvent> events;

  bool empty() const noexcept { return events.empty(); }
  std::size_t size() const noexcept { return events.size(); }

  /// Check every event addresses a real victim (`rack` < num_racks,
  /// `slot` < num_slots) and carries a sane payload (non-negative start,
  /// kind-specific value bounds).  Throws std::invalid_argument naming the
  /// offending event.  Engines validate the rack-local plan they are
  /// handed with num_racks = 1.
  void validate(std::size_t num_racks, std::size_t num_slots) const;

  /// The events addressed to `rack`, re-homed to rack 0 (the form a
  /// single CoupledRackEngine consumes).
  FaultPlan for_rack(std::size_t rack) const;

  /// JSON array of event objects (the "faults" key of a scenario file).
  std::string to_json(int indent = 0) const;
  /// Parse the array form to_json emits.  Throws std::invalid_argument,
  /// naming the event index and key, on malformed input: an unknown or
  /// missing key, a rack/slot that is not a non-negative integer in
  /// std::size_t range, or a non-finite start_s/duration_s/value.
  static FaultPlan from_json_text(const std::string& text);

  bool operator==(const FaultPlan&) const = default;
};

}  // namespace fsc
