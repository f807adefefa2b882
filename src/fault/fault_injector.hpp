// Arms and clears FaultPlan events against one rack's slots, at the only
// instants the coupled engine is single-threaded: coordination barriers.
//
// The injector rides CoupledRackEngine::Session (constructed by the
// session Impl only when the plan is non-empty, advanced at the top of
// every coordinate_round).  Quantizing fault instants to barriers is what
// keeps faulted runs deterministic across thread counts: between
// barriers no shared state changes, so the per-slot step sequence is the
// same whichever thread runs it (tests/test_fault.cpp sweeps threads on a
// rack several chunks wide and EXPECT_EQs the trajectories).
//
// Plant-level faults (sensor, fan) are forwarded to the victim Server's
// components and nothing else: the slot stays in its rack's SoA batch,
// which reads a fan fault as the lane's drive (Server::fan_drive) and runs
// a sensor fault through the sensor's own sample path.  A cleared fault
// hands the lane straight back to the healthy drive.
// Slot-telemetry blackouts never touch the plant: the slot keeps running
// and only the coordinator's view is frozen (telemetry_ok = false, fields
// held at the last observation that got out).
//
// Detectability mirrors a real BMC: a *dropped* sensor is noticed (no
// fresh sample inside a coordination period) and stamped sensor_ok =
// false; stuck-at and noisy sensors pass undetected — the failsafe policy
// only gets to react to what firmware could actually know.
#pragma once

#include <cstddef>
#include <vector>

#include "coord/coordinator.hpp"
#include "fault/fault_plan.hpp"
#include "obs/obs.hpp"

namespace fsc {

class Server;

/// Per-session fault driver.  Not thread-safe: advance() and stamp() must
/// run on the barrier thread (the engine guarantees that).
class FaultInjector {
 public:
  /// `plan` must be rack-local (every event rack == 0) and is validated
  /// against `servers.size()`.  `servers` are borrowed, one per slot in
  /// slot order.  Telemetry is observational only.
  FaultInjector(FaultPlan plan, std::vector<Server*> servers,
                const obs::Telemetry& obs);

  /// Arm every event with start_s <= `time_s`, clear every non-permanent
  /// armed event whose window has passed.  Monotonic in `time_s`;
  /// idempotent at a fixed time.
  void advance(double time_s);

  /// Stamp detectability flags onto the freshly gathered observations and
  /// substitute the frozen last-good view for blacked-out slots.  Call
  /// after the barrier gather, before the coordinator sees them.
  void stamp(std::vector<SlotObservation>& observations, double time_s);

  std::size_t events_armed() const noexcept { return events_armed_; }
  std::size_t events_cleared() const noexcept { return events_cleared_; }
  bool slot_blacked_out(std::size_t slot) const;

 private:
  enum class EventState { kPending, kActive, kDone };

  /// Recompute the victim's component fault state and detectability flags
  /// from every active event (plan order, last writer wins) —
  /// order-independent under overlapping arms/clears.
  void apply_slot_state(std::size_t slot);
  void note_transition(const FaultEvent& e, bool armed, double time_s);

  FaultPlan plan_;
  std::vector<Server*> servers_;
  std::vector<EventState> states_;
  /// Slots with an active dropped-sensor event: the staleness monitor
  /// trips exactly while one is armed.
  std::vector<char> dropped_;
  std::vector<char> blacked_out_;
  std::vector<SlotObservation> last_good_;
  std::vector<char> have_last_good_;
  std::size_t events_armed_ = 0;
  std::size_t events_cleared_ = 0;

  obs::TraceRecorder* trace_ = nullptr;
  obs::Counter* armed_counter_ = nullptr;
  obs::Counter* cleared_counter_ = nullptr;
  std::uint32_t rack_label_ = 0;
};

}  // namespace fsc
