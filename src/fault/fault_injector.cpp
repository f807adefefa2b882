#include "fault/fault_injector.hpp"

#include <utility>

#include "sim/server.hpp"
#include "util/units.hpp"

namespace fsc {

FaultInjector::FaultInjector(FaultPlan plan, std::vector<Server*> servers,
                             const obs::Telemetry& obs)
    : plan_(std::move(plan)),
      servers_(std::move(servers)),
      states_(plan_.size(), EventState::kPending),
      dropped_(servers_.size(), 0),
      blacked_out_(servers_.size(), 0),
      last_good_(servers_.size()),
      have_last_good_(servers_.size(), 0) {
  plan_.validate(1, servers_.size());
  for (Server* s : servers_) {
    require(s != nullptr, "FaultInjector: null server");
  }
  trace_ = obs.trace;
  rack_label_ = obs.rack;
  if (obs.metrics != nullptr) {
    armed_counter_ = &obs.metrics->counter("fault.events_armed");
    cleared_counter_ = &obs.metrics->counter("fault.events_cleared");
  }
}

bool FaultInjector::slot_blacked_out(std::size_t slot) const {
  return slot < blacked_out_.size() && blacked_out_[slot] != 0;
}

void FaultInjector::note_transition(const FaultEvent& e, bool armed,
                                    double time_s) {
  if (trace_ != nullptr) {
    trace_->instant(armed ? "fault.inject" : "fault.clear", "fault",
                    rack_label_, static_cast<std::uint32_t>(e.slot),
                    static_cast<std::int64_t>(time_s));
  }
  if (armed && armed_counter_ != nullptr) armed_counter_->increment();
  if (!armed && cleared_counter_ != nullptr) cleared_counter_->increment();
}

void FaultInjector::apply_slot_state(std::size_t slot) {
  // Last active event of each family wins (plan order), so overlapping
  // events resolve the same way no matter which arm/clear came first.
  const FaultEvent* sensor = nullptr;
  const FaultEvent* fan = nullptr;
  bool dropped = false;
  bool blackout = false;
  for (std::size_t i = 0; i < plan_.events.size(); ++i) {
    if (states_[i] != EventState::kActive) continue;
    const FaultEvent& e = plan_.events[i];
    if (e.slot != slot) continue;
    switch (e.kind) {
      case FaultKind::kSensorDropped:
        dropped = true;
        sensor = &e;
        break;
      case FaultKind::kSensorStuck:
      case FaultKind::kSensorNoisy:
        sensor = &e;
        break;
      case FaultKind::kFanDegraded:
      case FaultKind::kFanSeized:
        fan = &e;
        break;
      case FaultKind::kSlotBlackout:
        blackout = true;
        break;
    }
  }

  Server& server = *servers_[slot];
  if (sensor != nullptr) {
    switch (sensor->kind) {
      case FaultKind::kSensorStuck:
        server.set_sensor_fault(SensorFaultMode::kStuck, sensor->value);
        break;
      case FaultKind::kSensorDropped:
        server.set_sensor_fault(SensorFaultMode::kDropped, 0.0);
        break;
      case FaultKind::kSensorNoisy:
        server.set_sensor_fault(SensorFaultMode::kNoisy, sensor->value);
        break;
      default: break;
    }
  } else {
    server.clear_sensor_fault();
  }
  if (fan != nullptr) {
    server.set_fan_fault(fan->kind == FaultKind::kFanSeized
                             ? FanFaultMode::kSeized
                             : FanFaultMode::kDegradedMax,
                         fan->value);
  } else {
    server.clear_fan_fault();
  }
  dropped_[slot] = dropped ? 1 : 0;
  const bool was_blacked = blacked_out_[slot] != 0;
  blacked_out_[slot] = blackout ? 1 : 0;
  if (was_blacked && !blackout) {
    // Link restored: the next blackout refreezes from a fresh last-good.
    have_last_good_[slot] = 0;
  }
}

void FaultInjector::advance(double time_s) {
  for (std::size_t i = 0; i < plan_.events.size(); ++i) {
    const FaultEvent& e = plan_.events[i];
    if (states_[i] == EventState::kPending && e.start_s <= time_s) {
      // Arm — unless the whole window already passed (possible when a
      // short event falls between barriers: it then never takes effect,
      // which is the documented quantization).
      if (!e.permanent() && e.start_s + e.duration_s <= time_s) {
        states_[i] = EventState::kDone;
        continue;
      }
      states_[i] = EventState::kActive;
      ++events_armed_;
      apply_slot_state(e.slot);
      note_transition(e, true, time_s);
    }
    if (states_[i] == EventState::kActive && !e.permanent() &&
        e.start_s + e.duration_s <= time_s) {
      states_[i] = EventState::kDone;
      ++events_cleared_;
      apply_slot_state(e.slot);
      note_transition(e, false, time_s);
    }
  }
}

void FaultInjector::stamp(std::vector<SlotObservation>& observations,
                          double time_s) {
  require(observations.size() == servers_.size(),
          "FaultInjector: observation count mismatch");
  for (std::size_t s = 0; s < observations.size(); ++s) {
    SlotObservation& o = observations[s];
    if (blacked_out_[s]) {
      if (have_last_good_[s]) {
        const std::size_t index = o.index;
        o = last_good_[s];
        o.index = index;
      }
      // The rack controller knows wall time; only the slot's payload is
      // stale.
      o.time_s = time_s;
      o.telemetry_ok = false;
      continue;
    }
    o.sensor_ok = dropped_[s] == 0;
    o.telemetry_ok = true;
    last_good_[s] = o;
    have_last_good_[s] = 1;
  }
}

}  // namespace fsc
