#include "fault/fault_plan.hpp"

#include <stdexcept>
#include <string>

#include "util/json.hpp"
#include "util/units.hpp"

namespace fsc {

const char* to_string(FaultKind kind) noexcept {
  switch (kind) {
    case FaultKind::kSensorStuck: return "sensor-stuck";
    case FaultKind::kSensorDropped: return "sensor-dropped";
    case FaultKind::kSensorNoisy: return "sensor-noisy";
    case FaultKind::kFanDegraded: return "fan-degraded";
    case FaultKind::kFanSeized: return "fan-seized";
    case FaultKind::kSlotBlackout: return "slot-blackout";
  }
  return "unknown";
}

FaultKind fault_kind_from_string(const std::string& name) {
  for (const FaultKind kind :
       {FaultKind::kSensorStuck, FaultKind::kSensorDropped,
        FaultKind::kSensorNoisy, FaultKind::kFanDegraded, FaultKind::kFanSeized,
        FaultKind::kSlotBlackout}) {
    if (name == to_string(kind)) return kind;
  }
  throw std::invalid_argument("FaultPlan: unknown fault kind '" + name + "'");
}

void FaultPlan::validate(std::size_t num_racks, std::size_t num_slots) const {
  for (std::size_t i = 0; i < events.size(); ++i) {
    const FaultEvent& e = events[i];
    // The message names the event, so it is composed — and only on the
    // failure branch (require() takes literals only).
    const auto check = [&](bool ok, const char* rule) {
      if (ok) return;
      throw std::invalid_argument("FaultPlan: event " + std::to_string(i) +
                                  " (" + to_string(e.kind) + "): " + rule);
    };
    check(e.rack < num_racks, "rack index out of range");
    check(e.slot < num_slots, "slot index out of range");
    check(e.start_s >= 0.0, "start time must be >= 0");
    switch (e.kind) {
      case FaultKind::kSensorNoisy:
        check(e.value > 0.0, "noise stddev must be > 0");
        break;
      case FaultKind::kFanDegraded:
        check(e.value > 0.0, "degraded max rpm must be > 0");
        break;
      case FaultKind::kSensorStuck:
      case FaultKind::kSensorDropped:
      case FaultKind::kFanSeized:
      case FaultKind::kSlotBlackout:
        check(e.value >= 0.0, "value must be >= 0");
        break;
    }
  }
}

FaultPlan FaultPlan::for_rack(std::size_t rack) const {
  FaultPlan out;
  for (const FaultEvent& e : events) {
    if (e.rack != rack) continue;
    FaultEvent local = e;
    local.rack = 0;
    out.events.push_back(local);
  }
  return out;
}

std::string FaultPlan::to_json(int indent) const {
  json::Value arr = json::Value::array();
  for (const FaultEvent& e : events) {
    json::Value o = json::Value::object();
    o.set("kind", json::Value::string(to_string(e.kind)));
    o.set("rack", json::Value::number(static_cast<double>(e.rack)));
    o.set("slot", json::Value::number(static_cast<double>(e.slot)));
    o.set("start_s", json::Value::number(e.start_s));
    o.set("duration_s", json::Value::number(e.duration_s));
    o.set("value", json::Value::number(e.value));
    arr.push_back(std::move(o));
  }
  return arr.dump(indent);
}

FaultPlan FaultPlan::from_json_text(const std::string& text) {
  const json::Value doc = json::Value::parse(text);
  if (!doc.is_array()) {
    throw std::invalid_argument("FaultPlan: expected a JSON array of events");
  }
  FaultPlan out;
  for (std::size_t i = 0; i < doc.size(); ++i) {
    const json::Value& o = doc.at(i);
    const std::string where = "FaultPlan: event " + std::to_string(i);
    if (!o.is_object()) {
      throw std::invalid_argument(where + " must be an object");
    }
    if (!o.contains("kind")) {
      throw std::invalid_argument(where + ": missing key 'kind'");
    }
    FaultEvent e;
    for (const auto& [key, v] : o.members()) {
      try {
        if (key == "kind") {
          e.kind = fault_kind_from_string(v.as_string());
        } else if (key == "rack") {
          e.rack = v.as_index();
        } else if (key == "slot") {
          e.slot = v.as_index();
        } else if (key == "start_s") {
          e.start_s = v.as_finite();
        } else if (key == "duration_s") {
          e.duration_s = v.as_finite();
        } else if (key == "value") {
          e.value = v.as_finite();
        } else {
          throw std::invalid_argument("unknown key");
        }
      } catch (const std::invalid_argument& err) {
        throw std::invalid_argument(where + " key '" + key + "': " + err.what());
      }
    }
    out.events.push_back(e);
  }
  return out;
}

}  // namespace fsc
