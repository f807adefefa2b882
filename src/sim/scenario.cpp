#include "sim/scenario.hpp"

#include <fstream>
#include <sstream>
#include <thread>

#include "core/policy_factory.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"
#include "workload/trace_io.hpp"
#include "workload/trace_store.hpp"

namespace fsc {

void ScenarioSpec::validate() const {
  require(racks > 0, "ScenarioSpec: need at least one rack");
  require(slots > 0, "ScenarioSpec: need at least one slot per rack");
  require(duration_s > 0.0, "ScenarioSpec: duration must be > 0");
  require(migration_step <= 0.0 || migration_step < 1.0,
          "ScenarioSpec: migration step must be in (0, 1) when set");
  require(supply_amplitude_c >= 0.0,
          "ScenarioSpec: supply amplitude must be >= 0");
  require(supply_period_s > 0.0, "ScenarioSpec: supply period must be > 0");
  require(trace_dir.empty() || trace_pack.empty(),
          "ScenarioSpec: trace_dir and trace_pack are mutually exclusive");

  const PolicyFactory& factory = PolicyFactory::instance();
  if (!dtm.empty() && !factory.contains(dtm)) {
    throw std::invalid_argument("ScenarioSpec: unknown dtm policy '" + dtm +
                                "'");
  }
  if (!coordinator.empty() && !factory.contains_coordinator(coordinator)) {
    throw std::invalid_argument("ScenarioSpec: unknown coordinator '" +
                                coordinator + "'");
  }
  if (!scheduler.empty() && !factory.contains_room_scheduler(scheduler)) {
    throw std::invalid_argument("ScenarioSpec: unknown room scheduler '" +
                                scheduler + "'");
  }
  faults.validate(racks, slots);
}

namespace {

/// The scenario's replay traces from either source (empty when neither is
/// set): trace_dir parses CSVs into per-trace SampledWorkloads; trace_pack
/// maps one .fst file and hands out zero-copy StoredTraceWorkload views.
std::vector<std::shared_ptr<const Workload>> scenario_traces(
    const std::string& trace_dir, const std::string& trace_pack) {
  std::vector<std::shared_ptr<const Workload>> traces;
  if (!trace_pack.empty()) {
    traces = workloads_from_store(TraceStore::open(trace_pack));
  } else if (!trace_dir.empty()) {
    for (auto& t : load_trace_dir(trace_dir)) traces.push_back(std::move(t));
  }
  return traces;
}

}  // namespace

std::size_t ScenarioSpec::resolve_threads() const {
  if (threads > 0) return threads;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

CoupledRackParams ScenarioSpec::build_rack() const {
  validate();
  require(racks == 1,
          "ScenarioSpec: build_rack needs racks == 1 (use build_room)");

  CoupledRackParams p = default_coupled_scenario(seed, duration_s);
  p.rack.num_servers = slots;
  p.plenum_enabled = plenum;
  if (!coordinator.empty()) p.coordinator = coordinator;
  if (!dtm.empty()) p.rack.policy = dtm;
  if (rack_budget_watts >= 0.0) {
    p.coord.rack_power_budget_watts = rack_budget_watts;
  }
  if (fan_zone > 0) p.coord.fan_zone_size = fan_zone;
  const auto traces = scenario_traces(trace_dir, trace_pack);
  if (!traces.empty()) p.rack.traces = traces;
  p.faults = faults;  // racks == 1, so the plan is already rack-local
  return p;
}

RoomParams ScenarioSpec::build_room() const {
  validate();

  RoomParams p = default_room_scenario(racks, seed, duration_s);
  if (!scheduler.empty()) p.scheduler = scheduler;
  p.cross_plenum_enabled = cross_plenum;
  if (room_budget_watts >= 0.0) {
    p.sched.room_power_budget_watts = room_budget_watts;
  }
  if (migration_step > 0.0) p.sched.migration_step = migration_step;

  const std::vector<std::shared_ptr<const Workload>> traces =
      scenario_traces(trace_dir, trace_pack);

  for (std::size_t r = 0; r < p.racks.size(); ++r) {
    CoupledRackParams& rack = p.racks[r];
    rack.rack.num_servers = slots;
    rack.plenum_enabled = plenum;
    if (!coordinator.empty()) rack.coordinator = coordinator;
    if (!dtm.empty()) rack.rack.policy = dtm;
    if (rack_budget_watts >= 0.0) {
      rack.coord.rack_power_budget_watts = rack_budget_watts;
    }
    if (fan_zone > 0) rack.coord.fan_zone_size = fan_zone;
    if (!traces.empty()) {
      // Round-robin across the whole room, not per rack, so a trace set
      // smaller than the room still lands on every rack differently.
      rack.rack.traces.clear();
      for (std::size_t s = 0; s < slots; ++s) {
        rack.rack.traces.push_back(traces[(r * slots + s) % traces.size()]);
      }
    }
    rack.faults = faults.for_rack(r);
  }
  return p;
}

FacilityParams ScenarioSpec::build_facility() const {
  validate();
  require(rooms >= 1, "ScenarioSpec: build_facility needs rooms >= 1");

  FacilityParams f;
  f.rooms.reserve(rooms);
  for (std::size_t r = 0; r < rooms; ++r) {
    // Each room is this spec at room scale with a derived seed — the same
    // recipe test_facility's standalone-equivalence check rebuilds.
    ScenarioSpec room_spec = *this;
    room_spec.rooms = 0;
    room_spec.seed = derive_seed(seed, 1000 + r);
    f.rooms.push_back(room_spec.build_room());
  }
  f.plant.capacity_watts = plant_capacity_watts;
  f.plant.supply_amplitude_c = supply_amplitude_c;
  f.plant.supply_period_s = supply_period_s;
  f.facility_period_s = facility_period_s;
  return f;
}

std::string ScenarioSpec::to_json(int indent) const {
  json::Value o = json::Value::object();
  o.set("racks", json::Value::number(static_cast<double>(racks)));
  o.set("slots", json::Value::number(static_cast<double>(slots)));
  o.set("seed", json::Value::number(static_cast<double>(seed)));
  o.set("duration_s", json::Value::number(duration_s));
  o.set("dtm", json::Value::string(dtm));
  o.set("coordinator", json::Value::string(coordinator));
  o.set("scheduler", json::Value::string(scheduler));
  o.set("rack_budget_watts", json::Value::number(rack_budget_watts));
  o.set("room_budget_watts", json::Value::number(room_budget_watts));
  o.set("migration_step", json::Value::number(migration_step));
  o.set("fan_zone", json::Value::number(static_cast<double>(fan_zone)));
  o.set("plenum", json::Value::boolean(plenum));
  o.set("cross_plenum", json::Value::boolean(cross_plenum));
  o.set("threads", json::Value::number(static_cast<double>(threads)));
  o.set("trace_dir", json::Value::string(trace_dir));
  o.set("trace_pack", json::Value::string(trace_pack));
  o.set("faults", json::Value::parse(faults.to_json()));
  o.set("rooms", json::Value::number(static_cast<double>(rooms)));
  o.set("plant_capacity_watts", json::Value::number(plant_capacity_watts));
  o.set("supply_amplitude_c", json::Value::number(supply_amplitude_c));
  o.set("supply_period_s", json::Value::number(supply_period_s));
  o.set("facility_period_s", json::Value::number(facility_period_s));
  return o.dump(indent);
}

namespace {

std::size_t as_index(const json::Value& v, const char* key) {
  try {
    return v.as_index();
  } catch (const std::invalid_argument&) {
    throw std::invalid_argument(std::string("ScenarioSpec: '") + key +
                                "' must be a non-negative integer");
  }
}

// Every double knob must be finite: 1e999 parses to inf, which the CLI
// flags already refuse and which no engine parameter can hold.
double as_finite(const json::Value& v, const char* key) {
  try {
    return v.as_finite();
  } catch (const std::invalid_argument&) {
    throw std::invalid_argument(std::string("ScenarioSpec: '") + key +
                                "' must be a finite number");
  }
}

}  // namespace

ScenarioSpec ScenarioSpec::from_json_text(const std::string& text) {
  const json::Value root = json::Value::parse(text);
  if (!root.is_object()) {
    throw std::invalid_argument("ScenarioSpec: scenario must be an object");
  }
  ScenarioSpec spec;
  for (const auto& [key, value] : root.members()) {
    if (key == "racks") {
      spec.racks = as_index(value, "racks");
    } else if (key == "slots") {
      spec.slots = as_index(value, "slots");
    } else if (key == "seed") {
      spec.seed = static_cast<std::uint64_t>(as_index(value, "seed"));
    } else if (key == "duration_s") {
      spec.duration_s = as_finite(value, "duration_s");
    } else if (key == "dtm") {
      spec.dtm = value.as_string();
    } else if (key == "coordinator") {
      spec.coordinator = value.as_string();
    } else if (key == "scheduler") {
      spec.scheduler = value.as_string();
    } else if (key == "rack_budget_watts") {
      spec.rack_budget_watts = as_finite(value, "rack_budget_watts");
    } else if (key == "room_budget_watts") {
      spec.room_budget_watts = as_finite(value, "room_budget_watts");
    } else if (key == "migration_step") {
      spec.migration_step = as_finite(value, "migration_step");
    } else if (key == "fan_zone") {
      spec.fan_zone = as_index(value, "fan_zone");
    } else if (key == "plenum") {
      spec.plenum = value.as_bool();
    } else if (key == "cross_plenum") {
      spec.cross_plenum = value.as_bool();
    } else if (key == "threads") {
      spec.threads = as_index(value, "threads");
    } else if (key == "trace_dir") {
      spec.trace_dir = value.as_string();
    } else if (key == "trace_pack") {
      spec.trace_pack = value.as_string();
    } else if (key == "faults") {
      spec.faults = FaultPlan::from_json_text(value.dump());
    } else if (key == "rooms") {
      spec.rooms = as_index(value, "rooms");
    } else if (key == "plant_capacity_watts") {
      spec.plant_capacity_watts = as_finite(value, "plant_capacity_watts");
    } else if (key == "supply_amplitude_c") {
      spec.supply_amplitude_c = as_finite(value, "supply_amplitude_c");
    } else if (key == "supply_period_s") {
      spec.supply_period_s = as_finite(value, "supply_period_s");
    } else if (key == "facility_period_s") {
      spec.facility_period_s = as_finite(value, "facility_period_s");
    } else {
      // A typo'd knob must not silently run the default.
      throw std::invalid_argument("ScenarioSpec: unknown key '" + key + "'");
    }
  }
  return spec;
}

ScenarioSpec ScenarioSpec::from_json_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::invalid_argument("ScenarioSpec: cannot read '" + path + "'");
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return from_json_text(buffer.str());
}

}  // namespace fsc
