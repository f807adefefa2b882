// Golden digests: a cross-commit correctness net.  Every other bit-identity
// test compares two paths inside one build, so a change that alters the
// physics on every path at once passes all of them.  These canonical
// scenarios pin the simulated outputs themselves: each one's manifest-free
// report is hashed (FNV-1a, 64 bit) and compared with the digest committed
// in tests/golden/digests.txt.
//
// A refactor must leave every digest unchanged.  An intentional physics
// change regenerates them, explicitly, and says so in CHANGES.md:
//
//   FSC_GOLDEN_UPDATE=1 ./build/test_golden
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <string_view>

#include "coord/coupled_rack_engine.hpp"
#include "facility/facility_engine.hpp"
#include "fault/fault_generator.hpp"
#include "room/room_engine.hpp"
#include "sim/experiment.hpp"
#include "sim/scenario.hpp"
#include "util/rng.hpp"

namespace fsc {
namespace {

const std::string kDigestFile =
    std::string(FSC_SOURCE_DIR) + "/tests/golden/digests.txt";

std::uint64_t fnv1a(std::string_view bytes) {
  std::uint64_t h = 14695981039346656037ULL;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

// ------------------------------------------------------------ scenarios

std::string room_8x8_thermal_headroom() {
  ScenarioSpec s;
  s.racks = 8;
  s.slots = 8;
  s.seed = 101;
  s.duration_s = 600.0;
  s.scheduler = "thermal-headroom";
  s.threads = 2;
  return RoomEngine(s.build_room(), s.threads).run().to_json();
}

std::string rack_64_shared_fan_zone() {
  ScenarioSpec s;
  s.slots = 64;
  s.seed = 202;
  s.duration_s = 600.0;
  s.coordinator = "shared-fan-zone";
  s.threads = 2;
  return CoupledRackEngine(s.build_rack(), s.threads).run().to_json();
}

std::string facility_2_rooms_faulted() {
  ScenarioSpec s;
  s.rooms = 2;
  s.racks = 2;
  s.slots = 8;
  s.seed = 303;
  s.duration_s = 900.0;
  s.scheduler = "power-aware";
  s.coordinator = "failsafe";
  s.plant_capacity_watts = 2600.0;
  s.supply_amplitude_c = 2.0;
  s.supply_period_s = s.duration_s;
  s.facility_period_s = 300.0;
  s.threads = 2;
  FaultScenarioParams fp;
  fp.num_racks = s.racks;
  fp.num_slots = s.slots;
  fp.duration_s = s.duration_s;
  fp.num_events = 6;
  s.faults = FaultScenarioGenerator(fp).generate(derive_seed(s.seed, 0xFA17));
  const FacilityResult r = FacilityEngine(s.build_facility(), s.threads).run();
  // The facility report carries no junction temperatures; the per-room
  // reports do, so the digest covers them too.
  std::string report = r.to_json();
  for (const FacilityRoomSummary& room : r.rooms) report += room.result.to_json();
  return report;
}

std::string table3_single_server() {
  ComparisonScenario scenario = ComparisonScenario::paper_defaults();
  scenario.sim.duration_s = 1200.0;
  scenario.workload.base.duration_s = 1200.0;
  scenario.seed = 404;
  const ComparisonReport report = run_table3_comparison(scenario);
  std::ostringstream os;
  for (const SolutionResult& row : report.rows()) {
    char line[512];
    std::snprintf(line, sizeof line,
                  "%s %.17g %.17g %.17g %.17g %.17g %.17g %.17g\n",
                  row.name.c_str(), row.deadline_violation_percent,
                  row.fan_energy_joules, row.cpu_energy_joules,
                  row.total_energy_joules, row.mean_junction_celsius,
                  row.max_junction_celsius, row.thermal_violation_percent);
    os << line;
  }
  return os.str();
}

std::string rack_8_power_budget() {
  ScenarioSpec s;
  s.slots = 8;
  s.seed = 505;
  s.duration_s = 600.0;
  s.coordinator = "power-budget";
  s.threads = 2;
  return CoupledRackEngine(s.build_rack(), s.threads).run().to_json();
}

// Every lane replays a pre-sampled trace, so the racks resolve demand
// through the WorkloadTable gather.
std::string room_4x8_static_traces() {
  ScenarioSpec s;
  s.racks = 4;
  s.slots = 8;
  s.seed = 606;
  s.duration_s = 600.0;
  s.scheduler = "static";
  s.trace_dir = std::string(FSC_SOURCE_DIR) + "/examples/traces";
  s.threads = 2;
  return RoomEngine(s.build_room(), s.threads).run().to_json();
}

std::string room_faulted_failsafe() {
  ScenarioSpec s;
  s.racks = 3;
  s.slots = 8;
  s.seed = 707;
  s.duration_s = 900.0;
  s.scheduler = "failsafe";
  s.coordinator = "failsafe";
  s.threads = 2;
  FaultScenarioParams fp;
  fp.num_racks = s.racks;
  fp.num_slots = s.slots;
  fp.duration_s = s.duration_s;
  fp.num_events = 6;
  s.faults = FaultScenarioGenerator(fp).generate(derive_seed(s.seed, 0xFA17));
  return RoomEngine(s.build_room(), s.threads).run().to_json();
}

// A noisy sensor sampled every 0.73 s, off the 1 s control period and off
// the physics substep, so a sample lands mid-period at a shifting phase.
std::string rack_sensor_off_period() {
  ScenarioSpec s;
  s.slots = 8;
  s.seed = 808;
  s.duration_s = 600.0;
  s.coordinator = "shared-fan-zone";
  s.threads = 2;
  CoupledRackParams p = s.build_rack();
  p.rack.server.sensor.sample_period_s = 0.73;
  p.rack.server.sensor.noise_stddev = 0.5;
  return CoupledRackEngine(p, s.threads).run().to_json();
}

// One event of each plant fault kind on an uncoordinated rack: a degraded
// fan that clears mid-run, a degraded ceiling below min_rpm, a seized fan
// windmilling above min_rpm and one at the default windmill speed that
// clears, and stuck, dropped and noisy sensors.
std::string rack_8_fault_kinds() {
  ScenarioSpec s;
  s.slots = 8;
  s.seed = 909;
  s.duration_s = 900.0;
  s.coordinator = "independent";
  s.threads = 2;
  auto event = [](FaultKind kind, std::size_t slot, double start_s,
                  double duration_s, double value) {
    FaultEvent e;
    e.kind = kind;
    e.slot = slot;
    e.start_s = start_s;
    e.duration_s = duration_s;
    e.value = value;
    return e;
  };
  s.faults.events = {
      event(FaultKind::kSensorStuck, 0, 120.0, -1.0, 55.0),
      event(FaultKind::kSensorDropped, 1, 200.0, 300.0, 0.0),
      event(FaultKind::kSensorNoisy, 2, 60.0, -1.0, 1.5),
      event(FaultKind::kFanDegraded, 3, 100.0, 400.0, 2200.0),
      event(FaultKind::kFanDegraded, 4, 150.0, -1.0, 1200.0),
      event(FaultKind::kFanSeized, 5, 90.0, -1.0, 2500.0),
      event(FaultKind::kFanSeized, 6, 240.0, 360.0, 0.0),
  };
  return CoupledRackEngine(s.build_rack(), s.threads).run().to_json();
}

// The power-aware scheduler over racks whose slots share one fan zone: the
// room migrates demand under its budget while each rack drives a common fan.
std::string room_4x8_power_aware_shared_fan_zone() {
  ScenarioSpec s;
  s.racks = 4;
  s.slots = 8;
  s.seed = 1010;
  s.duration_s = 900.0;
  s.scheduler = "power-aware";
  s.coordinator = "shared-fan-zone";
  s.threads = 2;
  return RoomEngine(s.build_room(), s.threads).run().to_json();
}

struct Scenario {
  const char* name;
  std::string (*report)();
};

constexpr Scenario kScenarios[] = {
    {"room-8x8-thermal-headroom", room_8x8_thermal_headroom},
    {"rack-64-shared-fan-zone", rack_64_shared_fan_zone},
    {"facility-2-rooms-faulted", facility_2_rooms_faulted},
    {"table3-single-server", table3_single_server},
    {"rack-8-power-budget", rack_8_power_budget},
    {"room-4x8-static-traces", room_4x8_static_traces},
    {"room-3x8-faulted-failsafe", room_faulted_failsafe},
    {"rack-8-sensor-0.73s", rack_sensor_off_period},
    {"rack-8-fault-kinds", rack_8_fault_kinds},
    {"room-4x8-power-aware-shared-fan-zone",
     room_4x8_power_aware_shared_fan_zone},
};

// ------------------------------------------------------------ digest file

std::map<std::string, std::string> read_digests() {
  std::map<std::string, std::string> out;
  std::ifstream in(kDigestFile);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string name;
    std::string digest;
    if (fields >> name >> digest) out[name] = digest;
  }
  return out;
}

bool update_requested() {
  const char* flag = std::getenv("FSC_GOLDEN_UPDATE");
  return flag != nullptr && std::string_view(flag) == "1";
}

TEST(Golden, ReportDigestsMatchTheCommittedOnes) {
  std::map<std::string, std::string> got;
  for (const Scenario& s : kScenarios) got[s.name] = hex(fnv1a(s.report()));

  if (update_requested()) {
    std::ofstream out(kDigestFile);
    out << "# FNV-1a-64 of each scenario's manifest-free report; see\n"
           "# tests/test_golden.cpp.  Regenerate only for an intentional\n"
           "# physics change: FSC_GOLDEN_UPDATE=1 ./build/test_golden\n";
    for (const Scenario& s : kScenarios) out << s.name << " " << got[s.name] << "\n";
    ASSERT_TRUE(out.good()) << "could not write " << kDigestFile;
    GTEST_SKIP() << "regenerated " << kDigestFile;
  }

  const std::map<std::string, std::string> want = read_digests();
  ASSERT_FALSE(want.empty()) << "no digests in " << kDigestFile;
  for (const Scenario& s : kScenarios) {
    const auto it = want.find(s.name);
    ASSERT_NE(it, want.end()) << s.name << " has no committed digest";
    EXPECT_EQ(it->second, got[s.name])
        << s.name << ": the simulated outputs changed.  If the physics "
        << "change is intentional, regenerate with FSC_GOLDEN_UPDATE=1 and "
        << "note it in CHANGES.md.";
  }
}

}  // namespace
}  // namespace fsc
