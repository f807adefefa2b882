// sim/scenario.hpp + the unified Registry<T> behind the PolicyFactory:
// ScenarioSpec validation, JSON round-trips (spec -> to_json ->
// from_json_text -> ==), lowering onto the engine parameter structs
// (build_rack / build_room), strict unknown-key rejection, the minimal
// util/json parser the loaders ride on, and a full round-trip over every
// registered entry of all three factory tiers.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "coord/coordinator.hpp"
#include "core/policy_factory.hpp"
#include "room/scheduler.hpp"
#include "sim/scenario.hpp"
#include "util/json.hpp"

namespace fsc {
namespace {

// ------------------------------------------------------------ validation

TEST(ScenarioSpec, DefaultSpecIsValid) {
  EXPECT_NO_THROW(ScenarioSpec{}.validate());
}

TEST(ScenarioSpec, ValidateRejectsBadShapes) {
  ScenarioSpec spec;
  spec.racks = 0;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec = {};
  spec.slots = 0;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec = {};
  spec.duration_s = 0.0;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec = {};
  spec.migration_step = 1.5;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
}

TEST(ScenarioSpec, ValidateRejectsUnknownPolicyNames) {
  ScenarioSpec spec;
  spec.dtm = "no-such-policy";
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec = {};
  spec.coordinator = "no-such-coordinator";
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec = {};
  spec.scheduler = "no-such-scheduler";
  EXPECT_THROW(spec.validate(), std::invalid_argument);
}

TEST(ScenarioSpec, ValidateChecksTheFaultPlanAgainstTheFleet) {
  ScenarioSpec spec;
  spec.racks = 1;
  spec.slots = 4;
  spec.faults.events.push_back(
      {FaultKind::kSensorStuck, 0, 7, 0.0, -1.0, 45.0});  // slot out of range
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec.faults.events[0].slot = 3;
  EXPECT_NO_THROW(spec.validate());
}

// ------------------------------------------------------------- lowering

TEST(ScenarioSpec, BuildRackAppliesOverrides) {
  ScenarioSpec spec;
  spec.slots = 5;
  spec.seed = 99;
  spec.duration_s = 300.0;
  spec.coordinator = "failsafe";
  spec.dtm = "fan-only";
  spec.rack_budget_watts = 750.0;
  spec.fan_zone = 5;
  spec.plenum = false;
  spec.faults.events.push_back(
      {FaultKind::kSlotBlackout, 0, 1, 60.0, -1.0, 0.0});
  const CoupledRackParams p = spec.build_rack();
  EXPECT_EQ(p.rack.num_servers, 5u);
  EXPECT_EQ(p.rack.base_seed, 99u);
  EXPECT_DOUBLE_EQ(p.rack.sim.duration_s, 300.0);
  EXPECT_EQ(p.coordinator, "failsafe");
  EXPECT_EQ(p.rack.policy, "fan-only");
  EXPECT_DOUBLE_EQ(p.coord.rack_power_budget_watts, 750.0);
  EXPECT_EQ(p.coord.fan_zone_size, 5u);
  EXPECT_FALSE(p.plenum_enabled);
  EXPECT_EQ(p.faults, spec.faults);
}

TEST(ScenarioSpec, BuildRackKeepsScenarioDefaultsWhenUnset) {
  const ScenarioSpec spec;
  const CoupledRackParams p = spec.build_rack();
  const CoupledRackParams canon = default_coupled_scenario(42, 900.0);
  EXPECT_EQ(p.coordinator, canon.coordinator);
  EXPECT_EQ(p.rack.policy, canon.rack.policy);
  EXPECT_DOUBLE_EQ(p.coord.rack_power_budget_watts,
                   canon.coord.rack_power_budget_watts);
  EXPECT_TRUE(p.faults.empty());
}

TEST(ScenarioSpec, BuildRackNeedsASingleRack) {
  ScenarioSpec spec;
  spec.racks = 3;
  EXPECT_THROW(spec.build_rack(), std::invalid_argument);
}

TEST(ScenarioSpec, BuildRoomRehomesTheFaultPlanPerRack) {
  ScenarioSpec spec;
  spec.racks = 3;
  spec.slots = 4;
  spec.scheduler = "failsafe";
  spec.faults.events.push_back(
      {FaultKind::kFanSeized, 1, 2, 30.0, -1.0, 0.0});
  spec.faults.events.push_back(
      {FaultKind::kSensorStuck, 2, 0, 60.0, -1.0, 45.0});
  const RoomParams p = spec.build_room();
  EXPECT_EQ(p.scheduler, "failsafe");
  ASSERT_EQ(p.racks.size(), 3u);
  EXPECT_TRUE(p.racks[0].faults.empty());
  ASSERT_EQ(p.racks[1].faults.size(), 1u);
  EXPECT_EQ(p.racks[1].faults.events[0].rack, 0u);  // re-homed
  EXPECT_EQ(p.racks[1].faults.events[0].kind, FaultKind::kFanSeized);
  ASSERT_EQ(p.racks[2].faults.size(), 1u);
  EXPECT_EQ(p.racks[2].faults.events[0].kind, FaultKind::kSensorStuck);
  for (const CoupledRackParams& rack : p.racks) {
    EXPECT_EQ(rack.rack.num_servers, 4u);
  }
}

// --------------------------------------------------------- JSON round-trip

ScenarioSpec fancy_spec() {
  ScenarioSpec spec;
  spec.racks = 2;
  spec.slots = 6;
  spec.seed = 7;
  spec.duration_s = 450.0;
  spec.dtm = "r-coord";
  spec.coordinator = "failsafe";
  spec.scheduler = "thermal-headroom";
  spec.rack_budget_watts = 800.0;
  spec.room_budget_watts = 1500.0;
  spec.migration_step = 0.2;
  spec.fan_zone = 3;
  spec.plenum = false;
  spec.cross_plenum = false;
  spec.threads = 4;
  spec.trace_dir = "traces/";
  spec.faults.events.push_back(
      {FaultKind::kSensorNoisy, 1, 3, 120.0, 60.0, 3.0});
  return spec;
}

TEST(ScenarioSpec, JsonRoundTripIsExact) {
  const ScenarioSpec spec = fancy_spec();
  EXPECT_EQ(ScenarioSpec::from_json_text(spec.to_json()), spec);
  EXPECT_EQ(ScenarioSpec::from_json_text(ScenarioSpec{}.to_json()),
            ScenarioSpec{});
}

TEST(ScenarioSpec, MissingKeysKeepDefaults) {
  const ScenarioSpec spec =
      ScenarioSpec::from_json_text(R"({"slots": 3, "seed": 5})");
  EXPECT_EQ(spec.slots, 3u);
  EXPECT_EQ(spec.seed, 5u);
  EXPECT_EQ(spec.racks, ScenarioSpec{}.racks);
  EXPECT_EQ(spec.scheduler, ScenarioSpec{}.scheduler);
}

TEST(ScenarioSpec, UnknownKeyThrows) {
  EXPECT_THROW(ScenarioSpec::from_json_text(R"({"slotz": 3})"),
               std::invalid_argument);
}

TEST(ScenarioSpec, RemovedExecutionKeysAreRejectedByName) {
  // The execution path follows the input, so these former A/B switches
  // are unknown keys now: a file that still sets one must fail, naming
  // the key, rather than silently run something else.
  for (const char* key :
       {"batched", "executor", "gather", "two_level", "simd", "chunk"}) {
    SCOPED_TRACE(key);
    const std::string text = std::string("{\"") + key + "\": false}";
    try {
      (void)ScenarioSpec::from_json_text(text);
      ADD_FAILURE() << "accepted the removed key";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(std::string("'") + key + "'"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(ScenarioSpec, MalformedValuesThrow) {
  EXPECT_THROW(ScenarioSpec::from_json_text(R"({"slots": -3})"),
               std::invalid_argument);
  EXPECT_THROW(ScenarioSpec::from_json_text(R"({"slots": 2.5})"),
               std::invalid_argument);
  // Range-checked before the cast, which is undefined past std::size_t.
  EXPECT_THROW(ScenarioSpec::from_json_text(R"({"slots": 1e300})"),
               std::invalid_argument);
  EXPECT_THROW(ScenarioSpec::from_json_text(R"({"threads": 18446744073709551616})"),
               std::invalid_argument);
  EXPECT_THROW(ScenarioSpec::from_json_text(R"({"racks": 1e999})"),
               std::invalid_argument);
  EXPECT_THROW(ScenarioSpec::from_json_text("[]"), std::invalid_argument);
  EXPECT_THROW(ScenarioSpec::from_json_text("{"), std::invalid_argument);
}

TEST(ScenarioSpec, FromJsonFileRoundTrip) {
  const ScenarioSpec spec = fancy_spec();
  const std::string path = "test_scenario_roundtrip.json";
  {
    std::ofstream out(path);
    ASSERT_TRUE(out.is_open());
    out << spec.to_json();
  }
  EXPECT_EQ(ScenarioSpec::from_json_file(path), spec);
  std::remove(path.c_str());
  EXPECT_THROW(ScenarioSpec::from_json_file("no/such/file.json"),
               std::invalid_argument);
}

TEST(ScenarioSpec, NonFiniteNumbersAreRejectedByName) {
  // 1e999 parses to inf; every double knob refuses it, naming the key,
  // as the CLI flags already do.
  for (const char* key :
       {"duration_s", "rack_budget_watts", "room_budget_watts",
        "migration_step", "plant_capacity_watts", "supply_amplitude_c",
        "supply_period_s", "facility_period_s"}) {
    SCOPED_TRACE(key);
    for (const char* value : {"1e999", "-1e999"}) {
      const std::string text =
          std::string("{\"") + key + "\": " + value + "}";
      try {
        (void)ScenarioSpec::from_json_text(text);
        ADD_FAILURE() << "accepted " << text;
      } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find(std::string("'") + key + "'"),
                  std::string::npos)
            << e.what();
      }
    }
  }
}

TEST(ScenarioSpec, HugeDurationIsRejectedBeforeSampling) {
  // Finite but far past any sample count: the workload generator must
  // refuse it by name instead of casting 1e300 samples to an integer.
  const ScenarioSpec spec =
      ScenarioSpec::from_json_text(R"({"duration_s": 1e300})");
  try {
    (void)CoupledRackEngine(spec.build_rack(), 1).run();
    ADD_FAILURE() << "ran a 1e300 s rack";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("too many samples"),
              std::string::npos)
        << e.what();
  }
}

// ------------------------------------------------------- util/json parser

TEST(Json, ParsesScalarsAndNesting) {
  const json::Value v = json::Value::parse(
      R"({"a": 1.5, "b": [true, null, "x\n"], "c": {"d": -2}})");
  EXPECT_DOUBLE_EQ(v.at("a").as_number(), 1.5);
  EXPECT_TRUE(v.at("b").elements()[0].as_bool());
  EXPECT_TRUE(v.at("b").elements()[1].is_null());
  EXPECT_EQ(v.at("b").elements()[2].as_string(), "x\n");
  EXPECT_DOUBLE_EQ(v.at("c").at("d").as_number(), -2.0);
}

TEST(Json, DumpParseRoundTrip) {
  json::Value list = json::Value::array();
  list.push_back(json::Value::number(3.25));
  list.push_back(json::Value::boolean(false));
  json::Value v = json::Value::object();
  v.set("name", json::Value::string("quote \" slash \\ tab \t"));
  v.set("list", std::move(list));
  const json::Value back = json::Value::parse(v.dump(2));
  EXPECT_EQ(back.at("name").as_string(), "quote \" slash \\ tab \t");
  EXPECT_DOUBLE_EQ(back.at("list").elements()[0].as_number(), 3.25);
  EXPECT_FALSE(back.at("list").elements()[1].as_bool());
}

TEST(Json, RejectsMalformedInput) {
  for (const char* text :
       {"{", "[1,]", "{\"a\" 1}", "tru", "\"unterminated", "1 2"}) {
    EXPECT_THROW(json::Value::parse(text), std::invalid_argument) << text;
  }
}

/// The what() of the std::invalid_argument `parse` throws, or "" if none.
template <typename Parse>
std::string rejection(Parse&& parse) {
  try {
    parse();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

std::string nested_arrays(std::size_t depth) {
  return std::string(depth, '[') + std::string(depth, ']');
}

TEST(Json, NestingAtTheLimitParsesAndOneDeeperIsRejectedByName) {
  json::Value v = json::Value::parse(nested_arrays(json::kMaxDepth));
  std::size_t depth = 1;
  for (; !v.elements().empty(); ++depth) v = json::Value(v.elements()[0]);
  EXPECT_EQ(depth, json::kMaxDepth);

  std::string objects;
  for (std::size_t i = 0; i < json::kMaxDepth; ++i) objects += "{\"a\": ";
  objects += "1" + std::string(json::kMaxDepth, '}');
  EXPECT_NO_THROW(json::Value::parse(objects));

  // One level deeper, mixed containers, and far deeper (deep enough to
  // overflow the stack of an unbounded recursion) all throw naming the
  // nesting.
  for (const std::string& text :
       {nested_arrays(json::kMaxDepth + 1), "[" + objects + "]",
        std::string(50000, '[')}) {
    const std::string what = rejection([&] { (void)json::Value::parse(text); });
    EXPECT_NE(what.find("nesting deeper than"), std::string::npos)
        << text.substr(0, 80) << " -> " << what;
  }
  EXPECT_NE(rejection([] {
              (void)ScenarioSpec::from_json_text(
                  "{\"faults\": " + nested_arrays(json::kMaxDepth) + "}");
            }).find("nesting"),
            std::string::npos);
}

TEST(Json, DuplicateKeyIsRejectedByName) {
  for (const char* text :
       {R"({"slots": 4, "slots": 8})", R"({"a": {"b": 1, "c": 2, "b": 3}})",
        R"([{"x": 1}, {"y": 1, "x": 2, "y": 3}])"}) {
    const std::string what = rejection([&] { (void)json::Value::parse(text); });
    EXPECT_NE(what.find("duplicate key '"), std::string::npos)
        << text << " -> " << what;
  }
  EXPECT_NE(rejection([] {
              (void)ScenarioSpec::from_json_text(R"({"slots": 4, "slots": 8})");
            }).find("duplicate key 'slots'"),
            std::string::npos);
  std::vector<std::pair<std::string, json::Value>> members;
  members.emplace_back("k", json::Value::number(1));
  members.emplace_back("k", json::Value::number(2));
  EXPECT_NE(rejection([&] { (void)json::Value::object(std::move(members)); })
                .find("duplicate key 'k'"),
            std::string::npos);
  // Equal values under distinct keys, and the same key in a nested
  // object, are not duplicates.
  EXPECT_NO_THROW(json::Value::parse(R"({"a": 1, "b": 1, "c": {"a": 1}})"));
}

TEST(Json, WideObjectParsesAndRoundTrips) {
  constexpr std::size_t kKeys = 100000;
  std::string text = "{";
  for (std::size_t i = 0; i < kKeys; ++i) {
    if (i > 0) text += ", ";
    text += "\"k" + std::to_string(i) + "\": " + std::to_string(i);
  }
  text += "}";
  const json::Value v = json::Value::parse(text);
  ASSERT_EQ(v.size(), kKeys);
  for (const std::size_t i : {std::size_t{0}, kKeys / 2, kKeys - 1}) {
    EXPECT_EQ(v.members()[i].first, "k" + std::to_string(i));
    EXPECT_EQ(v.members()[i].second.as_index(), i);
  }
  EXPECT_EQ(json::Value::parse(v.dump()).dump(), v.dump());
  EXPECT_EQ(v.dump(), text);
}

// ------------------------------------------------------ unified registry

TEST(Registry, EveryListedEntryRoundTripsThroughMake) {
  const auto& factory = PolicyFactory::instance();

  const SolutionConfig scfg;
  for (const PolicyListing& e : factory.list_policies()) {
    SCOPED_TRACE(e.name);
    EXPECT_FALSE(e.description.empty());
    EXPECT_TRUE(factory.contains(e.name));
    EXPECT_EQ(factory.describe(e.name), e.description);
    EXPECT_NE(factory.make(e.name, scfg), nullptr);
  }

  const CoordinatorConfig ccfg;
  for (const PolicyListing& e : factory.list_coordinators()) {
    SCOPED_TRACE(e.name);
    EXPECT_FALSE(e.description.empty());
    EXPECT_EQ(factory.describe_coordinator(e.name), e.description);
    const auto coord = factory.make_coordinator(e.name, ccfg);
    ASSERT_NE(coord, nullptr);
    EXPECT_EQ(coord->name(), e.name);
  }

  const RoomSchedulerConfig rcfg;
  for (const PolicyListing& e : factory.list_room_schedulers()) {
    SCOPED_TRACE(e.name);
    EXPECT_FALSE(e.description.empty());
    EXPECT_EQ(factory.describe_room_scheduler(e.name), e.description);
    const auto sched = factory.make_room_scheduler(e.name, rcfg);
    ASSERT_NE(sched, nullptr);
    EXPECT_EQ(sched->name(), e.name);
  }
}

TEST(Registry, ListingsMatchSortedNames) {
  const auto& factory = PolicyFactory::instance();
  const auto check = [](std::vector<PolicyListing> listed,
                        std::vector<std::string> names) {
    ASSERT_EQ(listed.size(), names.size());
    std::vector<std::string> listed_names;
    for (const auto& e : listed) listed_names.push_back(e.name);
    std::sort(listed_names.begin(), listed_names.end());
    EXPECT_EQ(listed_names, names);  // names() is sorted
  };
  check(factory.list_policies(), factory.names());
  check(factory.list_coordinators(), factory.coordinator_names());
  check(factory.list_room_schedulers(), factory.room_scheduler_names());
}

TEST(Registry, FailsafePoliciesRegisterThroughTheSamePath) {
  const auto& factory = PolicyFactory::instance();
  EXPECT_TRUE(factory.contains_coordinator("failsafe"));
  EXPECT_TRUE(factory.contains_room_scheduler("failsafe"));
}

TEST(Registry, DuplicateAndEmptyRegistrationsThrow) {
  auto& factory = PolicyFactory::instance();
  EXPECT_THROW(factory.register_coordinator(
                   "independent", "dup",
                   [](const CoordinatorConfig&)
                       -> std::unique_ptr<RackCoordinator> { return nullptr; }),
               std::invalid_argument);
  EXPECT_THROW(
      factory.register_policy("", "empty name",
                              [](const SolutionConfig&)
                                  -> std::unique_ptr<DtmPolicy> {
                                return nullptr;
                              }),
      std::invalid_argument);
  EXPECT_THROW(
      factory.register_room_scheduler("null-builder", "null", nullptr),
      std::invalid_argument);
}

TEST(Registry, UnknownNamesThrowListingKnown) {
  const auto& factory = PolicyFactory::instance();
  try {
    factory.make_room_scheduler("no-such-scheduler", RoomSchedulerConfig{});
    FAIL() << "expected std::out_of_range";
  } catch (const std::out_of_range& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("room scheduler"), std::string::npos);
    EXPECT_NE(what.find("static"), std::string::npos);  // lists the known
  }
}

}  // namespace
}  // namespace fsc
