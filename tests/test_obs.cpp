// obs/ subsystem tests: counter slot merging (deterministic, exact under
// concurrency), gauge/histogram semantics, registry snapshot ordering,
// Perfetto trace JSON validity + span nesting, snapshot exporter output,
// run manifest serialization — and the cross-layer contract: attaching
// telemetry to the rack/room engines is bit-identical to running
// detached, and the merged counters are identical across thread counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "coord/coupled_rack_engine.hpp"
#include "facility/facility_engine.hpp"
#include "fault/fault_plan.hpp"
#include "obs/manifest.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/progress.hpp"
#include "obs/snapshot.hpp"
#include "obs/trace.hpp"
#include "room/room_engine.hpp"

namespace fsc {
namespace {

// ------------------------------------------------- tiny JSON validator
//
// Recursive-descent acceptor for the JSON grammar — enough to assert
// "python3 -m json.tool would accept this" without a JSON dependency.

struct JsonCursor {
  const std::string& s;
  std::size_t i = 0;
  bool ok = true;

  void fail() { ok = false; }
  void ws() {
    while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i]))) ++i;
  }
  bool eat(char c) {
    ws();
    if (i < s.size() && s[i] == c) {
      ++i;
      return true;
    }
    return false;
  }
  void expect(char c) {
    if (!eat(c)) fail();
  }
  void string() {
    expect('"');
    while (ok && i < s.size() && s[i] != '"') {
      if (s[i] == '\\') {
        ++i;
        if (i >= s.size()) return fail();
      }
      ++i;
    }
    expect('"');
  }
  void number() {
    ws();
    const std::size_t start = i;
    if (i < s.size() && (s[i] == '-' || s[i] == '+')) ++i;
    while (i < s.size() &&
           (std::isdigit(static_cast<unsigned char>(s[i])) || s[i] == '.' ||
            s[i] == 'e' || s[i] == 'E' || s[i] == '-' || s[i] == '+')) {
      ++i;
    }
    if (i == start) fail();
  }
  void literal(const char* lit) {
    ws();
    for (; *lit != '\0'; ++lit, ++i) {
      if (i >= s.size() || s[i] != *lit) return fail();
    }
  }
  void value() {
    if (!ok) return;
    ws();
    if (i >= s.size()) return fail();
    switch (s[i]) {
      case '{': object(); break;
      case '[': array(); break;
      case '"': string(); break;
      case 't': literal("true"); break;
      case 'f': literal("false"); break;
      case 'n': literal("null"); break;
      default: number();
    }
  }
  void object() {
    expect('{');
    if (eat('}')) return;
    do {
      string();
      expect(':');
      value();
    } while (ok && eat(','));
    expect('}');
  }
  void array() {
    expect('[');
    if (eat(']')) return;
    do {
      value();
    } while (ok && eat(','));
    expect(']');
  }
};

bool valid_json(const std::string& text) {
  JsonCursor c{text};
  c.value();
  c.ws();
  return c.ok && c.i == text.size();
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

// ------------------------------------------------------------- Counter

TEST(ObsCounter, SlotsMergeDeterministically) {
  obs::Counter c(4);
  EXPECT_EQ(c.slots(), 4u);
  c.add(10, 0);
  c.add(20, 1);
  c.add(30, 6);  // wraps to slot 2
  c.increment(3);
  EXPECT_EQ(c.slot_value(0), 10u);
  EXPECT_EQ(c.slot_value(1), 20u);
  EXPECT_EQ(c.slot_value(2), 30u);
  EXPECT_EQ(c.slot_value(3), 1u);
  EXPECT_EQ(c.value(), 61u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(ObsCounter, ConcurrentAddsAreExact) {
  obs::Counter c(8);
  constexpr std::uint64_t kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&c, t] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        c.add(1, static_cast<std::size_t>(t));
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(c.value(), 8 * kPerThread);  // u64 adds: no lost updates
  for (std::size_t s = 0; s < 8; ++s) EXPECT_EQ(c.slot_value(s), kPerThread);
}

TEST(ObsCounter, ZeroSlotCountClampsToOne) {
  obs::Counter c(0);
  EXPECT_EQ(c.slots(), 1u);
  c.add(5, 123);
  EXPECT_EQ(c.value(), 5u);
}

// --------------------------------------------------------------- Gauge

TEST(ObsGauge, LastWriteWins) {
  obs::Gauge g;
  EXPECT_EQ(g.value(), 0.0);
  g.set(3.25);
  EXPECT_EQ(g.value(), 3.25);
  g.set(-1e300);
  EXPECT_EQ(g.value(), -1e300);
}

// ----------------------------------------------------------- Histogram

TEST(ObsHistogram, BucketsByPowerOfTwo) {
  EXPECT_EQ(obs::Histogram::bucket_index(0), 0u);
  EXPECT_EQ(obs::Histogram::bucket_index(1), 0u);
  EXPECT_EQ(obs::Histogram::bucket_index(2), 1u);
  EXPECT_EQ(obs::Histogram::bucket_index(1023), 9u);
  EXPECT_EQ(obs::Histogram::bucket_index(1024), 10u);

  obs::Histogram h;
  h.observe(3);
  h.observe(5);
  h.observe(1000);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.sum(), 1008u);
  EXPECT_DOUBLE_EQ(h.mean(), 336.0);
  EXPECT_EQ(h.bucket(1), 1u);  // 3 in [2, 4)
  EXPECT_EQ(h.bucket(2), 1u);  // 5 in [4, 8)
  EXPECT_EQ(h.bucket(9), 1u);  // 1000 in [512, 1024)
  // p50 lands in the bucket of the median observation (5 -> [4, 8)).
  EXPECT_EQ(h.percentile(0.5), 8u);
  EXPECT_EQ(h.percentile(1.0), 1024u);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.percentile(0.5), 0u);
}

// ------------------------------------------------------------ Registry

TEST(ObsRegistry, GetOrCreateReturnsStableReferences) {
  obs::MetricsRegistry reg(4);
  obs::Counter& a = reg.counter("x");
  obs::Counter& b = reg.counter("x");
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(a.slots(), 4u);  // registry counters inherit the shard slots
  a.add(7, 2);
  EXPECT_EQ(reg.counter("x").value(), 7u);
  EXPECT_NE(&reg.counter("y"), &a);
}

TEST(ObsRegistry, SnapshotWalksRegistrationOrder) {
  obs::MetricsRegistry reg;
  reg.counter("b").add(2);
  reg.counter("a").add(1);
  reg.gauge("g").set(0.5);
  reg.histogram("h").observe(100);
  const auto snap = reg.snapshot();
  ASSERT_EQ(snap.counters.size(), 2u);
  EXPECT_EQ(snap.counters[0].first, "b");  // registration, not lexical
  EXPECT_EQ(snap.counters[1].first, "a");
  EXPECT_EQ(snap.counter("b"), 2u);
  EXPECT_EQ(snap.counter("absent"), 0u);
  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_EQ(snap.gauges[0].second, 0.5);
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].count, 1u);
}

TEST(ObsRegistry, ToJsonIsValidJson) {
  obs::MetricsRegistry reg;
  reg.counter("room.rounds").add(12);
  reg.gauge("room.time_s").set(360.0);
  reg.histogram("room.round_ns").observe(1234567);
  const std::string json = reg.to_json();
  EXPECT_TRUE(valid_json(json)) << json;
  EXPECT_NE(json.find("\"room.rounds\": 12"), std::string::npos);
}

// --------------------------------------------------------------- Trace

TEST(ObsTrace, WritesValidNestedTraceEventJson) {
  obs::TraceRecorder rec;
  {
    const std::int64_t t0 = obs::monotonic_ns();
    const std::int64_t t1 = obs::monotonic_ns();
    rec.complete("outer", "round", t0, obs::monotonic_ns(), 0, 0, 1);
    rec.complete("inner", "exec", t0, t1, 0, 3, 1);  // nested in outer
    rec.instant("mark", "sched", 2, 0, 1);
  }
  std::thread other([&rec] {
    const std::int64_t t0 = obs::monotonic_ns();
    rec.complete("worker", "exec", t0, obs::monotonic_ns(), 1, 7, 2);
  });
  other.join();
  EXPECT_EQ(rec.recorded_events(), 4u);
  EXPECT_EQ(rec.dropped_events(), 0u);

  std::ostringstream os;
  rec.write_json(os, "{\"seed\": 1}");
  const std::string json = os.str();
  EXPECT_TRUE(valid_json(json)) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"otherData\""), std::string::npos);
  EXPECT_NE(json.find("\"outer\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"i\""), std::string::npos);  // the instant
  // Two recording threads -> two thread_name metadata rows.
  std::size_t tracks = 0, pos = 0;
  while ((pos = json.find("thread_name", pos)) != std::string::npos) {
    ++tracks;
    ++pos;
  }
  EXPECT_EQ(tracks, 2u);
}

/// The "round" args of a trace's events, in write_json order.
std::vector<std::int64_t> written_rounds(const obs::TraceRecorder& rec) {
  std::ostringstream os;
  rec.write_json(os);
  const std::string json = os.str();
  std::vector<std::int64_t> rounds;
  const std::string key = "\"round\": ";
  for (std::size_t at = json.find(key); at != std::string::npos;
       at = json.find(key, at + 1)) {
    rounds.push_back(std::stoll(json.substr(at + key.size())));
  }
  return rounds;
}

TEST(ObsTrace, OverflowEvictsOldestAndCounts) {
  obs::TraceRecorder rec(4);
  for (int i = 0; i < 3; ++i) {
    rec.complete("e", "c", i, i + 1, 0, 0, i);
  }
  EXPECT_EQ(rec.recorded_events(), 3u);
  EXPECT_EQ(rec.dropped_events(), 0u);
  EXPECT_EQ(written_rounds(rec), (std::vector<std::int64_t>{0, 1, 2}));
  // Seven more overflow it six times: the newest four survive, oldest first.
  for (int i = 3; i < 10; ++i) {
    rec.complete("e", "c", i, i + 1, 0, 0, i);
  }
  EXPECT_EQ(rec.recorded_events(), 4u);
  EXPECT_EQ(rec.dropped_events(), 6u);
  EXPECT_EQ(written_rounds(rec), (std::vector<std::int64_t>{6, 7, 8, 9}));
}

TEST(ObsTrace, InternStoresStableCopies) {
  obs::TraceRecorder rec;
  std::string name = "thermal-headroom";
  const char* a = rec.intern(name);
  name[0] = 'X';  // the interned copy must not alias caller storage
  EXPECT_STREQ(a, "thermal-headroom");
  EXPECT_EQ(rec.intern("thermal-headroom"), a);  // deduplicated
}

TEST(ObsTrace, ScopedSpanOnNullRecorderIsNoOp) {
  const obs::ScopedSpan span(nullptr, "name", "cat");  // must not crash
  obs::Telemetry t;
  EXPECT_FALSE(t.attached());
  t.trace = reinterpret_cast<obs::TraceRecorder*>(0x1);
  EXPECT_TRUE(t.attached());
}

// ------------------------------------------------------------ Manifest

TEST(ObsManifest, CollectsAndSerializesValidJson) {
  obs::RunManifest m = obs::RunManifest::collect();
  EXPECT_FALSE(m.git_describe.empty());
  m.threads = 4;
  m.seed = 99;
  m.command = "fsc --racks 4 \"quoted\"";
  const std::string json = m.to_json();
  EXPECT_TRUE(valid_json(json)) << json;
  EXPECT_NE(json.find("\"seed\": 99"), std::string::npos);
  EXPECT_NE(json.find("\\\"quoted\\\""), std::string::npos);
}

TEST(ObsManifest, CommandLineJoinsArgv) {
  const char* argv[] = {"prog", "--x", "1"};
  EXPECT_EQ(obs::command_line(3, const_cast<char**>(argv)), "prog --x 1");
}

// ---------------------------------------------------- SnapshotExporter

obs::SnapshotExporter::Row sample_row(std::size_t round) {
  obs::SnapshotExporter::Row r;
  r.round = round;
  r.time_s = static_cast<double>(round) * 30.0;
  r.rack = 0;
  r.cpu_watts = 500.0;
  r.mean_inlet_c = 30.0;
  r.max_inlet_c = 31.0;
  r.mean_fan_rpm = 6000.0;
  r.total_violations = round;
  return r;
}

TEST(ObsSnapshot, WritesCsvWithHeader) {
  const std::string path = testing::TempDir() + "obs_rows.csv";
  {
    obs::SnapshotExporter exporter(path, 5);
    ASSERT_TRUE(exporter.ok());
    EXPECT_FALSE(exporter.due(4));
    EXPECT_TRUE(exporter.due(5));
    EXPECT_FALSE(exporter.due(0));
    exporter.write(sample_row(5));
    exporter.write(sample_row(10));
  }
  const std::string text = slurp(path);
  EXPECT_EQ(text.find(obs::SnapshotExporter::header_csv()), 0u);
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 3);
  std::remove(path.c_str());
}

TEST(ObsSnapshot, JsonExtensionSelectsValidJsonArray) {
  const std::string path = testing::TempDir() + "obs_rows.json";
  {
    obs::SnapshotExporter exporter(path, 2);
    ASSERT_TRUE(exporter.ok());
    exporter.write(sample_row(2));
    exporter.write(sample_row(4));
    exporter.close();
    exporter.close();  // idempotent
  }
  const std::string text = slurp(path);
  EXPECT_TRUE(valid_json(text)) << text;
  EXPECT_NE(text.find("\"round\": 2"), std::string::npos);
  std::remove(path.c_str());
}

TEST(ObsSnapshot, EmptyJsonRunStillClosesTheArray) {
  const std::string path = testing::TempDir() + "obs_empty.json";
  { obs::SnapshotExporter exporter(path, 1); }
  EXPECT_TRUE(valid_json(slurp(path)));
  std::remove(path.c_str());
}

// ------------------------------------------------------- ProgressMeter

TEST(ObsProgress, TicksAndFinishReportToStream) {
  std::ostringstream os;
  obs::ProgressMeter meter(600.0, 0.0, &os);
  meter.tick(10, 300.0, 2);
  meter.finish(20, 600.0, 5);
  const std::string text = os.str();
  EXPECT_NE(text.find("progress:"), std::string::npos);
  EXPECT_NE(text.find("done:"), std::string::npos);
  EXPECT_NE(text.find("violations 5"), std::string::npos);
  EXPECT_NE(text.find("50.0%"), std::string::npos);
}

// ------------------------------------- engine attachment (hook sites)

CoupledRackParams small_rack(std::uint64_t seed, std::size_t n = 5,
                             double duration_s = 120.0) {
  CoupledRackParams p;
  p.rack.num_servers = n;
  p.rack.base_seed = seed;
  p.rack.sim.duration_s = duration_s;
  p.rack.sim.initial_utilization = 0.1;
  p.rack.workload.base.duration_s = duration_s;
  p.coord.coordination_period_s = 30.0;
  return p;
}

RoomParams small_room(std::size_t racks = 2, std::size_t slots = 5,
                      double duration_s = 120.0) {
  RoomParams p;
  for (std::size_t i = 0; i < racks; ++i) {
    p.racks.push_back(small_rack(1000 + i, slots, duration_s));
  }
  p.scheduler = "thermal-headroom";
  p.sched.hysteresis_celsius = 0.25;  // migrations actually fire
  return p;
}

void expect_identical(const CoupledRackResult& a, const CoupledRackResult& b) {
  ASSERT_EQ(a.slots.size(), b.slots.size());
  EXPECT_EQ(a.fan_energy_joules, b.fan_energy_joules);
  EXPECT_EQ(a.cpu_energy_joules, b.cpu_energy_joules);
  EXPECT_EQ(a.deadline_violation_percent, b.deadline_violation_percent);
  EXPECT_EQ(a.thermal_violation_percent, b.thermal_violation_percent);
  EXPECT_EQ(a.max_junction_stats.max(), b.max_junction_stats.max());
  EXPECT_EQ(a.coordination_rounds, b.coordination_rounds);
  for (std::size_t i = 0; i < a.slots.size(); ++i) {
    EXPECT_EQ(a.slots[i].deadline_violations, b.slots[i].deadline_violations)
        << i;
    EXPECT_EQ(a.slots[i].result.fan_energy_joules,
              b.slots[i].result.fan_energy_joules)
        << i;
    EXPECT_EQ(a.slots[i].inlet_stats.mean(), b.slots[i].inlet_stats.mean())
        << i;
    EXPECT_EQ(a.slots[i].fan_override_rounds, b.slots[i].fan_override_rounds)
        << i;
  }
}

void expect_identical(const RoomResult& a, const RoomResult& b) {
  ASSERT_EQ(a.racks.size(), b.racks.size());
  EXPECT_EQ(a.fan_energy_joules, b.fan_energy_joules);
  EXPECT_EQ(a.cpu_energy_joules, b.cpu_energy_joules);
  EXPECT_EQ(a.deadline_violation_percent, b.deadline_violation_percent);
  EXPECT_EQ(a.migration_events, b.migration_events);
  for (std::size_t i = 0; i < a.racks.size(); ++i) {
    EXPECT_EQ(a.racks[i].final_demand_scale, b.racks[i].final_demand_scale)
        << i;
    expect_identical(a.racks[i].result, b.racks[i].result);
  }
}

TEST(ObsEngine, RackBitIdenticalWithTelemetryAttached) {
  const CoupledRackParams detached = small_rack(77);
  const CoupledRackResult base = CoupledRackEngine(detached, 2).run();

  obs::MetricsRegistry registry(2);
  obs::TraceRecorder trace;
  CoupledRackParams attached = small_rack(77);
  attached.obs.metrics = &registry;
  attached.obs.trace = &trace;
  const CoupledRackResult observed = CoupledRackEngine(attached, 2).run();

  expect_identical(base, observed);
  EXPECT_GT(registry.snapshot().counter("rack.rounds"), 0u);
  EXPECT_GT(trace.recorded_events(), 0u);
}

TEST(ObsEngine, RoomBitIdenticalWithAllSinksAttached) {
  const RoomResult base = RoomEngine(small_room(), 2).run();

  obs::MetricsRegistry registry(2);
  obs::TraceRecorder trace;
  const std::string series = testing::TempDir() + "obs_series.json";
  obs::SnapshotExporter exporter(series, 2);
  std::ostringstream progress_os;
  obs::ProgressMeter progress(120.0, 0.0, &progress_os);

  RoomParams attached = small_room();
  attached.obs.metrics = &registry;
  attached.obs.trace = &trace;
  attached.obs.snapshot = &exporter;
  attached.obs.progress = &progress;
  const RoomResult observed = RoomEngine(attached, 2).run();

  expect_identical(base, observed);
  EXPECT_TRUE(valid_json(slurp(series)));
  EXPECT_NE(progress_os.str().find("done:"), std::string::npos);
  std::remove(series.c_str());
}

TEST(ObsEngine, RegistryCountersIdenticalAcrossThreadCounts) {
  std::vector<std::pair<std::string, std::uint64_t>> reference;
  for (const std::size_t threads : {1u, 2u, 8u}) {
    obs::MetricsRegistry registry(threads);
    // 19-slot racks: two full 8-lane chunks and a ragged tail each, so
    // the threads split every rack, not only the room.
    RoomParams p = small_room(2, 19);
    p.obs.metrics = &registry;
    RoomEngine(p, threads).run();
    const auto counters = registry.snapshot().counters;
    if (reference.empty()) {
      reference = counters;
      EXPECT_GT(registry.snapshot().counter("batch.memo_hit"), 0u);
      // 120 s / 30 s = 4 stepping rounds; the final one ends the run
      // before the scheduling tail, so 3 scheduled rounds are counted.
      EXPECT_EQ(registry.snapshot().counter("room.rounds"), 3u);
    } else {
      // Same names, same order, same merged totals — shard partials moved
      // between slots, the merge did not.
      EXPECT_EQ(counters, reference) << threads << " threads";
    }
  }
}

TEST(ObsEngine, EveryRackRegistersAPrefixOfOneNameSequence) {
  // A room builds its racks concurrently, so the registry's name order is
  // deterministic only if every rack registers a prefix of one sequence:
  // a faulted rack's fault counters come after the names every rack has.
  obs::MetricsRegistry registry;
  CoupledRackParams p = small_rack(11);
  p.faults.events.push_back({FaultKind::kFanSeized, 0, 1, 30.0, -1.0, 0.0});
  p.obs.metrics = &registry;
  const CoupledRackEngine::Session session(p);
  std::vector<std::string> names;
  for (const auto& counter : registry.snapshot().counters) {
    names.push_back(counter.first);
  }
  EXPECT_EQ(names, (std::vector<std::string>{
                       "rack.rounds", "rack.fan_override_rounds",
                       "batch.memo_hit", "batch.memo_shared_hit",
                       "batch.memo_miss", "fault.events_armed",
                       "fault.events_cleared"}));
}

TEST(ObsEngine, BatchAccessorsReadTheAttachedRegistry) {
  obs::MetricsRegistry registry;
  CoupledRackParams p = small_rack(11);
  p.obs.metrics = &registry;
  const CoupledRackEngine engine(p, 1);
  engine.run();
  const auto snap = registry.snapshot();
  EXPECT_GT(snap.counter("batch.memo_hit") + snap.counter("batch.memo_miss"),
            0u);
}

TEST(ObsEngine, TraceSpansCoverEveryLayerAndNest) {
  obs::MetricsRegistry registry;
  obs::TraceRecorder trace;
  RoomParams p = small_room();
  p.obs.metrics = &registry;
  p.obs.trace = &trace;
  const RoomResult result = RoomEngine(p, 2).run();

  std::ostringstream os;
  trace.write_json(os);
  const std::string json = os.str();
  ASSERT_TRUE(valid_json(json)) << json.substr(0, 400);
  for (const char* name : {"room.rack_setup", "room.round", "room.schedule",
                           "room.plenum", "rack.shard", "rack.coord",
                           "rack.plenum"}) {
    EXPECT_NE(json.find(std::string("\"") + name + "\""), std::string::npos)
        << name;
  }
  // Migration instants mirror the engine's own count.
  std::size_t instants = 0, pos = 0;
  while ((pos = json.find("\"room.migration\"", pos)) != std::string::npos) {
    ++instants;
    ++pos;
  }
  EXPECT_EQ(instants, result.migration_events);
  EXPECT_GT(result.migration_events, 0u);  // scenario is tuned to migrate

  // Spans on one track must nest: any two either disjoint or contained.
  // Parse (tid, ts, dur) off each complete-event line (one event per
  // line, fixed key order — the writer is ours).
  struct Span {
    int tid;
    double ts, dur;
  };
  std::vector<Span> spans;
  std::istringstream lines(json);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.find("\"ph\": \"X\"") == std::string::npos) continue;
    Span s{};
    const auto num_after = [&line](const char* key) {
      const std::size_t k = line.find(key);
      EXPECT_NE(k, std::string::npos) << line;
      return std::atof(line.c_str() + k + std::strlen(key));
    };
    s.tid = static_cast<int>(num_after("\"tid\": "));
    s.ts = num_after("\"ts\": ");
    s.dur = num_after("\"dur\": ");
    spans.push_back(s);
  }
  ASSERT_GT(spans.size(), 8u);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    for (std::size_t j = i + 1; j < spans.size(); ++j) {
      const Span& a = spans[i];
      const Span& b = spans[j];
      if (a.tid != b.tid) continue;
      const double a0 = a.ts, a1 = a.ts + a.dur;
      const double b0 = b.ts, b1 = b.ts + b.dur;
      const bool disjoint = a1 <= b0 || b1 <= a0;
      const bool a_in_b = b0 <= a0 && a1 <= b1;
      const bool b_in_a = a0 <= b0 && b1 <= a1;
      EXPECT_TRUE(disjoint || a_in_b || b_in_a)
          << "spans overlap without nesting on tid " << a.tid << ": [" << a0
          << "," << a1 << ") vs [" << b0 << "," << b1 << ")";
    }
  }
}

/// Occurrences of the quoted event name `name` in trace JSON `json`.
std::size_t count_events(const std::string& json, const char* name) {
  const std::string quoted = std::string("\"") + name + "\"";
  std::size_t n = 0;
  for (std::size_t pos = 0; (pos = json.find(quoted, pos)) != std::string::npos;
       pos += quoted.size()) {
    ++n;
  }
  return n;
}

TEST(ObsEngine, FacilitySetupSpansLeaveTheRunBitIdentical) {
  // Three rooms of two racks on two threads: one leader builds two rooms.
  const FacilityParams detached = default_facility_scenario(3, 2, 42, 120.0);
  const FacilityResult base = FacilityEngine(detached, 2).run();

  obs::TraceRecorder trace;
  FacilityParams attached = detached;
  attached.obs.trace = &trace;
  const FacilityResult observed = FacilityEngine(attached, 2).run();

  EXPECT_EQ(base.to_json(), observed.to_json());
  EXPECT_EQ(base.fan_energy_joules, observed.fan_energy_joules);
  EXPECT_EQ(base.cpu_energy_joules, observed.cpu_energy_joules);
  std::ostringstream os;
  trace.write_json(os);
  const std::string json = os.str();
  ASSERT_TRUE(valid_json(json)) << json.substr(0, 400);
  EXPECT_EQ(count_events(json, "facility.room_setup"), 3u);
  EXPECT_EQ(count_events(json, "room.rack_setup"), 6u);
}

TEST(ObsEngine, SnapshotExporterEmitsPerRackAndAggregateRows) {
  obs::MetricsRegistry registry;
  const std::string path = testing::TempDir() + "obs_room_series.csv";
  obs::SnapshotExporter exporter(path, 1);
  RoomParams p = small_room();
  p.obs.metrics = &registry;
  p.obs.snapshot = &exporter;
  RoomEngine(p, 1).run();
  const std::string text = slurp(path);
  // 3 scheduled rounds, cadence 1 -> 3 x (2 racks + 1 aggregate) + header.
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 10);
  EXPECT_NE(text.find(",-1,"), std::string::npos);  // the aggregate row
  std::remove(path.c_str());
}

}  // namespace
}  // namespace fsc
