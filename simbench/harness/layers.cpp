#include "layers.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "batch/rack_stepper.hpp"
#include "batch/server_batch.hpp"
#include "core/controller.hpp"
#include "core/policy_factory.hpp"
#include "facility/cooling_plant.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "rack/rack.hpp"
#include "sim/instrumentation.hpp"
#include "util/json.hpp"
#include "util/lockstep_executor.hpp"
#include "util/rng.hpp"

namespace simbench {

namespace {

using fsc::obs::MetricsRegistry;
using fsc::obs::TraceRecorder;

/// One shard's busy time on its own cache line: shards run on different
/// workers, and a shared line would bill false sharing to the very time
/// being measured.
struct alignas(64) BusyCell {
  std::int64_t ns = 0;
};

/// What one driven rack or room run spent where.
struct Driven {
  std::int64_t wall_ns = 0;    ///< session construction .. finish()
  std::int64_t setup_ns = 0;   ///< session construction
  std::int64_t wave_ns = 0;    ///< sum of executor waves
  std::int64_t busy_ns = 0;    ///< sum of run_shard calls
  std::int64_t serial_ns = 0;  ///< sum of finish_round / coordinate_round
  std::vector<double> round_ns;
  Outcome outcome;
};

/// The run() loop of the rack and room engines with every call timed: one
/// executor wave of run_shard calls per round, then the serial tail.
template <typename SessionT, typename Params>
Driven drive(const Params& params, std::size_t threads, TraceRecorder* rec) {
  constexpr bool kRoom = std::is_same_v<SessionT, fsc::RoomEngine::Session>;
  const char* tail_name = kRoom ? "bench.finish_round" : "bench.coordinate_round";
  Driven d;
  const std::int64_t t0 = now_ns();
  SessionT session(params);
  const std::int64_t t1 = now_ns();
  d.setup_ns = t1 - t0;
  if (rec != nullptr) rec->complete("bench.session_setup", "bench", t0, t1);

  fsc::LockstepExecutor executor(threads);
  const std::size_t shards = session.num_shards();
  std::vector<BusyCell> busy(shards);
  std::int64_t round = 0;
  while (!session.done()) {
    if constexpr (kRoom) session.mark_round_start();
    const std::int64_t w0 = now_ns();
    executor.run(shards, [&](std::size_t i) {
      const std::int64_t s0 = now_ns();
      session.run_shard(i);
      const std::int64_t s1 = now_ns();
      busy[i].ns += s1 - s0;
      if (rec != nullptr) {
        rec->complete("bench.shard", "exec", s0, s1, 0,
                      static_cast<std::uint32_t>(i), round);
      }
    });
    const std::int64_t w1 = now_ns();
    if constexpr (kRoom) {
      session.finish_round();
    } else {
      session.coordinate_round();
    }
    const std::int64_t w2 = now_ns();
    if (rec != nullptr) {
      rec->complete("bench.wave", "round", w0, w1, 0, 0, round);
      rec->complete(tail_name, "round", w1, w2, 0, 0, round);
    }
    d.wave_ns += w1 - w0;
    d.serial_ns += w2 - w1;
    d.round_ns.push_back(static_cast<double>(w2 - w0));
    ++round;
  }
  const std::int64_t f0 = now_ns();
  const auto result = session.finish();
  const std::int64_t t2 = now_ns();
  if (rec != nullptr) {
    rec->complete("bench.finish", "bench", f0, t2);
    rec->complete("bench.run", "bench", t0, t2);
  }
  d.wall_ns = t2 - t0;
  for (const BusyCell& b : busy) d.busy_ns += b.ns;
  d.outcome = outcome_of(result);
  return d;
}

/// Sums of the program's own spans in a recorder, read back from the
/// Perfetto JSON it writes.
struct SpanSums {
  double shard_ns = 0.0;  ///< "rack.shard"
  /// Per facility round, the slowest room group's "facility.room_rounds".
  std::map<long, double> slowest_group_ns;
};

SpanSums sum_spans(const TraceRecorder& rec) {
  std::ostringstream os;
  rec.write_json(os);
  const fsc::json::Value doc = fsc::json::Value::parse(os.str());
  SpanSums sums;
  for (const fsc::json::Value& ev : doc.at("traceEvents").elements()) {
    const fsc::json::Value* dur = ev.find("dur");
    if (dur == nullptr) continue;
    const std::string& name = ev.at("name").as_string();
    const double ns = dur->as_number() * 1000.0;
    if (name == "rack.shard") {
      sums.shard_ns += ns;
    } else if (name == "facility.room_rounds") {
      const long round = static_cast<long>(ev.at("args").at("round").as_number());
      double& slowest = sums.slowest_group_ns[round];
      slowest = std::max(slowest, ns);
    }
  }
  return sums;
}

/// Percentile over the union of log2 histograms: the upper bound of the
/// bucket holding the q-quantile observation (2x resolution).
double merged_percentile(const std::vector<fsc::obs::Histogram*>& hists,
                         double q, std::uint64_t* count) {
  std::vector<std::uint64_t> buckets(fsc::obs::Histogram::kBuckets, 0);
  std::uint64_t n = 0;
  for (const fsc::obs::Histogram* h : hists) {
    for (std::size_t i = 0; i < buckets.size(); ++i) buckets[i] += h->bucket(i);
    n += h->count();
  }
  *count = n;
  if (n == 0) return 0.0;
  const std::uint64_t rank =
      std::min(n - 1, static_cast<std::uint64_t>(q * static_cast<double>(n)));
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    seen += buckets[i];
    if (seen > rank) {
      return static_cast<double>(fsc::obs::Histogram::upper_bound(i));
    }
  }
  return static_cast<double>(
      fsc::obs::Histogram::upper_bound(buckets.size() - 1));
}

/// One server of the probe fleet, built exactly as the rack engine builds
/// its slots (same spec, workload, policy and sinks).
struct ProbeSlot {
  fsc::Rng rng;
  std::shared_ptr<const fsc::Workload> workload;
  fsc::Server server;
  std::unique_ptr<fsc::DtmPolicy> policy;
  fsc::SimulationEngine engine;
  fsc::DeadlineStatsSink deadline;
  fsc::ThermalViolationSink thermal;
  fsc::EnergyAccumulatorSink energy;
  std::unique_ptr<fsc::SimulationEngine::Session> session;
  double fan_min_rpm;
  double fan_max_rpm;

  ProbeSlot(const fsc::RackServerSpec& spec, const std::string& policy_name,
            const fsc::SimulationParams& sim)
      : rng(spec.seed),
        workload(fsc::make_slot_workload(spec, rng)),
        server(spec.server, spec.solution.initial_fan_rpm, rng),
        policy(fsc::PolicyFactory::instance().make(policy_name, spec.solution)),
        engine(sim),
        fan_min_rpm(spec.solution.fan_params.min_speed_rpm),
        fan_max_rpm(spec.solution.fan_params.max_speed_rpm) {
    engine.add_sink(&deadline);
    engine.add_sink(&thermal);
    engine.add_sink(&energy);
    session = std::make_unique<fsc::SimulationEngine::Session>(
        engine, server, *policy, *workload);
  }
  ProbeSlot(const ProbeSlot&) = delete;
  ProbeSlot& operator=(const ProbeSlot&) = delete;
};

using Fleet = std::vector<std::unique_ptr<ProbeSlot>>;

std::vector<fsc::CoupledRackParams> racks_of(const Workload& w,
                                             const fsc::ScenarioSpec& spec) {
  switch (w.tier) {
    case Tier::kRack:
      return {spec.build_rack()};
    case Tier::kRoom:
      return spec.build_room().racks;
    case Tier::kFacility: {
      std::vector<fsc::CoupledRackParams> racks;
      for (const fsc::RoomParams& room : spec.build_facility().rooms) {
        racks.insert(racks.end(), room.racks.begin(), room.racks.end());
      }
      return racks;
    }
  }
  throw std::logic_error("racks_of: unknown tier");
}

Fleet make_fleet(const std::vector<fsc::CoupledRackParams>& racks) {
  Fleet fleet;
  for (const fsc::CoupledRackParams& params : racks) {
    const fsc::Rack rack(params.rack);
    for (const fsc::RackServerSpec& spec : rack.servers()) {
      fleet.push_back(std::make_unique<ProbeSlot>(spec, params.rack.policy,
                                                  params.rack.sim));
    }
  }
  return fleet;
}

/// One ServerBatch::step_range pass over the fleet in the engine's chunk
/// granularity.  Each period every lane's fan command changes with
/// probability `change`, as a controller's would; a changed command slews
/// the fan for several substeps and misses the transcendental memo.
/// Returns the memo hit ratio when `count` is set (telemetry off when
/// timing, so its atomics do not bill the kernel); adds the stepping time
/// to `*ns`.
double kernel_pass(const Fleet& fleet, double change, long periods,
                   std::uint64_t seed, bool count, std::int64_t* ns) {
  fsc::ServerBatch batch;
  for (const auto& slot : fleet) batch.add_server(slot->server);
  const fsc::SimulationEngine::Session& s0 = *fleet.front()->session;
  const double dt = s0.params().physics_dt_s;
  const long substeps = s0.physics_per_period();
  batch.set_memo_telemetry(count);
  batch.prepare_dt(dt);

  const std::size_t n = fleet.size();
  const std::size_t chunk = fsc::RackBatchStepper::kAutoChunkLanes;
  fsc::Rng rng(seed);
  std::vector<double> cmd(n), watts(n), inlet(n);
  for (std::size_t i = 0; i < n; ++i) {
    cmd[i] = batch.fan_rpm(i);
    watts[i] = rng.uniform(60.0, 150.0);
    inlet[i] = fleet[i]->server.inlet_temperature();
  }
  for (long p = 0; p < periods; ++p) {
    for (std::size_t i = 0; i < n; ++i) {
      if (rng.bernoulli(change)) {
        cmd[i] = rng.uniform(fleet[i]->fan_min_rpm, fleet[i]->fan_max_rpm);
      }
      batch.set_inputs(i, watts[i], cmd[i], inlet[i]);
    }
    const std::int64_t t0 = now_ns();
    for (long k = 0; k < substeps; ++k) {
      for (std::size_t lo = 0; lo < n; lo += chunk) {
        batch.step_range(lo, std::min(lo + chunk, n), dt);
      }
    }
    *ns += now_ns() - t0;
  }
  if (!count) return 0.0;
  const double hits =
      static_cast<double>(batch.memo_hits() + batch.memo_shared_hits());
  return hits / (hits + static_cast<double>(batch.memo_misses()));
}

struct KernelProbe {
  double ns_per_lane_substep = 0.0;
  double hit_ratio = 0.0;
  double change = 0.0;
};

/// Bisect the command-change probability until the probe's memo hit
/// ratio matches the engine's, then time the kernel at that ratio.
KernelProbe probe_kernel(const Fleet& fleet, double engine_hit_ratio,
                         std::uint64_t seed) {
  std::int64_t scratch = 0;
  double lo = 0.0;
  double hi = 1.0;
  for (int it = 0; it < 14; ++it) {
    const double mid = 0.5 * (lo + hi);
    const double ratio = kernel_pass(fleet, mid, 40, seed, true, &scratch);
    (ratio > engine_hit_ratio ? lo : hi) = mid;
  }
  KernelProbe k;
  k.change = 0.5 * (lo + hi);
  const long substeps = fleet.front()->session->physics_per_period();
  const double lane_substeps_per_period =
      static_cast<double>(fleet.size()) * static_cast<double>(substeps);
  const long periods =
      std::max(40L, static_cast<long>(2.0e6 / lane_substeps_per_period));
  k.hit_ratio = kernel_pass(fleet, k.change, periods, seed, true, &scratch);
  std::vector<double> per_lane;
  for (int rep = 0; rep < 5; ++rep) {
    std::int64_t ns = 0;
    kernel_pass(fleet, k.change, periods, seed, false, &ns);
    per_lane.push_back(static_cast<double>(ns) /
                       (lane_substeps_per_period * static_cast<double>(periods)));
  }
  k.ns_per_lane_substep = median(per_lane);
  return k;
}

struct SimProbe {
  double begin_period_ns = 0.0;
  double step_period_ns = 0.0;
};

/// Time SimulationEngine::Session::begin_period (policy decision plus
/// demand) and the scalar step_period, per server-period, over the fleet.
SimProbe probe_sim(const Fleet& fleet) {
  const long total = fleet.front()->session->total_periods();
  const long periods = std::max(1L, std::min(100L, (total - 1) / 2));
  const double dt = fleet.front()->session->params().physics_dt_s;
  const double server_periods =
      static_cast<double>(fleet.size()) * static_cast<double>(periods);
  SimProbe s;
  std::int64_t begin_ns = 0;
  for (long p = 0; p < periods; ++p) {
    const std::int64_t t0 = now_ns();
    for (const auto& slot : fleet) slot->session->begin_period();
    begin_ns += now_ns() - t0;
    for (const auto& slot : fleet) {
      fsc::SimulationEngine::Session& session = *slot->session;
      for (long k = 0; k < session.physics_per_period(); ++k) {
        slot->server.step(session.period_executed(), dt);
        session.note_substep();
      }
      session.finish_period();
    }
  }
  s.begin_period_ns = static_cast<double>(begin_ns) / server_periods;
  const std::int64_t t0 = now_ns();
  for (long p = 0; p < periods; ++p) {
    for (const auto& slot : fleet) slot->session->step_period();
  }
  s.step_period_ns = static_cast<double>(now_ns() - t0) / server_periods;
  return s;
}

/// CoolingPlant::allocate per call, over per-room demands that oversubscribe
/// the plant the way the workload's heat load does (so water-filling runs).
double probe_allocate_us(const fsc::FacilityParams& params) {
  const fsc::CoolingPlant plant(params.plant);
  const std::size_t rooms = params.rooms.size();
  const double per_room = params.plant.capacity_watts / 0.85 /
                          static_cast<double>(rooms);
  const double step = rooms > 1 ? 0.2 / static_cast<double>(rooms - 1) : 0.0;
  std::vector<double> demands(rooms);
  for (std::size_t r = 0; r < rooms; ++r) {
    demands[r] = per_room * (0.9 + step * static_cast<double>(r));
  }
  std::vector<fsc::RoomCoolingAllocation> out;
  std::vector<double> per_call;
  constexpr int kCalls = 200;
  for (int rep = 0; rep < 50; ++rep) {
    const std::int64_t t0 = now_ns();
    for (int c = 0; c < kCalls; ++c) {
      plant.allocate(300.0 * c, demands, out);
    }
    per_call.push_back(static_cast<double>(now_ns() - t0) / kCalls / 1000.0);
  }
  return median(per_call);
}

double hit_ratio(const MetricsRegistry& reg) {
  const auto snap = reg.snapshot();
  const double hits = static_cast<double>(snap.counter("batch.memo_hit") +
                                          snap.counter("batch.memo_shared_hit"));
  const double lanes = hits + static_cast<double>(snap.counter("batch.memo_miss"));
  return lanes > 0.0 ? hits / lanes : 0.0;
}

}  // namespace

Measurement measure_layers(const Workload& w, std::uint64_t seed,
                           double seconds, double horizon_scale,
                           const std::string& trace_path) {
  Measurement rep;
  std::vector<std::string> not_applicable;
  const std::size_t team = team_size(w);
  const std::uint64_t sseed = scenario_seed(seed, 0);
  const fsc::ScenarioSpec spec = make_spec(w, sseed, team, horizon_scale);
  const std::vector<fsc::CoupledRackParams> racks = racks_of(w, spec);
  const double lane_substeps =
      static_cast<double>(servers(spec)) *
      std::round(spec.duration_s / racks.front().rack.sim.physics_dt_s);

  // Every run below must reproduce this 1-thread reference bit for bit.
  const Outcome ref = reference_outcomes(w, {sseed}, horizon_scale).front();
  const auto check = [&rep, &ref](const Outcome& o) {
    ++rep.attempted;
    if (o.digest != ref.digest) ++rep.failed;
  };

  // Untraced baseline for the tracing overhead.
  std::vector<double> base_walls;
  const double until = now_s() + 0.5 * seconds;
  while (base_walls.size() < 3 || now_s() < until) {
    const auto engine = build_engine(w, spec, team);
    const std::int64_t t0 = now_ns();
    const Outcome o = engine->run();
    base_walls.push_back(static_cast<double>(now_ns() - t0));
    check(o);
  }
  const double base_wall_ns = median(base_walls);

  TraceRecorder rec;
  MetricsRegistry reg(team);
  auto& m = rep.metrics;
  const auto na = [&not_applicable, &m](const char* name) {
    m[name] = 0.0;
    not_applicable.push_back(name);
  };
  double traced_wall_ns = 0.0;
  double busy_ns = 0.0;

  if (w.tier == Tier::kFacility) {
    fsc::FacilityParams params = spec.build_facility();
    params.obs.metrics = &reg;
    params.obs.trace = &rec;
    const std::size_t rooms = params.rooms.size();
    m["facility.allocate_us"] = probe_allocate_us(params);
    const fsc::FacilityEngine engine(std::move(params), team);
    const std::int64_t t0 = now_ns();
    const fsc::FacilityResult result = engine.run();
    const std::int64_t t1 = now_ns();
    rec.complete("bench.run", "bench", t0, t1);
    traced_wall_ns = static_cast<double>(t1 - t0);
    const Outcome o = outcome_of(result);
    check(o);

    const SpanSums sums = sum_spans(rec);
    busy_ns = sums.shard_ns;
    double waves_ns = 0.0;
    for (const auto& [round, ns] : sums.slowest_group_ns) waves_ns += ns;
    m["util.executor.wait_share"] =
        waves_ns > 0.0 ? 1.0 - busy_ns / (static_cast<double>(team) * waves_ns)
                       : 0.0;
    na("util.executor.busy_inflation");
    na("coord.coordinate_round_us");
    na("coord.serial_share");
    na("room.session_setup_ms");
    na("room.finish_round_us");

    std::vector<fsc::obs::Histogram*> hists;
    for (std::size_t r = 0; r < rooms; ++r) {
      hists.push_back(&reg.histogram("facility.room" + std::to_string(r) +
                                     ".round_ns"));
    }
    std::uint64_t samples = 0;
    m["room.round_ms_p50"] = merged_percentile(hists, 0.5, &samples) / 1e6;
    m["room.round_ms_p90"] = merged_percentile(hists, 0.9, &samples) / 1e6;
    m["room.round_samples"] = static_cast<double>(samples);
    m["room.migrations"] = static_cast<double>(o.migrations);

    const auto snap = reg.snapshot();
    m["facility.barrier_wait_share"] =
        static_cast<double>(snap.counter("facility.barrier_wait_ns")) /
        (static_cast<double>(rooms) * traced_wall_ns);
    m["facility.saturated_round_ratio"] =
        o.facility_rounds > 0 ? static_cast<double>(o.saturated_rounds) /
                                    static_cast<double>(o.facility_rounds)
                              : 0.0;
    m["fault.armed_events"] =
        static_cast<double>(snap.counter("fault.events_armed"));
  } else {
    const bool room = w.tier == Tier::kRoom;
    const auto run_driven = [&](std::size_t threads, TraceRecorder* r,
                                MetricsRegistry& metrics) {
      if (room) {
        fsc::RoomParams params = spec.build_room();
        params.obs.metrics = &metrics;
        return drive<fsc::RoomEngine::Session>(params, threads, r);
      }
      fsc::CoupledRackParams params = spec.build_rack();
      params.obs.metrics = &metrics;
      return drive<fsc::CoupledRackEngine::Session>(params, threads, r);
    };
    const Driven d = run_driven(team, &rec, reg);
    check(d.outcome);
    traced_wall_ns = static_cast<double>(d.wall_ns);
    busy_ns = static_cast<double>(d.busy_ns);
    const double rounds = static_cast<double>(d.round_ns.size());

    m["util.executor.wait_share"] =
        1.0 - busy_ns / (static_cast<double>(team) *
                         static_cast<double>(d.wave_ns));
    if (team > 1) {
      MetricsRegistry solo_reg(1);
      const Driven solo = run_driven(1, nullptr, solo_reg);
      check(solo.outcome);
      m["util.executor.busy_inflation"] =
          busy_ns / static_cast<double>(solo.busy_ns);
    } else {
      m["util.executor.busy_inflation"] = 1.0;  // a team of one is its own base
    }
    m["coord.serial_share"] = static_cast<double>(d.serial_ns) / traced_wall_ns;
    if (room) {
      na("coord.coordinate_round_us");
      m["room.session_setup_ms"] = static_cast<double>(d.setup_ns) / 1e6;
      m["room.finish_round_us"] = static_cast<double>(d.serial_ns) / rounds / 1e3;
      m["room.round_ms_p50"] = quantile(d.round_ns, 0.5) / 1e6;
      m["room.round_ms_p90"] = quantile(d.round_ns, 0.9) / 1e6;
      m["room.round_samples"] = rounds;
      m["room.migrations"] = static_cast<double>(d.outcome.migrations);
    } else {
      m["coord.coordinate_round_us"] =
          static_cast<double>(d.serial_ns) / rounds / 1e3;
      for (const char* name :
           {"room.session_setup_ms", "room.finish_round_us", "room.round_ms_p50",
            "room.round_ms_p90", "room.round_samples", "room.migrations"}) {
        na(name);
      }
    }
    for (const char* name :
         {"facility.allocate_us", "facility.barrier_wait_share",
          "facility.saturated_round_ratio", "fault.armed_events"}) {
      na(name);
    }
  }

  m["coord.shard_ns_per_server_substep"] = busy_ns / lane_substeps;
  m["batch.memo_hit_ratio"] = hit_ratio(reg);
  m["trace.overhead_ratio"] = traced_wall_ns / base_wall_ns;

  const Fleet fleet = make_fleet(racks);
  const KernelProbe kernel =
      probe_kernel(fleet, m["batch.memo_hit_ratio"], fsc::derive_seed(seed, 0xB0B));
  m["batch.kernel_ns_per_lane_substep"] = kernel.ns_per_lane_substep;
  m["batch.probe_memo_hit_ratio"] = kernel.hit_ratio;
  m["batch.kernel_share"] =
      kernel.ns_per_lane_substep / m["coord.shard_ns_per_server_substep"];
  const SimProbe sim = probe_sim(fleet);
  m["sim.begin_period_ns"] = sim.begin_period_ns;
  m["sim.step_period_ns"] = sim.step_period_ns;

  if (!trace_path.empty()) rec.write_json_file(trace_path);

  fsc::json::Value info = fsc::json::Value::object();
  info.set("team", fsc::json::Value::number(static_cast<double>(team)));
  info.set("scenario_seed", fsc::json::Value::string(std::to_string(sseed)));
  info.set("servers",
           fsc::json::Value::number(static_cast<double>(servers(spec))));
  info.set("horizon_s", fsc::json::Value::number(spec.duration_s));
  info.set("untraced_runs",
           fsc::json::Value::number(static_cast<double>(base_walls.size())));
  info.set("engine_memo_hit_ratio",
           fsc::json::Value::number(m["batch.memo_hit_ratio"]));
  info.set("probe_memo_hit_ratio", fsc::json::Value::number(kernel.hit_ratio));
  info.set("probe_command_change_prob", fsc::json::Value::number(kernel.change));
  info.set("probe_within_5_points",
           fsc::json::Value::boolean(
               std::abs(kernel.hit_ratio - m["batch.memo_hit_ratio"]) <= 0.05));
  info.set("trace_dropped_events",
           fsc::json::Value::number(static_cast<double>(rec.dropped_events())));
  info.set("trace_file", fsc::json::Value::string(trace_path));
  fsc::json::Value skipped = fsc::json::Value::array();
  for (const std::string& name : not_applicable) {
    skipped.push_back(fsc::json::Value::string(name));
  }
  info.set("not_applicable", std::move(skipped));
  rep.info_json = info.dump();
  return rep;
}

}  // namespace simbench
