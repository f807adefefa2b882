#include "facility/facility_engine.hpp"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <memory>
#include <sstream>

#include "obs/obs.hpp"
#include "obs/progress.hpp"
#include "obs/snapshot.hpp"
#include "util/lockstep_executor.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace fsc {

std::size_t FacilityResult::total_racks() const noexcept {
  std::size_t total = 0;
  for (const FacilityRoomSummary& r : rooms) total += r.result.size();
  return total;
}

std::size_t FacilityResult::total_slots() const noexcept {
  std::size_t total = 0;
  for (const FacilityRoomSummary& r : rooms) total += r.result.total_slots();
  return total;
}

std::size_t FacilityResult::pooled_deadline_violations() const noexcept {
  std::size_t total = 0;
  for (const FacilityRoomSummary& r : rooms) {
    total += r.result.pooled_deadline_violations();
  }
  return total;
}

FacilityEngine::FacilityEngine(FacilityParams params, std::size_t threads)
    : params_(std::move(params)), threads_(threads) {
  require(threads_ > 0, "FacilityEngine: need at least one thread");
  require(!params_.rooms.empty(), "FacilityEngine: need at least one room");
  (void)CoolingPlant(params_.plant);  // validate plant params up front
  const RoomParams& first = params_.rooms.front();
  require(!first.racks.empty(), "FacilityEngine: rooms must have racks");
  const double cpu_period = first.racks.front().rack.sim.cpu_period_s;
  const double coord_period = first.racks.front().coord.coordination_period_s;
  const double duration = first.racks.front().rack.sim.duration_s;
  for (const RoomParams& room : params_.rooms) {
    require(!room.racks.empty(), "FacilityEngine: rooms must have racks");
    // Per-room validation (rack timing agreement within the room) happens
    // in RoomEngine::Session construction; here only the cross-room
    // lockstep agreement is enforced.
    require(room.racks.front().rack.sim.cpu_period_s == cpu_period &&
                room.racks.front().coord.coordination_period_s ==
                    coord_period &&
                room.racks.front().rack.sim.duration_s == duration,
            "FacilityEngine: all rooms must share the CPU control period, "
            "the coordination period, and the duration (lockstep barriers)");
  }
  if (params_.facility_period_s > 0.0) {
    const double ratio = params_.facility_period_s / coord_period;
    const long rounds = std::lround(ratio);
    require(rounds >= 1 && std::abs(ratio - static_cast<double>(rounds)) <
                               1e-9 * std::max(1.0, ratio),
            "FacilityEngine: facility period must be a whole multiple of "
            "the room coordination period");
    rounds_per_barrier_ = static_cast<std::size_t>(rounds);
  }
}

namespace {

/// Telemetry handles for one facility run, resolved once (same noinline
/// discipline as RoomRunTelemetry: keep export code out of the barrier
/// loop's codegen, since an inlined export tail cost about 3.6% of the
/// detached room loop).  Everything here is read-only with respect to the
/// simulation, so attaching it cannot perturb bit-identity.
struct FacilityRunTelemetry {
  obs::TraceRecorder* trace = nullptr;
  obs::MetricsRegistry* metrics = nullptr;
  obs::ProgressMeter* progress = nullptr;
  obs::Counter* rounds_counter = nullptr;
  obs::Counter* saturated_counter = nullptr;
  /// Room-imbalance exposure: per-room wait at the facility barrier
  /// (slot-attributed by room index) and per-room room-round wall time.
  obs::Counter* barrier_wait_counter = nullptr;
  std::vector<obs::Histogram*> room_round_hists;
  obs::Gauge* time_gauge = nullptr;
  bool attached = false;

  __attribute__((noinline))
  FacilityRunTelemetry(const obs::Telemetry& tel, std::size_t num_rooms)
      : trace(tel.trace),
        metrics(tel.metrics),
        progress(tel.progress),
        attached(tel.attached()) {
    if (metrics != nullptr) {
      rounds_counter = &metrics->counter("facility.rounds");
      saturated_counter = &metrics->counter("facility.saturated_rounds");
      barrier_wait_counter = &metrics->counter("facility.barrier_wait_ns");
      time_gauge = &metrics->gauge("facility.time_s");
      room_round_hists.reserve(num_rooms);
      for (std::size_t r = 0; r < num_rooms; ++r) {
        room_round_hists.push_back(&metrics->histogram(
            "facility.room" + std::to_string(r) + ".round_ns"));
      }
    }
  }

  /// Everything that happens after a facility barrier: the round span,
  /// the barrier-wait attribution (how long each room idled waiting for
  /// the slowest room), counters, and the heartbeat.
  __attribute__((noinline)) void barrier_tail(
      std::int64_t round_t0, std::size_t facility_rounds, double t,
      bool saturated, const std::vector<std::int64_t>& room_end_ns) {
    if (trace != nullptr && round_t0 != 0) {
      trace->complete("facility.round", "round", round_t0, obs::monotonic_ns(),
                      0, 0, static_cast<std::int64_t>(facility_rounds - 1));
    }
    if (rounds_counter != nullptr) rounds_counter->increment();
    if (saturated && saturated_counter != nullptr) {
      saturated_counter->increment();
    }
    if (saturated && trace != nullptr) {
      trace->instant("facility.saturation", "plant", 0, 0,
                     static_cast<std::int64_t>(facility_rounds - 1));
    }
    if (time_gauge != nullptr) time_gauge->set(t);
    if (barrier_wait_counter != nullptr && !room_end_ns.empty()) {
      std::int64_t latest = 0;
      for (const std::int64_t e : room_end_ns) latest = std::max(latest, e);
      for (std::size_t g = 0; g < room_end_ns.size(); ++g) {
        if (room_end_ns[g] <= 0) continue;  // room already done: no wave ran
        barrier_wait_counter->add(
            static_cast<std::uint64_t>(latest - room_end_ns[g]), g);
      }
    }
    if (progress != nullptr) progress->tick(facility_rounds, t, 0);
  }

  __attribute__((noinline)) void observe_room_round(std::size_t room,
                                                    std::int64_t t0,
                                                    std::int64_t t1) {
    if (room < room_round_hists.size() && room_round_hists[room] != nullptr) {
      room_round_hists[room]->observe(static_cast<std::uint64_t>(t1 - t0));
    }
  }

  __attribute__((noinline)) void run_finished(std::size_t facility_rounds,
                                              double duration_s) {
    if (progress != nullptr) progress->finish(facility_rounds, duration_s, 0);
  }
};

}  // namespace

FacilityResult FacilityEngine::run() const {
  const std::size_t num_rooms = params_.rooms.size();
  const std::size_t barrier_rounds = rounds_per_barrier_;

  // The team: room leaders, and one executor per room for its build and
  // shard waves.  With more threads than rooms, room g's executor gets its share
  // of the team, [threads*g/rooms, threads*(g+1)/rooms), leader included;
  // otherwise each room's executor is its leader alone.  Either way the
  // team is exactly threads_ wide, and a leader owns its rooms for the
  // whole run, so each room executor is driven by one thread only.
  LockstepExecutor room_leaders(std::min(threads_, num_rooms));
  std::vector<std::unique_ptr<LockstepExecutor>> room_teams;
  room_teams.reserve(num_rooms);
  for (std::size_t g = 0; g < num_rooms; ++g) {
    const std::size_t size =
        threads_ > num_rooms
            ? threads_ * (g + 1) / num_rooms - threads_ * g / num_rooms
            : 1;
    room_teams.push_back(std::make_unique<LockstepExecutor>(size));
  }

  // Per-room sessions, telemetry fanned down with a globally unique
  // rack-label base per room; snapshot/progress stay at facility scope.
  // The leaders build them in one wave, each room on its own team — the
  // same leader and team that step it afterwards.
  std::vector<std::uint32_t> rack_bases(num_rooms, 0);
  for (std::size_t g = 1; g < num_rooms; ++g) {
    rack_bases[g] = rack_bases[g - 1] +
                    static_cast<std::uint32_t>(params_.rooms[g - 1].racks.size());
  }
  std::vector<std::unique_ptr<RoomEngine::Session>> rooms(num_rooms);
  room_leaders.run(num_rooms, [&](std::size_t g) {
    const obs::ScopedSpan span(params_.obs.trace, "facility.room_setup",
                               "setup", static_cast<std::uint32_t>(g));
    RoomParams room_params = params_.rooms[g];
    room_params.obs = params_.obs;
    room_params.obs.rack = rack_bases[g];
    room_params.obs.snapshot = nullptr;
    room_params.obs.progress = nullptr;
    rooms[g] =
        std::make_unique<RoomEngine::Session>(room_params, *room_teams[g]);
  });

  const CoolingPlant plant(params_.plant);

  FacilityRunTelemetry tel(params_.obs, num_rooms);

  std::vector<RunningStats> scale_stats(num_rooms);
  std::vector<RunningStats> supply_stats(num_rooms);
  std::size_t facility_rounds = 0;
  std::size_t saturated_rounds = 0;

  // Barrier-scope scratch (steady-state allocation-free, like the room
  // round loop).
  std::vector<double> demands(num_rooms, 0.0);
  std::vector<RoomCoolingAllocation> allocs;
  std::vector<std::int64_t> room_end_ns(num_rooms, 0);

  // The facility coordination step: observe per-room heat load, allocate
  // the plant, apply throttle + supply air.
  // Runs on the calling thread at the barrier — deterministic in room
  // order, like all lockstep barrier work in this codebase.
  const auto coordinate = [&]() -> bool {
    const double t = rooms.front()->time_s();
    for (std::size_t r = 0; r < num_rooms; ++r) {
      demands[r] = rooms[r]->cpu_watts_now();
    }
    plant.allocate(t, demands, allocs);
    bool saturated = false;
    for (std::size_t r = 0; r < num_rooms; ++r) {
      rooms[r]->set_facility_scale(allocs[r].demand_scale);
      rooms[r]->set_supply_offset(allocs[r].supply_offset_c);
      scale_stats[r].add(allocs[r].demand_scale);
      supply_stats[r].add(allocs[r].supply_offset_c);
      if (allocs[r].granted_watts < demands[r]) saturated = true;
    }
    if (saturated) ++saturated_rounds;
    ++facility_rounds;
    return saturated;
  };

  while (!rooms.front()->done()) {
    const std::int64_t round_t0 = tel.attached ? obs::monotonic_ns() : 0;
    // Each leader steps its rooms' blocks of rounds between facility
    // barriers.  Rooms never touch shared state between barriers, so the
    // per-room sequence is exactly a standalone room's, whichever leader
    // steps it and in whatever order.
    room_leaders.run(num_rooms, [&](std::size_t g) {
      const obs::ScopedSpan room_span(tel.trace, "facility.room_rounds",
                                       "facility",
                                       static_cast<std::uint32_t>(g), 0,
                                       static_cast<std::int64_t>(
                                           facility_rounds));
      RoomEngine::Session& room = *rooms[g];
      for (std::size_t r = 0; r < barrier_rounds && !room.done(); ++r) {
        const std::int64_t t0 = tel.attached ? obs::monotonic_ns() : 0;
        room.mark_round_start();
        room_teams[g]->run(room.num_shards(),
                           [&room](std::size_t i) { room.run_shard(i); });
        room.finish_round();
        if (t0 != 0) tel.observe_room_round(g, t0, obs::monotonic_ns());
      }
      if (round_t0 != 0) room_end_ns[g] = obs::monotonic_ns();
    });
    if (rooms.front()->done()) break;  // run over: nothing to allocate
    bool saturated = false;
    {
      const obs::ScopedSpan coord_span(
          tel.trace, "facility.coordinate", "facility", 0, 0,
          static_cast<std::int64_t>(facility_rounds));
      saturated = coordinate();
    }
    if (tel.attached) {
      tel.barrier_tail(round_t0, facility_rounds, rooms.front()->time_s(),
                       saturated, room_end_ns);
      for (std::size_t g = 0; g < num_rooms; ++g) room_end_ns[g] = 0;
    }
  }

  if (tel.attached) {
    tel.run_finished(
        facility_rounds,
        params_.rooms.front().racks.front().rack.sim.duration_s);
  }

  FacilityResult out;
  out.facility_rounds = facility_rounds;
  out.plant_saturated_rounds = saturated_rounds;
  out.plant_capacity_watts = params_.plant.capacity_watts;
  out.rooms.reserve(num_rooms);
  std::size_t pooled_periods = 0;
  std::size_t pooled_violations = 0;
  for (std::size_t r = 0; r < num_rooms; ++r) {
    FacilityRoomSummary s;
    s.index = r;
    s.result = rooms[r]->finish();
    s.facility_scale_stats = scale_stats[r];
    s.supply_offset_stats = supply_stats[r];

    out.duration_s = s.result.duration_s;
    out.fan_energy_joules += s.result.fan_energy_joules;
    out.cpu_energy_joules += s.result.cpu_energy_joules;
    for (const RoomRackSummary& rack : s.result.racks) {
      for (const CoupledSlotSummary& slot : rack.result.slots) {
        pooled_periods += slot.deadline_periods;
        pooled_violations += slot.deadline_violations;
      }
    }
    out.rooms.push_back(std::move(s));
  }
  out.total_energy_joules = out.fan_energy_joules + out.cpu_energy_joules;
  out.deadline_violation_percent =
      pooled_periods > 0 ? 100.0 * static_cast<double>(pooled_violations) /
                               static_cast<double>(pooled_periods)
                         : 0.0;
  return out;
}

std::string FacilityResult::to_table() const {
  std::ostringstream os;
  os << std::fixed;
  os << "room  racks  slots  ddl-viol%  total-kJ  plant-scale(mean/min)  "
        "supply-C(mean/max)\n";
  for (const FacilityRoomSummary& r : rooms) {
    os << std::setw(4) << r.index << "  " << std::setw(5) << r.result.size()
       << "  " << std::setw(5) << r.result.total_slots() << "  "
       << std::setprecision(3) << std::setw(9)
       << r.result.deadline_violation_percent << "  " << std::setprecision(1)
       << std::setw(8) << r.result.total_energy_joules / 1000.0 << "  "
       << std::setprecision(2) << std::setw(10)
       << r.facility_scale_stats.mean() << "/" << std::setw(5)
       << r.facility_scale_stats.min() << "  " << std::setprecision(2)
       << std::setw(8) << r.supply_offset_stats.mean() << "/" << std::setw(5)
       << r.supply_offset_stats.max() << "\n";
  }
  os << "---\n";
  os << "rooms / racks / slots   : " << rooms.size() << " / " << total_racks()
     << " / " << total_slots() << "\n";
  os << "facility rounds         : " << facility_rounds << "\n";
  os << "plant saturated rounds  : " << plant_saturated_rounds << "\n";
  os << std::setprecision(1);
  os << "plant capacity          : ";
  if (plant_capacity_watts < 0.0) {
    os << "unconstrained\n";
  } else {
    os << plant_capacity_watts / 1000.0 << " kW\n";
  }
  os << std::setprecision(3);
  os << "pooled deadline viol    : " << deadline_violation_percent << " % ("
     << pooled_deadline_violations() << " periods)\n";
  os << std::setprecision(1);
  os << "facility fan energy     : " << fan_energy_joules / 1000.0 << " kJ\n";
  os << "facility cpu energy     : " << cpu_energy_joules / 1000.0 << " kJ\n";
  os << "facility total energy   : " << total_energy_joules / 1000.0
     << " kJ\n";
  return os.str();
}

std::string FacilityResult::to_json(const std::string& manifest_json) const {
  std::ostringstream os;
  os << std::setprecision(10);
  os << "{\n";
  if (!manifest_json.empty()) {
    os << "  \"manifest\": " << manifest_json << ",\n";
  }
  // A fixed config echo: the facility team is always two-level (room
  // leaders over per-room executors), and reports keep the key their
  // readers know.
  os << "  \"executor\": \"two-level\",\n";
  os << "  \"rooms\": " << rooms.size() << ",\n";
  os << "  \"racks\": " << total_racks() << ",\n";
  os << "  \"slots\": " << total_slots() << ",\n";
  os << "  \"duration_s\": " << duration_s << ",\n";
  os << "  \"facility_rounds\": " << facility_rounds << ",\n";
  os << "  \"plant\": {\n";
  os << "    \"capacity_watts\": " << plant_capacity_watts << ",\n";
  os << "    \"saturated_rounds\": " << plant_saturated_rounds << "\n";
  os << "  },\n";
  os << "  \"totals\": {\n";
  os << "    \"fan_energy_j\": " << fan_energy_joules << ",\n";
  os << "    \"cpu_energy_j\": " << cpu_energy_joules << ",\n";
  os << "    \"total_energy_j\": " << total_energy_joules << ",\n";
  os << "    \"deadline_violation_pct\": " << deadline_violation_percent
     << ",\n";
  os << "    \"deadline_violations\": " << pooled_deadline_violations()
     << "\n";
  os << "  },\n";
  os << "  \"per_room\": [\n";
  for (std::size_t i = 0; i < rooms.size(); ++i) {
    const FacilityRoomSummary& r = rooms[i];
    os << "    {\"room\": " << r.index
       << ", \"racks\": " << r.result.size()
       << ", \"slots\": " << r.result.total_slots()
       << ", \"scheduler\": \"" << r.result.scheduler << "\""
       << ", \"deadline_violation_pct\": "
       << r.result.deadline_violation_percent
       << ", \"total_energy_j\": " << r.result.total_energy_joules
       << ", \"migration_events\": " << r.result.migration_events
       << ", \"mean_facility_scale\": " << r.facility_scale_stats.mean()
       << ", \"min_facility_scale\": " << r.facility_scale_stats.min()
       << ", \"mean_supply_offset_c\": " << r.supply_offset_stats.mean()
       << ", \"max_supply_offset_c\": " << r.supply_offset_stats.max()
       << "}" << (i + 1 < rooms.size() ? "," : "") << "\n";
  }
  os << "  ]\n";
  os << "}\n";
  return os.str();
}

std::string FacilityResult::to_csv() const {
  std::ostringstream os;
  os << std::setprecision(10);
  os << "room,racks,slots,scheduler,deadline_violation_pct,"
        "deadline_violations,fan_energy_j,cpu_energy_j,total_energy_j,"
        "migration_events,mean_facility_scale,min_facility_scale,"
        "mean_supply_offset_c,max_supply_offset_c\n";
  for (const FacilityRoomSummary& r : rooms) {
    os << r.index << "," << r.result.size() << ","
       << r.result.total_slots() << "," << r.result.scheduler << ","
       << r.result.deadline_violation_percent << ","
       << r.result.pooled_deadline_violations() << ","
       << r.result.fan_energy_joules << "," << r.result.cpu_energy_joules
       << "," << r.result.total_energy_joules << ","
       << r.result.migration_events << "," << r.facility_scale_stats.mean()
       << "," << r.facility_scale_stats.min() << ","
       << r.supply_offset_stats.mean() << "," << r.supply_offset_stats.max()
       << "\n";
  }
  return os.str();
}

FacilityParams default_facility_scenario(std::size_t num_rooms,
                                         std::size_t racks_per_room,
                                         std::uint64_t seed,
                                         double duration_s) {
  require(num_rooms > 0, "default_facility_scenario: need at least one room");
  FacilityParams facility;
  facility.rooms.reserve(num_rooms);
  for (std::size_t r = 0; r < num_rooms; ++r) {
    // Each room re-seeded off the facility seed so rooms see distinct but
    // reproducible workload draws (the same recipe a standalone-room
    // equivalence test rebuilds per room).
    facility.rooms.push_back(default_room_scenario(
        racks_per_room, derive_seed(seed, 1000 + r), duration_s));
  }
  return facility;
}

}  // namespace fsc
