#include "room/room_engine.hpp"

#include <algorithm>
#include <iomanip>
#include <memory>
#include <optional>
#include <sstream>

#include "core/policy_factory.hpp"
#include "obs/progress.hpp"
#include "obs/snapshot.hpp"
#include "util/lockstep_executor.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace fsc {

std::size_t RoomResult::total_slots() const noexcept {
  std::size_t total = 0;
  for (const RoomRackSummary& r : racks) total += r.result.size();
  return total;
}

std::size_t RoomResult::pooled_deadline_violations() const noexcept {
  std::size_t total = 0;
  for (const RoomRackSummary& r : racks) {
    total += r.result.pooled_deadline_violations();
  }
  return total;
}

namespace {

/// Shared by the RoomEngine constructor and Session construction (a
/// facility builds sessions directly, without a RoomEngine in front).
void validate_room_params(const RoomParams& params) {
  require(!params.racks.empty(), "RoomEngine: need at least one rack");
  const CoupledRackParams& first = params.racks.front();
  for (const CoupledRackParams& rack : params.racks) {
    // Per-rack validation of the coordination divider, exactly like a
    // standalone CoupledRackEngine would do.
    (void)derive_fan_divider(rack.rack.sim.cpu_period_s,
                             rack.coord.coordination_period_s);
    require(rack.rack.sim.cpu_period_s == first.rack.sim.cpu_period_s &&
                rack.coord.coordination_period_s ==
                    first.coord.coordination_period_s &&
                rack.rack.sim.duration_s == first.rack.sim.duration_s,
            "RoomEngine: all racks must share the CPU control period, the "
            "coordination period, and the duration (lockstep barriers)");
    // The room scheduler prices every rack's load with ONE nominal
    // datasheet model (synced from the first rack below); a room of
    // different SKUs would silently mis-pack, so refuse it up front.
    require(rack.rack.solution.cpu_power.idle_power() ==
                    first.rack.solution.cpu_power.idle_power() &&
                rack.rack.solution.cpu_power.dynamic_power() ==
                    first.rack.solution.cpu_power.dynamic_power(),
            "RoomEngine: all racks must share the nominal CPU power model "
            "(the room scheduler prices load with one datasheet model)");
  }
}

}  // namespace

RoomEngine::RoomEngine(RoomParams params, std::size_t threads)
    : params_(std::move(params)), threads_(threads) {
  require(threads_ > 0, "RoomEngine: need at least one thread");
  validate_room_params(params_);
}

namespace {

/// Telemetry handles + export bookkeeping for one room run, resolved once
/// so every hook in the round loop is a single branch when detached.  The
/// heavyweight hooks are noinline METHODS rather than inline blocks:
/// keeping their code out of run()'s loop body keeps the loop's codegen
/// (size, alignment, register pressure) free of code the detached run
/// never executes.  Measured when the hooks landed: an inlined export tail
/// cost about 3.6% of the detached room loop.
struct RoomRunTelemetry {
  obs::TraceRecorder* trace = nullptr;
  obs::MetricsRegistry* metrics = nullptr;
  obs::SnapshotExporter* exporter = nullptr;
  obs::ProgressMeter* progress = nullptr;
  obs::Counter* rounds_counter = nullptr;
  obs::Counter* migrations_counter = nullptr;
  obs::Counter* violations_counter = nullptr;
  obs::Histogram* round_hist = nullptr;
  obs::Gauge* time_gauge = nullptr;
  std::uint64_t exported_violations_seen = 0;
  std::vector<std::uint64_t> exported_rack_viol;
  std::uint64_t last_round_ns = 0;
  std::uint32_t rack_label = 0;  ///< room's span label base (facility rooms)
  bool attached = false;

  __attribute__((noinline))
  RoomRunTelemetry(const obs::Telemetry& tel, std::size_t num_racks)
      : trace(tel.trace),
        metrics(tel.metrics),
        exporter(tel.snapshot),
        progress(tel.progress),
        exported_rack_viol(num_racks, 0),
        rack_label(tel.rack),
        attached(tel.attached()) {
    if (metrics != nullptr) {
      rounds_counter = &metrics->counter("room.rounds");
      migrations_counter = &metrics->counter("room.migrations");
      violations_counter = &metrics->counter("room.deadline_violations");
      round_hist = &metrics->histogram("room.round_ns");
      time_gauge = &metrics->gauge("room.time_s");
    }
  }

  __attribute__((noinline)) void on_migration(std::size_t round) {
    if (trace != nullptr) {
      trace->instant("room.migration", "sched", rack_label, 0,
                     static_cast<std::int64_t>(round));
    }
    if (migrations_counter != nullptr) migrations_counter->increment();
  }

  /// Everything that happens after a scheduled round: the round span and
  /// wall-time histogram, the monotone counters, the time-series export
  /// batch, and the progress heartbeat.
  __attribute__((noinline)) void round_tail(
      std::int64_t round_t0, std::size_t rounds, double t,
      const std::vector<RackObservation>& observations,
      const std::vector<std::size_t>& violations_seen,
      const std::vector<std::unique_ptr<CoupledRackEngine::Session>>& racks) {
    const std::size_t num_racks = racks.size();
    if (round_t0 != 0) {
      const std::int64_t round_t1 = obs::monotonic_ns();
      last_round_ns = static_cast<std::uint64_t>(round_t1 - round_t0);
      if (trace != nullptr) {
        trace->complete("room.round", "round", round_t0, round_t1, rack_label,
                        0, static_cast<std::int64_t>(rounds - 1));
      }
      if (round_hist != nullptr) round_hist->observe(last_round_ns);
    }
    if (rounds_counter != nullptr) rounds_counter->increment();
    if (time_gauge != nullptr) time_gauge->set(t);
    if (violations_counter != nullptr) {
      std::uint64_t window = 0;
      for (const RackObservation& o : observations) {
        window += o.window_deadline_violations;
      }
      violations_counter->add(window);
    }
    if (exporter != nullptr && exporter->due(rounds)) {
      // Hit rate over ALL batches feeding this registry, cumulative.
      double memo_pct = -1.0;
      if (metrics != nullptr) {
        const auto snap = metrics->snapshot();
        const std::uint64_t hits = snap.counter("batch.memo_hit") +
                                   snap.counter("batch.memo_shared_hit");
        const std::uint64_t lanes = hits + snap.counter("batch.memo_miss");
        if (lanes > 0) {
          memo_pct =
              100.0 * static_cast<double>(hits) / static_cast<double>(lanes);
        }
      }
      obs::SnapshotExporter::Row room_row;
      room_row.round = rounds;
      room_row.time_s = t;
      room_row.rack = -1;
      room_row.demand_scale = 0.0;
      room_row.memo_hit_pct = memo_pct;
      room_row.round_wall_ns = last_round_ns;
      for (std::size_t i = 0; i < num_racks; ++i) {
        const RackObservation& o = observations[i];
        obs::SnapshotExporter::Row row;
        row.round = rounds;
        row.time_s = t;
        row.rack = static_cast<int>(i);
        row.demand_scale = o.demand_scale;
        row.cpu_watts = o.cpu_watts;
        row.mean_inlet_c = o.mean_inlet_celsius;
        row.max_inlet_c = o.max_inlet_celsius;
        row.mean_fan_rpm = o.mean_fan_rpm;
        row.total_violations = violations_seen[i];
        row.window_violations = violations_seen[i] - exported_rack_viol[i];
        exported_rack_viol[i] = violations_seen[i];
        row.fan_energy_j = racks[i]->fan_energy_joules_so_far();
        row.cpu_energy_j = racks[i]->cpu_energy_joules_so_far();
        row.memo_hit_pct = memo_pct;
        row.round_wall_ns = last_round_ns;
        exporter->write(row);

        room_row.demand_scale +=
            o.demand_scale / static_cast<double>(num_racks);
        room_row.cpu_watts += o.cpu_watts;
        room_row.mean_inlet_c +=
            o.mean_inlet_celsius / static_cast<double>(num_racks);
        room_row.max_inlet_c =
            std::max(room_row.max_inlet_c, o.max_inlet_celsius);
        room_row.mean_fan_rpm +=
            o.mean_fan_rpm / static_cast<double>(num_racks);
        room_row.total_violations += violations_seen[i];
        room_row.fan_energy_j += row.fan_energy_j;
        room_row.cpu_energy_j += row.cpu_energy_j;
      }
      room_row.window_violations =
          room_row.total_violations - exported_violations_seen;
      exported_violations_seen = room_row.total_violations;
      exporter->write(room_row);
    }
    if (progress != nullptr) {
      std::uint64_t live_violations = 0;
      for (const std::size_t v : violations_seen) live_violations += v;
      progress->tick(rounds, t, live_violations);
    }
  }

  __attribute__((noinline)) void run_finished(
      std::size_t rounds, double duration_s,
      const std::vector<std::size_t>& violations_seen) {
    if (progress != nullptr) {
      std::uint64_t final_violations = 0;
      for (const std::size_t v : violations_seen) final_violations += v;
      progress->finish(rounds, duration_s, final_violations);
    }
    if (exporter != nullptr) exporter->close();
  }
};

}  // namespace

// The session's whole state lives behind the pimpl so the header stays
// free of executor/telemetry internals.
struct RoomEngine::Session::Impl {
  RoomParams params;

  std::vector<std::unique_ptr<CoupledRackEngine::Session>> racks;
  std::size_t total_slots = 0;

  // The room-wide shard map: every rack's chunks, flattened in rack order.
  // Shard counts are constant per session, so this is built exactly once.
  struct RoomShard {
    CoupledRackEngine::Session* session = nullptr;
    std::size_t local = 0;  ///< chunk index within the rack
  };
  std::vector<RoomShard> shards;

  std::unique_ptr<RoomScheduler> scheduler;
  std::optional<CrossRackPlenumModel> cross;

  std::vector<RunningStats> scale_stats;
  std::vector<RunningStats> offset_stats;
  std::vector<std::size_t> violations_seen;
  /// The room scheduler's own frame: the scale it last commanded per
  /// rack.  The rack's effective scale is facility_scale * sched_scale —
  /// the scheduler never sees the facility throttle, so its hysteresis
  /// cannot fight the plant.
  std::vector<double> sched_scale;
  /// Last cross-plenum offsets (without the facility supply term), so a
  /// supply change between rounds re-applies on top of current physics.
  std::vector<double> last_plenum;
  std::size_t rounds = 0;
  std::size_t migration_events = 0;

  double facility_scale = 1.0;
  double supply_offset = 0.0;
  /// Latches once any non-zero supply offset is seen: the untouched path
  /// performs literally no ambient arithmetic, keeping standalone runs
  /// bit-identical to the pre-facility engine.
  bool supply_touched = false;
  double last_cpu_watts = 0.0;

  // Per-round scratch, hoisted out of the loop: the steady-state round
  // allocates nothing (the buffers reach their high-water capacity on the
  // first round and are reused for the thousands that follow).
  std::vector<RackObservation> observations;
  std::vector<RackDirective> directives;
  std::vector<RackPlenumState> states;
  std::vector<double> offsets;

  RoomRunTelemetry tel;
  std::int64_t round_t0 = 0;

  Impl(const RoomParams& p, LockstepExecutor& team)
      : params(p), tel(p.obs, p.racks.size()) {
    validate_room_params(params);
    const std::size_t num_racks = params.racks.size();
    // One team wave builds the rack sessions (racks share no mutable
    // state, so the result does not depend on the team); a failed build
    // rethrows the lowest rack's error.
    racks.resize(num_racks);
    team.run(num_racks, [&](std::size_t i) {
      // Fan the room's telemetry down to each rack session, stamped with
      // its rack index (offset by the room's own label base so facility
      // rooms get globally unique rack labels); snapshot/progress stay at
      // room scope.
      CoupledRackParams rack_params = params.racks[i];
      rack_params.obs = params.obs;
      rack_params.obs.rack = params.obs.rack + static_cast<std::uint32_t>(i);
      rack_params.obs.snapshot = nullptr;
      rack_params.obs.progress = nullptr;
      const obs::ScopedSpan span(params.obs.trace, "room.rack_setup", "setup",
                                 rack_params.obs.rack);
      racks[i] = std::make_unique<CoupledRackEngine::Session>(rack_params);
    });
    for (const auto& rack : racks) {
      total_slots += rack->num_slots();
      for (std::size_t c = 0; c < rack->num_shards(); ++c) {
        shards.push_back(RoomShard{rack.get(), c});
      }
    }

    RoomSchedulerConfig cfg = params.sched;
    cfg.num_racks = num_racks;
    cfg.total_slots = total_slots;
    cfg.cpu_power = params.racks.front().rack.solution.cpu_power;  // nominal
    scheduler =
        PolicyFactory::instance().make_room_scheduler(params.scheduler, cfg);
    scheduler->set_telemetry(params.obs);
    scheduler->reset();

    if (params.cross_plenum_enabled) {
      cross.emplace(params.cross_plenum, num_racks);
    }

    scale_stats.resize(num_racks);
    offset_stats.resize(num_racks);
    violations_seen.assign(num_racks, 0);
    sched_scale.resize(num_racks);
    for (std::size_t i = 0; i < num_racks; ++i) {
      sched_scale[i] = racks[i]->demand_scale();
    }
    last_plenum.assign(num_racks, 0.0);
    observations.reserve(num_racks);
  }

  /// The rack's effective scale under the facility throttle.  The == 1.0
  /// fast path is not an optimisation: 1.0 * s == s bitwise, but skipping
  /// the multiply makes "no facility" provably the identity.
  double effective_scale(std::size_t i) const noexcept {
    return facility_scale == 1.0 ? sched_scale[i]
                                 : facility_scale * sched_scale[i];
  }

  void apply_effective_scale(std::size_t i) {
    const double effective = effective_scale(i);
    if (effective != racks[i]->demand_scale()) {
      racks[i]->set_demand_scale(effective);
    }
  }

  void finish_round() {
    const std::size_t num_racks = racks.size();
    // Deterministic barrier work, in rack order on this thread.
    for (const auto& rack : racks) rack->coordinate_round();
    if (racks.front()->done()) return;  // run over: nothing to schedule

    const double t = racks.front()->time_s();
    observations.clear();
    double watts = 0.0;
    for (std::size_t i = 0; i < num_racks; ++i) {
      const CoupledRackEngine::Session& rack = *racks[i];
      const std::size_t pooled_v = rack.pooled_deadline_violations_so_far();
      observations.push_back(aggregate_rack_observation(
          i, t, rack.last_observations(), pooled_v - violations_seen[i],
          sched_scale[i]));
      violations_seen[i] = pooled_v;
      watts += observations.back().cpu_watts;
    }
    last_cpu_watts = watts;

    {
      const obs::ScopedSpan sched_span(tel.trace, "room.schedule", "sched",
                                       tel.rack_label, 0,
                                       static_cast<std::int64_t>(rounds));
      scheduler->schedule(t, observations, directives);
    }
    require(directives.size() == num_racks,
            "RoomEngine: scheduler must return one directive per rack");
    // A round counts as a migration event only when load actually moved:
    // some rack scaled down AND another scaled up.  One-sided adjustments
    // (e.g. thermal-headroom retiring its one-round cost surcharge, or
    // pure load-shedding with no absorber) are not migrations.
    bool any_scale_up = false;
    bool any_scale_down = false;
    for (std::size_t i = 0; i < num_racks; ++i) {
      require(directives[i].demand_scale >= 0.0,
              "RoomEngine: scheduler demand scale must be >= 0");
      if (directives[i].demand_scale != sched_scale[i]) {
        (directives[i].demand_scale > sched_scale[i] ? any_scale_up
                                                     : any_scale_down) = true;
        sched_scale[i] = directives[i].demand_scale;
      }
      apply_effective_scale(i);
      scale_stats[i].add(racks[i]->demand_scale());
    }
    if (any_scale_up && any_scale_down) {
      ++migration_events;
      if (tel.attached) tel.on_migration(rounds);
    }

    {
      const obs::ScopedSpan plenum_span(tel.trace, "room.plenum", "physics",
                                        tel.rack_label, 0,
                                        static_cast<std::int64_t>(rounds));
      if (cross) {
        states.clear();
        states.reserve(num_racks);
        for (const RackObservation& o : observations) {
          states.push_back(RackPlenumState{o.cpu_watts, o.mean_fan_rpm});
        }
        cross->ambient_offsets(states, offsets);
        for (std::size_t i = 0; i < num_racks; ++i) {
          last_plenum[i] = offsets[i];
          const double off =
              supply_touched ? offsets[i] + supply_offset : offsets[i];
          racks[i]->set_ambient_offset(off);
          offset_stats[i].add(off);
        }
      } else if (supply_touched) {
        for (std::size_t i = 0; i < num_racks; ++i) {
          racks[i]->set_ambient_offset(supply_offset);
          offset_stats[i].add(supply_offset);
        }
      } else {
        for (std::size_t i = 0; i < num_racks; ++i) offset_stats[i].add(0.0);
      }
    }
    ++rounds;

    if (tel.attached) {
      tel.round_tail(round_t0, rounds, t, observations, violations_seen,
                     racks);
    }
  }

  RoomResult finish() {
    if (tel.attached) {
      tel.run_finished(rounds, params.racks.front().rack.sim.duration_s,
                       violations_seen);
    }
    const std::size_t num_racks = racks.size();
    RoomResult out;
    out.scheduler = params.scheduler;
    out.room_rounds = rounds;
    out.migration_events = migration_events;
    out.racks.reserve(num_racks);
    std::size_t pooled_periods = 0;
    std::size_t pooled_violations = 0;
    double thermal_violation_slot_sum = 0.0;
    std::size_t slot_count = 0;
    for (std::size_t i = 0; i < num_racks; ++i) {
      RoomRackSummary s;
      s.index = i;
      s.final_demand_scale = racks[i]->demand_scale();
      s.result = racks[i]->finish();
      s.demand_scale_stats = scale_stats[i];
      s.ambient_offset_stats = offset_stats[i];

      out.duration_s = s.result.duration_s;
      out.fan_energy_joules += s.result.fan_energy_joules;
      out.cpu_energy_joules += s.result.cpu_energy_joules;
      for (const CoupledSlotSummary& slot : s.result.slots) {
        pooled_periods += slot.deadline_periods;
        pooled_violations += slot.deadline_violations;
        thermal_violation_slot_sum += slot.result.thermal_violation_percent;
        ++slot_count;
      }
      out.max_junction_stats.add(s.result.max_junction_stats.max());
      out.racks.push_back(std::move(s));
    }
    out.total_energy_joules = out.fan_energy_joules + out.cpu_energy_joules;
    out.deadline_violation_percent =
        pooled_periods > 0 ? 100.0 * static_cast<double>(pooled_violations) /
                                 static_cast<double>(pooled_periods)
                           : 0.0;
    out.thermal_violation_percent =
        slot_count > 0
            ? thermal_violation_slot_sum / static_cast<double>(slot_count)
            : 0.0;
    return out;
  }
};

RoomEngine::Session::Session(const RoomParams& params, LockstepExecutor& team)
    : impl_(std::make_unique<Impl>(params, team)) {}

// A one-participant team runs its wave inline on this thread; the
// temporary outlives the delegated constructor (end of full-expression).
RoomEngine::Session::Session(const RoomParams& params)
    : Session(params, *std::make_unique<LockstepExecutor>(1)) {}

RoomEngine::Session::~Session() = default;

bool RoomEngine::Session::done() const noexcept {
  return impl_->racks.front()->done();
}

double RoomEngine::Session::time_s() const noexcept {
  return impl_->racks.front()->time_s();
}

std::size_t RoomEngine::Session::rounds() const noexcept {
  return impl_->rounds;
}

std::size_t RoomEngine::Session::num_racks() const noexcept {
  return impl_->racks.size();
}

std::size_t RoomEngine::Session::num_slots() const noexcept {
  return impl_->total_slots;
}

std::size_t RoomEngine::Session::num_shards() const noexcept {
  return impl_->shards.size();
}

void RoomEngine::Session::mark_round_start() {
  impl_->round_t0 = impl_->tel.attached ? obs::monotonic_ns() : 0;
}

void RoomEngine::Session::run_shard(std::size_t shard) {
  const Impl::RoomShard& s = impl_->shards[shard];
  s.session->run_shard(s.local);
}

void RoomEngine::Session::finish_round() { impl_->finish_round(); }

void RoomEngine::Session::set_facility_scale(double scale) {
  require(scale >= 0.0, "RoomEngine::Session: facility scale must be >= 0");
  impl_->facility_scale = scale;
  for (std::size_t i = 0; i < impl_->racks.size(); ++i) {
    impl_->apply_effective_scale(i);
  }
}

double RoomEngine::Session::facility_scale() const noexcept {
  return impl_->facility_scale;
}

void RoomEngine::Session::set_supply_offset(double celsius) {
  if (celsius != 0.0) impl_->supply_touched = true;
  impl_->supply_offset = celsius;
  if (!impl_->supply_touched) return;  // exact identity path preserved
  for (std::size_t i = 0; i < impl_->racks.size(); ++i) {
    impl_->racks[i]->set_ambient_offset(impl_->last_plenum[i] + celsius);
  }
}

double RoomEngine::Session::supply_offset() const noexcept {
  return impl_->supply_offset;
}

double RoomEngine::Session::cpu_watts_now() const noexcept {
  return impl_->last_cpu_watts;
}

RoomResult RoomEngine::Session::finish() { return impl_->finish(); }

RoomResult RoomEngine::run() const {
  // One epoch per round steps every rack's every chunk: intra-rack
  // parallelism falls out of the flat shard list.
  LockstepExecutor executor(threads_);
  Session session(params_, executor);
  while (!session.done()) {
    session.mark_round_start();
    executor.run(session.num_shards(),
                 [&session](std::size_t i) { session.run_shard(i); });
    session.finish_round();
  }
  return session.finish();
}

std::string RoomResult::to_table() const {
  std::ostringstream os;
  os << std::fixed;
  os << "rack  slots  ddl-viol%  thr-viol%  total-kJ  scale(mean/last)  "
        "offset(mean/max)\n";
  for (const RoomRackSummary& r : racks) {
    os << std::setw(4) << r.index << "  " << std::setw(5) << r.result.size()
       << "  " << std::setprecision(3) << std::setw(9)
       << r.result.deadline_violation_percent << "  " << std::setw(9)
       << r.result.thermal_violation_percent << "  " << std::setprecision(1)
       << std::setw(8) << r.result.total_energy_joules / 1000.0 << "  "
       << std::setprecision(2) << std::setw(7) << r.demand_scale_stats.mean()
       << "/" << std::setw(5) << r.final_demand_scale << "  "
       << std::setprecision(2) << std::setw(7) << r.ambient_offset_stats.mean()
       << "/" << std::setw(5) << r.ambient_offset_stats.max() << "\n";
  }
  os << "---\n";
  os << "scheduler              : " << scheduler << "\n";
  os << "racks / slots / rounds : " << racks.size() << " / " << total_slots()
     << " / " << room_rounds << "\n";
  os << "migration events       : " << migration_events << "\n";
  os << std::setprecision(3);
  os << "pooled deadline viol   : " << deadline_violation_percent << " % ("
     << pooled_deadline_violations() << " periods)\n";
  os << "mean thermal viol      : " << thermal_violation_percent << " %\n";
  os << std::setprecision(1);
  os << "room fan energy        : " << fan_energy_joules / 1000.0 << " kJ\n";
  os << "room cpu energy        : " << cpu_energy_joules / 1000.0 << " kJ\n";
  os << "room total energy      : " << total_energy_joules / 1000.0 << " kJ\n";
  os << "per-rack worst Tj      : mean " << max_junction_stats.mean()
     << " degC, worst " << max_junction_stats.max() << " degC\n";
  return os.str();
}

std::string RoomResult::to_json(const std::string& manifest_json) const {
  std::ostringstream os;
  os << std::setprecision(10);
  os << "{\n";
  if (!manifest_json.empty()) {
    os << "  \"manifest\": " << manifest_json << ",\n";
  }
  os << "  \"scheduler\": \"" << scheduler << "\",\n";
  os << "  \"racks\": " << racks.size() << ",\n";
  os << "  \"slots\": " << total_slots() << ",\n";
  os << "  \"duration_s\": " << duration_s << ",\n";
  os << "  \"room_rounds\": " << room_rounds << ",\n";
  os << "  \"migration_events\": " << migration_events << ",\n";
  os << "  \"totals\": {\n";
  os << "    \"fan_energy_j\": " << fan_energy_joules << ",\n";
  os << "    \"cpu_energy_j\": " << cpu_energy_joules << ",\n";
  os << "    \"total_energy_j\": " << total_energy_joules << ",\n";
  os << "    \"deadline_violation_pct\": " << deadline_violation_percent
     << ",\n";
  os << "    \"deadline_violations\": " << pooled_deadline_violations()
     << ",\n";
  os << "    \"thermal_violation_pct\": " << thermal_violation_percent
     << ",\n";
  os << "    \"worst_max_junction_c\": " << max_junction_stats.max() << "\n";
  os << "  },\n";
  os << "  \"per_rack\": [\n";
  for (std::size_t i = 0; i < racks.size(); ++i) {
    const RoomRackSummary& r = racks[i];
    os << "    {\"rack\": " << r.index << ", \"slots\": " << r.result.size()
       << ", \"coordinator\": \"" << r.result.coordinator << "\""
       << ", \"deadline_violation_pct\": "
       << r.result.deadline_violation_percent
       << ", \"deadline_violations\": "
       << r.result.pooled_deadline_violations()
       << ", \"thermal_violation_pct\": " << r.result.thermal_violation_percent
       << ", \"total_energy_j\": " << r.result.total_energy_joules
       << ", \"mean_demand_scale\": " << r.demand_scale_stats.mean()
       << ", \"final_demand_scale\": " << r.final_demand_scale
       << ", \"mean_ambient_offset_c\": " << r.ambient_offset_stats.mean()
       << ", \"max_ambient_offset_c\": " << r.ambient_offset_stats.max()
       << "}" << (i + 1 < racks.size() ? "," : "") << "\n";
  }
  os << "  ]\n";
  os << "}\n";
  return os.str();
}

std::string RoomResult::to_csv() const {
  std::ostringstream os;
  os << std::setprecision(10);
  os << "rack,slots,coordinator,deadline_violation_pct,deadline_violations,"
        "thermal_violation_pct,fan_energy_j,cpu_energy_j,total_energy_j,"
        "mean_demand_scale,final_demand_scale,mean_ambient_offset_c,"
        "max_ambient_offset_c\n";
  for (const RoomRackSummary& r : racks) {
    os << r.index << "," << r.result.size() << "," << r.result.coordinator
       << "," << r.result.deadline_violation_percent << ","
       << r.result.pooled_deadline_violations() << ","
       << r.result.thermal_violation_percent << ","
       << r.result.fan_energy_joules << "," << r.result.cpu_energy_joules
       << "," << r.result.total_energy_joules << ","
       << r.demand_scale_stats.mean() << "," << r.final_demand_scale << ","
       << r.ambient_offset_stats.mean() << "," << r.ambient_offset_stats.max()
       << "\n";
  }
  return os.str();
}

RoomParams default_room_scenario(std::size_t num_racks, std::uint64_t seed,
                                 double duration_s) {
  require(num_racks > 0, "default_room_scenario: need at least one rack");
  require(duration_s > 0.0, "default_room_scenario: duration must be > 0");
  RoomParams room;
  room.racks.reserve(num_racks);
  const std::size_t heavy_racks = (num_racks + 1) / 2;
  for (std::size_t i = 0; i < num_racks; ++i) {
    CoupledRackParams rack =
        default_coupled_scenario(derive_seed(seed, i), duration_s);
    // The room layer supplies the cross-rack policy; within a rack every
    // slot keeps its own DTM stack so the migration benefit is isolated
    // from rack-level fan/budget arbitration.
    rack.coordinator = "independent";
    if (i < heavy_racks) {
      // Hot aisle: saturating spiky load that drives DTM capping (and with
      // it deadline violations) when left where it is.
      rack.rack.workload.base.low = 0.45;
      rack.rack.workload.base.high = 0.95;
      rack.rack.workload.spike_rate_per_s = 1.0 / 120.0;
    } else {
      // Cold aisle: plenty of thermal headroom to migrate into.
      rack.rack.workload.base.low = 0.05;
      rack.rack.workload.base.high = 0.30;
      rack.rack.workload.spike_rate_per_s = 1.0 / 400.0;
    }
    room.racks.push_back(std::move(rack));
  }
  room.scheduler = "static";
  // Noticeable hot-aisle carryover so the heavy half genuinely preheats
  // the light half's intakes until load moves.
  room.cross_plenum.recirculation_fraction = 0.10;
  room.cross_plenum.neighbor_decay = 0.6;
  return room;
}

}  // namespace fsc
