#include "coord/coupled_rack_engine.hpp"

#include <algorithm>
#include <iomanip>
#include <memory>
#include <optional>
#include <sstream>

#include "batch/rack_stepper.hpp"
#include "coord/observe.hpp"
#include "core/controller.hpp"
#include "core/policy_factory.hpp"
#include "fault/fault_injector.hpp"
#include "obs/progress.hpp"
#include "obs/snapshot.hpp"
#include "sim/instrumentation.hpp"
#include "util/lockstep_executor.hpp"
#include "workload/workload_table.hpp"
#include "util/lane_vector.hpp"
#include "util/units.hpp"

namespace fsc {

namespace {

/// Everything one slot needs to advance between barriers, at a stable
/// address (the Server keeps a pointer to the Rng, the Session keeps
/// references to everything).  Construction order mirrors run_simulation
/// exactly so an uncoupled run is bit-identical to per-slot runs.
/// Cache-line aligned: the Server, Rng, sinks and Session are written every
/// period by whichever thread steps the slot's chunk, and must not share a
/// line with the neighbouring slot of another chunk — which is why the
/// Session lives here rather than in its own heap block.
struct alignas(kCacheLineBytes) SlotRuntime {
  Rng rng;
  std::shared_ptr<const Workload> workload;
  Server server;
  std::unique_ptr<DtmPolicy> policy;
  SimulationEngine engine;
  DeadlineStatsSink deadline;
  ThermalViolationSink thermal;
  EnergyAccumulatorSink energy;
  std::optional<SimulationEngine::Session> session;

  double base_inlet_celsius = 0.0;
  RunningStats inlet_stats;
  double cap_limit_sum = 0.0;
  std::size_t fan_override_rounds = 0;

  SlotRuntime(const RackServerSpec& spec, const std::string& policy_name,
              const SimulationParams& sim)
      : rng(spec.seed),
        workload(make_slot_workload(spec, rng)),
        server(spec.server, spec.solution.initial_fan_rpm, rng),
        policy(PolicyFactory::instance().make(policy_name, spec.solution)),
        engine(sim) {
    engine.add_sink(&deadline);
    engine.add_sink(&thermal);
    engine.add_sink(&energy);
    session.emplace(engine, server, *policy, *workload);
    base_inlet_celsius = server.inlet_temperature();
  }
};

}  // namespace

std::size_t CoupledRackResult::pooled_deadline_violations() const noexcept {
  std::size_t total = 0;
  for (const CoupledSlotSummary& s : slots) total += s.deadline_violations;
  return total;
}

CoupledRackEngine::CoupledRackEngine(CoupledRackParams params,
                                     std::size_t threads)
    : params_(std::move(params)), threads_(threads) {
  require(threads_ > 0, "CoupledRackEngine: need at least one thread");
  // Also validates positivity of both periods.
  (void)derive_fan_divider(params_.rack.sim.cpu_period_s,
                           params_.coord.coordination_period_s);
}

struct CoupledRackEngine::Session::Impl {
  CoupledRackParams params;
  Rack rack;
  std::unique_ptr<RackCoordinator> coordinator;
  long periods_per_round = 0;
  std::vector<std::unique_ptr<SlotRuntime>> slots;
  /// Chunked SoA stepping of every slot.
  RackBatchStepper stepper;
  /// Batched demand gather (null when some lane's workload is not
  /// pre-sampled).  Owned here at a stable address; the stepper borrows it.
  std::unique_ptr<WorkloadTable> workload_table;
  /// Fault driver (null when params.faults is empty — the common case, in
  /// which no fault code runs anywhere near the hot path).
  std::unique_ptr<FaultInjector> injector;
  std::optional<SharedPlenumModel> plenum;
  std::vector<SlotObservation> observations;
  // Reusable per-round scratch (hoisted so the steady-state round loop
  // allocates nothing).
  std::vector<SlotDirective> directives;
  std::vector<PlenumSlotState> plenum_states;
  std::vector<double> plenum_inlets;
  std::size_t rounds = 0;
  double demand_scale = 1.0;
  double ambient_offset = 0.0;

  // Telemetry, resolved once at construction so every hot hook is a single
  // pointer test (null = detached).  Counter/histogram handles are cached
  // here because registry lookups take a mutex.
  obs::TraceRecorder* trace = nullptr;
  obs::Counter* rounds_counter = nullptr;
  obs::Counter* fan_override_counter = nullptr;
  std::uint32_t rack_label = 0;

  Impl(const CoupledRackParams& p, LockstepExecutor& team)
      : params(p), rack(p.rack) {
    const SimulationParams& sim = params.rack.sim;
    const SolutionConfig& solution = params.rack.solution;

    CoordinatorConfig cfg = params.coord;
    cfg.num_slots = rack.size();
    cfg.thermal_limit_celsius = sim.thermal_limit_celsius;
    cfg.fan_min_rpm = solution.fan_params.min_speed_rpm;
    cfg.fan_max_rpm = solution.fan_params.max_speed_rpm;
    cfg.cpu_power = solution.cpu_power;  // nominal datasheet model
    coordinator =
        PolicyFactory::instance().make_coordinator(params.coordinator, cfg);
    coordinator->reset();

    periods_per_round =
        derive_fan_divider(sim.cpu_period_s, cfg.coordination_period_s);

    // One team wave builds the slot runtimes: each seeds its own Rng from
    // its spec and shares nothing mutable with its neighbours, so the
    // build order cannot change a bit.  A failed build rethrows the
    // lowest slot's error, the one a serial loop would have thrown.
    slots.resize(rack.size());
    team.run(slots.size(), [&](std::size_t i) {
      slots[i] = std::make_unique<SlotRuntime>(rack.servers()[i],
                                               params.rack.policy, sim);
    });

    for (const auto& rt : slots) stepper.add_slot(*rt->session, rt->server);
    // Table every lane once, up front.  A single non-tableable workload
    // drops the whole table — the per-lane path is always correct, the
    // table only faster.
    auto table = std::make_unique<WorkloadTable>();
    bool all_tabled = true;
    for (const auto& rt : slots) {
      if (!table->add_lane(*rt->workload)) {
        all_tabled = false;
        break;
      }
    }
    if (all_tabled) {
      workload_table = std::move(table);
      stepper.set_workload_table(workload_table.get());
    }
    // Freeze the dt memos now, single-threaded: chunks of this batch may
    // later step concurrently and must never refresh shared state.
    stepper.prepare();

    if (params.plenum_enabled) {
      std::vector<double> base_inlets;
      base_inlets.reserve(slots.size());
      for (const auto& rt : slots) base_inlets.push_back(rt->base_inlet_celsius);
      plenum.emplace(params.plenum, std::move(base_inlets));
    }

    trace = params.obs.trace;
    rack_label = params.obs.rack;
    if (params.obs.metrics != nullptr) {
      rounds_counter = &params.obs.metrics->counter("rack.rounds");
      fan_override_counter =
          &params.obs.metrics->counter("rack.fan_override_rounds");
      // Salt the slot attribution by rack so a room's racks spread over
      // the shared counters' slots deterministically.
      stepper.batch().attach_memo_counters(
          *params.obs.metrics, static_cast<std::size_t>(rack_label) * rack.size());
    }

    // After the telemetry handles, so every rack registers its metrics as
    // a prefix of one name sequence, and racks built concurrently by a
    // room still register them in a deterministic order.
    if (!params.faults.empty()) {
      std::vector<Server*> servers;
      servers.reserve(slots.size());
      for (const auto& rt : slots) servers.push_back(&rt->server);
      injector = std::make_unique<FaultInjector>(
          params.faults, std::move(servers), params.obs);
      // Arm anything scheduled at t = 0 before the first period steps, so a
      // from-the-start fault shapes the whole run.
      injector->advance(0.0);
    }
  }
};

CoupledRackEngine::Session::Session(const CoupledRackParams& params,
                                    LockstepExecutor& team) {
  // Validate coordination timing up front, exactly like the engine ctor.
  (void)derive_fan_divider(params.rack.sim.cpu_period_s,
                           params.coord.coordination_period_s);
  impl_ = std::make_unique<Impl>(params, team);
}

// A one-participant team runs its wave inline on this thread; the
// temporary outlives the delegated constructor (end of full-expression).
CoupledRackEngine::Session::Session(const CoupledRackParams& params)
    : Session(params, *std::make_unique<LockstepExecutor>(1)) {}

CoupledRackEngine::Session::~Session() = default;

bool CoupledRackEngine::Session::done() const noexcept {
  return impl_->slots.front()->session->done();
}

double CoupledRackEngine::Session::time_s() const noexcept {
  return impl_->slots.front()->session->time_s();
}

std::size_t CoupledRackEngine::Session::rounds() const noexcept {
  return impl_->rounds;
}

std::size_t CoupledRackEngine::Session::num_slots() const noexcept {
  return impl_->slots.size();
}

std::size_t CoupledRackEngine::Session::num_shards() const noexcept {
  constexpr std::size_t lanes = RackBatchStepper::kAutoChunkLanes;
  return (impl_->stepper.size() + lanes - 1) / lanes;
}

void CoupledRackEngine::Session::run_shard(std::size_t shard) {
  Impl& im = *impl_;
  const obs::ScopedSpan span(im.trace, "rack.shard", "exec", im.rack_label,
                             static_cast<std::uint32_t>(shard),
                             static_cast<std::int64_t>(im.rounds));
  // The shard is one contiguous lane chunk of the rack's SoA batch —
  // chunks parallelise across threads, lanes vectorize within the chunk.
  constexpr std::size_t lanes = RackBatchStepper::kAutoChunkLanes;
  const std::size_t lo = shard * lanes;
  im.stepper.advance_range_periods(
      lo, std::min(lo + lanes, im.stepper.size()), im.periods_per_round);
}

void CoupledRackEngine::Session::coordinate_round() {
  Impl& im = *impl_;
  if (done()) return;  // run over: nothing to steer

  const obs::ScopedSpan coord_span(im.trace, "rack.coord", "round",
                                   im.rack_label, 0,
                                   static_cast<std::int64_t>(im.rounds));

  // Deterministic barrier work, in slot order on this thread.
  const double t = im.slots.front()->session->time_s();
  // Fault transitions happen only here — the single-threaded instant of a
  // round — which quantizes them to barriers and keeps faulted runs
  // deterministic across thread counts.
  if (im.injector) im.injector->advance(t);
  im.observations.clear();
  im.observations.reserve(im.slots.size());
  for (const auto& rt : im.slots) {
    im.observations.push_back(collect_slot_observation(
        im.observations.size(), t, rt->server, *rt->session));
  }
  if (im.injector) im.injector->stamp(im.observations, t);

  std::vector<SlotDirective>& directives = im.directives;
  im.coordinator->coordinate(t, im.observations, directives);
  require(directives.size() == im.slots.size(),
          "CoupledRackEngine: coordinator must return one directive per slot");
  std::size_t overrides_this_round = 0;
  for (std::size_t i = 0; i < im.slots.size(); ++i) {
    SlotRuntime& rt = *im.slots[i];
    const SlotDirective& d = directives[i];
    if (d.has_fan_override()) {
      rt.session->set_fan_override(d.fan_override_rpm);
      ++rt.fan_override_rounds;
      ++overrides_this_round;
    } else {
      rt.session->clear_fan_override();
    }
    rt.session->set_cap_limit(d.cap_limit);
    rt.cap_limit_sum += d.cap_limit;
  }
  if (im.rounds_counter != nullptr) im.rounds_counter->increment();
  if (im.fan_override_counter != nullptr && overrides_this_round > 0) {
    im.fan_override_counter->add(overrides_this_round);
  }

  {
    const obs::ScopedSpan plenum_span(im.trace, "rack.plenum", "physics",
                                      im.rack_label, 0,
                                      static_cast<std::int64_t>(im.rounds));
    if (im.plenum) {
      im.plenum_states.clear();
      im.plenum_states.reserve(im.slots.size());
      for (const SlotObservation& o : im.observations) {
        im.plenum_states.push_back(
            PlenumSlotState{o.cpu_watts, o.fan_actual_rpm});
      }
      im.plenum->inlet_temperatures(im.plenum_states, im.plenum_inlets);
      for (std::size_t i = 0; i < im.slots.size(); ++i) {
        im.slots[i]->server.set_inlet_temperature(im.plenum_inlets[i] +
                                                  im.ambient_offset);
      }
    } else if (im.ambient_offset != 0.0) {
      // No rack-level plenum, but the room still preheats this rack.
      for (const auto& rt : im.slots) {
        rt->server.set_inlet_temperature(rt->base_inlet_celsius +
                                         im.ambient_offset);
      }
    }
  }
  for (const auto& rt : im.slots) {
    rt->inlet_stats.add(rt->server.inlet_temperature());
  }
  ++im.rounds;
}

void CoupledRackEngine::Session::set_demand_scale(double scale) {
  require(scale >= 0.0, "CoupledRackEngine::Session: demand scale must be >= 0");
  impl_->demand_scale = scale;
  for (const auto& rt : impl_->slots) rt->session->set_demand_scale(scale);
}

double CoupledRackEngine::Session::demand_scale() const noexcept {
  return impl_->demand_scale;
}

void CoupledRackEngine::Session::set_ambient_offset(double celsius) {
  impl_->ambient_offset = celsius;
}

double CoupledRackEngine::Session::ambient_offset() const noexcept {
  return impl_->ambient_offset;
}

const std::vector<SlotObservation>&
CoupledRackEngine::Session::last_observations() const noexcept {
  return impl_->observations;
}

std::size_t CoupledRackEngine::Session::pooled_deadline_violations_so_far()
    const noexcept {
  std::size_t total = 0;
  for (const auto& rt : impl_->slots) {
    total += rt->deadline.deadline().violations();
  }
  return total;
}

double CoupledRackEngine::Session::fan_energy_joules_so_far() const noexcept {
  double total = 0.0;
  for (const auto& rt : impl_->slots) total += rt->server.energy().fan_energy();
  return total;
}

double CoupledRackEngine::Session::cpu_energy_joules_so_far() const noexcept {
  double total = 0.0;
  for (const auto& rt : impl_->slots) total += rt->server.energy().cpu_energy();
  return total;
}

CoupledRackResult CoupledRackEngine::Session::finish() {
  Impl& im = *impl_;
  const std::size_t rounds = im.rounds;

  CoupledRackResult out;
  out.coordinator = im.params.coordinator;
  out.policy = im.params.rack.policy;
  out.coordination_rounds = rounds;
  out.slots.reserve(im.slots.size());
  std::size_t pooled_periods = 0;
  std::size_t pooled_violations = 0;
  double thermal_violation_sum = 0.0;
  for (std::size_t i = 0; i < im.slots.size(); ++i) {
    SlotRuntime& rt = *im.slots[i];
    const double duration = rt.session->finish();
    if (rounds == 0) {
      // The whole run fit inside one coordination period, so no barrier
      // ever sampled the inlets: report the (constant) base inlet instead
      // of empty-stats sentinels.
      rt.inlet_stats.add(rt.server.inlet_temperature());
    }

    CoupledSlotSummary s;
    s.index = i;
    s.seed = im.rack.server(i).seed;
    s.duration_s = duration;
    s.deadline_periods = rt.deadline.deadline().periods();
    s.deadline_violations = rt.deadline.deadline().violations();
    s.result.name = "slot-" + std::to_string(i);
    s.result.deadline_violation_percent = rt.deadline.deadline().violation_percent();
    s.result.fan_energy_joules = rt.energy.fan_energy_joules();
    s.result.cpu_energy_joules = rt.energy.cpu_energy_joules();
    s.result.total_energy_joules =
        s.result.fan_energy_joules + s.result.cpu_energy_joules;
    s.result.mean_junction_celsius = rt.thermal.junction_stats().mean();
    s.result.max_junction_celsius = rt.thermal.junction_stats().max();
    s.result.thermal_violation_percent =
        100.0 * rt.thermal.violation_fraction(duration);
    s.inlet_stats = rt.inlet_stats;
    s.mean_cap_limit =
        rounds > 0 ? rt.cap_limit_sum / static_cast<double>(rounds) : 1.0;
    s.fan_override_rounds = rt.fan_override_rounds;

    out.duration_s = duration;
    out.fan_energy_joules += s.result.fan_energy_joules;
    out.cpu_energy_joules += s.result.cpu_energy_joules;
    pooled_periods += s.deadline_periods;
    pooled_violations += s.deadline_violations;
    thermal_violation_sum += s.result.thermal_violation_percent;
    out.max_junction_stats.add(s.result.max_junction_celsius);
    out.mean_junction_stats.add(s.result.mean_junction_celsius);
    out.slots.push_back(std::move(s));
  }
  out.total_energy_joules = out.fan_energy_joules + out.cpu_energy_joules;
  out.deadline_violation_percent =
      pooled_periods > 0 ? 100.0 * static_cast<double>(pooled_violations) /
                               static_cast<double>(pooled_periods)
                         : 0.0;
  out.thermal_violation_percent =
      out.slots.empty()
          ? 0.0
          : thermal_violation_sum / static_cast<double>(out.slots.size());
  return out;
}

CoupledRackResult CoupledRackEngine::run() const {
  // Persistent workers: pre-assigned chunk shards behind one epoch barrier
  // per round — no per-round task submission at all.
  LockstepExecutor executor(threads_);
  Session session(params_, executor);
  const std::size_t shards = session.num_shards();

  const obs::Telemetry& tel = params_.obs;
  obs::Histogram* round_hist =
      tel.metrics != nullptr ? &tel.metrics->histogram("rack.round_ns")
                             : nullptr;
  std::uint64_t window_violations_seen = 0;

  while (!session.done()) {
    const std::int64_t round_t0 =
        (tel.trace != nullptr || round_hist != nullptr) ? obs::monotonic_ns()
                                                        : 0;
    const std::size_t round_idx = session.rounds();
    executor.run(shards,
                 [&session](std::size_t shard) { session.run_shard(shard); });
    session.coordinate_round();
    std::uint64_t round_ns = 0;
    if (round_t0 != 0) {
      const std::int64_t t1 = obs::monotonic_ns();
      round_ns = static_cast<std::uint64_t>(t1 - round_t0);
      if (tel.trace != nullptr) {
        tel.trace->complete("rack.round", "round", round_t0, t1, tel.rack, 0,
                            static_cast<std::int64_t>(round_idx));
      }
      if (round_hist != nullptr) round_hist->observe(round_ns);
    }
    const std::size_t rounds_done = session.rounds();
    if (tel.snapshot != nullptr && tel.snapshot->due(rounds_done) &&
        !session.last_observations().empty()) {
      obs::SnapshotExporter::Row row;
      row.round = rounds_done;
      row.time_s = session.time_s();
      row.rack = static_cast<int>(tel.rack);
      row.demand_scale = session.demand_scale();
      for (const SlotObservation& o : session.last_observations()) {
        row.cpu_watts += o.cpu_watts;
        row.mean_inlet_c += o.inlet_celsius;
        row.max_inlet_c = std::max(row.max_inlet_c, o.inlet_celsius);
        row.mean_fan_rpm += o.fan_actual_rpm;
      }
      const double n =
          static_cast<double>(session.last_observations().size());
      row.mean_inlet_c /= n;
      row.mean_fan_rpm /= n;
      const std::uint64_t pooled = static_cast<std::uint64_t>(
          session.pooled_deadline_violations_so_far());
      row.window_violations = pooled - window_violations_seen;
      window_violations_seen = pooled;
      row.total_violations = pooled;
      row.fan_energy_j = session.fan_energy_joules_so_far();
      row.cpu_energy_j = session.cpu_energy_joules_so_far();
      if (tel.metrics != nullptr) {
        const auto snap = tel.metrics->snapshot();
        const std::uint64_t hits = snap.counter("batch.memo_hit") +
                                   snap.counter("batch.memo_shared_hit");
        const std::uint64_t total = hits + snap.counter("batch.memo_miss");
        if (total > 0) {
          row.memo_hit_pct =
              100.0 * static_cast<double>(hits) / static_cast<double>(total);
        }
      }
      row.round_wall_ns = round_ns;
      tel.snapshot->write(row);
    }
    if (tel.progress != nullptr) {
      tel.progress->tick(
          rounds_done, session.time_s(),
          static_cast<std::uint64_t>(
              session.pooled_deadline_violations_so_far()));
    }
  }
  if (tel.progress != nullptr) {
    tel.progress->finish(
        session.rounds(), params_.rack.sim.duration_s,
        static_cast<std::uint64_t>(
            session.pooled_deadline_violations_so_far()));
  }
  if (tel.snapshot != nullptr) tel.snapshot->close();
  return session.finish();
}

std::string CoupledRackResult::to_table() const {
  std::ostringstream os;
  os << std::fixed;
  os << "slot  ddl-viol%  thr-viol%  fan-kJ    cpu-kJ    maxTj  inlet(mean/max)  "
        "capL   fan-ovr\n";
  for (const CoupledSlotSummary& s : slots) {
    os << std::setw(4) << s.index << "  " << std::setprecision(3) << std::setw(9)
       << s.result.deadline_violation_percent << "  " << std::setw(9)
       << s.result.thermal_violation_percent << "  " << std::setprecision(1)
       << std::setw(8) << s.result.fan_energy_joules / 1000.0 << "  "
       << std::setw(8) << s.result.cpu_energy_joules / 1000.0 << "  "
       << std::setw(5) << s.result.max_junction_celsius << "  " << std::setw(6)
       << s.inlet_stats.mean() << "/" << std::setw(5) << s.inlet_stats.max()
       << "  " << std::setprecision(2) << std::setw(5) << s.mean_cap_limit
       << "  " << std::setw(7) << s.fan_override_rounds << "\n";
  }
  os << "---\n";
  os << "coordinator            : " << coordinator << " (policy " << policy
     << ")\n";
  os << "slots / rounds         : " << slots.size() << " / "
     << coordination_rounds << "\n";
  os << std::setprecision(3);
  os << "pooled deadline viol   : " << deadline_violation_percent << " %\n";
  os << "mean thermal viol      : " << thermal_violation_percent << " %\n";
  os << std::setprecision(1);
  os << "rack fan energy        : " << fan_energy_joules / 1000.0 << " kJ\n";
  os << "rack cpu energy        : " << cpu_energy_joules / 1000.0 << " kJ\n";
  os << "rack total energy      : " << total_energy_joules / 1000.0 << " kJ\n";
  os << "per-slot max Tj        : mean " << max_junction_stats.mean()
     << " degC, worst " << max_junction_stats.max() << " degC\n";
  return os.str();
}

std::string CoupledRackResult::to_json(const std::string& manifest_json) const {
  std::ostringstream os;
  os << std::setprecision(10);
  os << "{\n";
  if (!manifest_json.empty()) {
    os << "  \"manifest\": " << manifest_json << ",\n";
  }
  os << "  \"coordinator\": \"" << coordinator << "\",\n";
  os << "  \"policy\": \"" << policy << "\",\n";
  os << "  \"slots\": " << slots.size() << ",\n";
  os << "  \"duration_s\": " << duration_s << ",\n";
  os << "  \"coordination_rounds\": " << coordination_rounds << ",\n";
  os << "  \"totals\": {\n";
  os << "    \"fan_energy_j\": " << fan_energy_joules << ",\n";
  os << "    \"cpu_energy_j\": " << cpu_energy_joules << ",\n";
  os << "    \"total_energy_j\": " << total_energy_joules << ",\n";
  os << "    \"deadline_violation_pct\": " << deadline_violation_percent << ",\n";
  os << "    \"deadline_violations\": " << pooled_deadline_violations() << ",\n";
  os << "    \"thermal_violation_pct\": " << thermal_violation_percent << ",\n";
  os << "    \"worst_max_junction_c\": " << max_junction_stats.max() << "\n";
  os << "  },\n";
  os << "  \"per_slot\": [\n";
  for (std::size_t i = 0; i < slots.size(); ++i) {
    const CoupledSlotSummary& s = slots[i];
    os << "    {\"slot\": " << s.index << ", \"seed\": " << s.seed
       << ", \"deadline_violation_pct\": " << s.result.deadline_violation_percent
       << ", \"thermal_violation_pct\": " << s.result.thermal_violation_percent
       << ", \"fan_energy_j\": " << s.result.fan_energy_joules
       << ", \"cpu_energy_j\": " << s.result.cpu_energy_joules
       << ", \"max_junction_c\": " << s.result.max_junction_celsius
       << ", \"mean_inlet_c\": " << s.inlet_stats.mean()
       << ", \"max_inlet_c\": " << s.inlet_stats.max()
       << ", \"mean_cap_limit\": " << s.mean_cap_limit
       << ", \"fan_override_rounds\": " << s.fan_override_rounds << "}"
       << (i + 1 < slots.size() ? "," : "") << "\n";
  }
  os << "  ]\n";
  os << "}\n";
  return os.str();
}

std::string CoupledRackResult::to_csv() const {
  std::ostringstream os;
  os << std::setprecision(10);
  os << "slot,seed,deadline_violation_pct,thermal_violation_pct,fan_energy_j,"
        "cpu_energy_j,total_energy_j,mean_junction_c,max_junction_c,"
        "mean_inlet_c,max_inlet_c,mean_cap_limit,fan_override_rounds\n";
  for (const CoupledSlotSummary& s : slots) {
    os << s.index << "," << s.seed << "," << s.result.deadline_violation_percent
       << "," << s.result.thermal_violation_percent << ","
       << s.result.fan_energy_joules << "," << s.result.cpu_energy_joules << ","
       << s.result.total_energy_joules << "," << s.result.mean_junction_celsius
       << "," << s.result.max_junction_celsius << "," << s.inlet_stats.mean()
       << "," << s.inlet_stats.max() << "," << s.mean_cap_limit << ","
       << s.fan_override_rounds << "\n";
  }
  return os.str();
}

CoupledRackParams default_coupled_scenario(std::uint64_t seed,
                                           double duration_s) {
  require(duration_s > 0.0, "default_coupled_scenario: duration must be > 0");
  CoupledRackParams p;
  p.rack.num_servers = 8;
  p.rack.base_seed = seed;
  p.rack.policy = "r-coord+a-tref+ss-fan";
  p.rack.sim.duration_s = duration_s;
  p.rack.sim.initial_utilization = 0.1;
  // Contended rack: heavier square load with frequent saturation spikes —
  // the regime where fan arbitration and budget capping have work to do.
  p.rack.workload.base.low = 0.25;
  p.rack.workload.base.high = 0.85;
  p.rack.workload.base.duration_s = duration_s;
  p.rack.workload.spike_rate_per_s = 1.0 / 150.0;
  p.rack.workload.spike_duration_s = 30.0;
  // Dense chassis: strong recirculation through a tight plenum.
  p.plenum.recirculation_fraction = 0.15;
  p.plenum.neighbor_decay = 0.5;
  p.coord.coordination_period_s = 30.0;
  p.coord.fan_zone_size = 4;
  // Budget well below the rack's aggregate peak draw (8 x 160 W = 1280 W)
  // and below the high-phase mean (~1200 W), so the high half of the square
  // wave oversubscribes it and water-filling has to arbitrate: the rack
  // trades deadline slack for a solid total-energy cut.
  p.coord.rack_power_budget_watts = 1000.0;
  return p;
}

}  // namespace fsc
