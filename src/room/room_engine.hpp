// Lockstep room simulation: K racks advanced as one scheduled facility —
// the third rung of the server → rack → room ladder.
//
// The CoupledRackEngine (coord/coupled_rack_engine.hpp) closes physics and
// control loops *within* a rack; the RoomEngine closes the workload loop
// *across* racks:
//
//   * load migration: a RoomScheduler (selected by PolicyFactory name) may
//     retarget each rack's demand scale between rounds, moving work — not
//     just watts — from stressed racks onto racks with headroom;
//   * room physics: a CrossRackPlenumModel couples rack exhausts at room
//     granularity (hot-aisle recirculation between adjacent racks), adding
//     a per-rack ambient offset on top of each rack's own shared plenum.
//
// Execution model: every room round, all racks' batch chunks run as ONE
// LockstepExecutor wave (each rack one coordination period), then a
// deterministic barrier completes the racks in rack order — rack
// coordination, then room observation, scheduling, and plenum retargeting
// on the calling thread.  Nothing depends on thread scheduling, so results
// are bit-identical for any thread count; with the "static" scheduler and
// the cross-rack plenum disabled they are bit-identical to K independent
// CoupledRackEngine runs (test_room verifies both properties).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "coord/coupled_rack_engine.hpp"
#include "room/cross_plenum.hpp"
#include "room/scheduler.hpp"
#include "util/statistics.hpp"

namespace fsc {

/// Everything a room run needs: the racks (each a full coupled-rack spec),
/// the scheduler selection, and the room-level coupling physics.
struct RoomParams {
  /// One entry per rack.  Racks may differ in size, coordinator, workload,
  /// and plenum, but must share the CPU control period, the coordination
  /// period, and the duration (lockstep needs aligned barriers), plus the
  /// nominal CPU power model (the scheduler prices load with one
  /// datasheet model).
  std::vector<CoupledRackParams> racks;
  std::string scheduler = "static";  ///< PolicyFactory room-scheduler key
  /// Scheduler configuration.  num_racks, total_slots, and the nominal
  /// power model are synced from `racks` by the engine so callers only set
  /// the genuinely free knobs (step, hysteresis, budget).
  RoomSchedulerConfig sched;
  CrossRackPlenumParams cross_plenum;
  bool cross_plenum_enabled = true;
  /// Telemetry sinks (obs/obs.hpp), default fully detached and read-only
  /// with respect to the simulation (bit-identity preserved; test_obs).
  /// The engine fans metrics/trace down to every rack session (stamping
  /// each with its rack index) and drives snapshot/progress itself;
  /// per-rack `obs` fields in `racks` are overridden at room scope.
  obs::Telemetry obs;
};

/// One rack's outcome plus its room-scheduling exposure.
struct RoomRackSummary {
  std::size_t index = 0;
  CoupledRackResult result;
  RunningStats demand_scale_stats;    ///< scale in force across room rounds
  RunningStats ambient_offset_stats;  ///< cross-rack preheat applied
  double final_demand_scale = 1.0;
};

/// Room-level aggregate of a scheduled run.
struct RoomResult {
  std::string scheduler;
  std::vector<RoomRackSummary> racks;  ///< rack order

  double fan_energy_joules = 0.0;
  double cpu_energy_joules = 0.0;
  double total_energy_joules = 0.0;
  double deadline_violation_percent = 0.0;  ///< pooled over every slot period
  double thermal_violation_percent = 0.0;   ///< mean over all slots
  RunningStats max_junction_stats;          ///< per-rack worst Tj spread
  double duration_s = 0.0;
  std::size_t room_rounds = 0;
  /// Rounds in which the scheduler actually moved load between racks
  /// (at least one rack scaled down and another scaled up).
  std::size_t migration_events = 0;

  std::size_t size() const noexcept { return racks.size(); }
  std::size_t total_slots() const noexcept;
  std::size_t pooled_deadline_violations() const noexcept;

  /// Fixed-width per-rack + aggregate report.
  std::string to_table() const;
  /// Machine-readable report (totals + per-rack rows), schema documented
  /// in the fsc example.  The overload embeds a "manifest" object
  /// (obs::RunManifest::to_json) as the first key when non-empty, so every
  /// report is self-describing.
  std::string to_json() const { return to_json(std::string()); }
  std::string to_json(const std::string& manifest_json) const;
  /// Per-rack CSV (one row per rack, aggregate columns).
  std::string to_csv() const;
};

/// Steps a room of racks in lockstep under a named RoomScheduler.
class RoomEngine {
 public:
  /// Validates thread count, that at least one rack is configured, and
  /// that all racks share the lockstep timing (CPU control period,
  /// coordination period, duration).  The scheduler name is resolved at
  /// run() so late-registered schedulers work.
  RoomEngine(RoomParams params, std::size_t threads);

  const RoomParams& params() const noexcept { return params_; }
  std::size_t threads() const noexcept { return threads_; }

  /// Simulate the whole room in lockstep and aggregate.  Deterministic for
  /// a fixed RoomParams regardless of `threads`.
  RoomResult run() const;

  /// Resumable room session: the round loop of run(), opened up so an
  /// outer driver (RoomEngine::run itself, or the facility tier) owns the
  /// execution strategy and can interleave room rounds with higher-level
  /// coordination.  One round is:
  ///
  ///   mark_round_start();                 // telemetry t0 only
  ///   for each shard: run_shard(i)        // any executor, any order
  ///   finish_round();                     // rack coordination + room
  ///                                       // schedule + plenum, in order
  ///
  /// repeated while !done(), then finish() aggregates.  All simulation
  /// state advances on the driving thread except the shard bodies, so the
  /// determinism guarantees of run() carry over verbatim.
  ///
  /// Facility hooks: a facility-level demand throttle (set_facility_scale)
  /// composes multiplicatively with the room scheduler's own directives —
  /// the scheduler keeps reasoning in its own scale frame and never sees
  /// the throttle — and a supply-air offset (set_supply_offset) is added
  /// to every rack's ambient offset.  Both default to the exact identity
  /// (scale 1, offset never applied), so a session that never sees a
  /// facility call is bit-identical to a standalone run.
  class Session {
   public:
    /// Validates the params exactly like the RoomEngine constructor and
    /// builds the rack sessions as one wave on `team` (each rack from its
    /// own params, so the result does not depend on the team's size); the
    /// scheduler and plenum follow on the calling thread.  `team` only
    /// builds: the caller still drives run_shard() on any executor.
    /// `team` must not be the executor whose shard is calling — the same
    /// no-nested-run() rule as LockstepExecutor::run.  A failed rack build
    /// throws the lowest failing rack's error.
    Session(const RoomParams& params, LockstepExecutor& team);
    /// The same construction on a one-participant team (all on the
    /// calling thread).
    explicit Session(const RoomParams& params);
    ~Session();
    Session(const Session&) = delete;
    Session& operator=(const Session&) = delete;

    bool done() const noexcept;
    double time_s() const noexcept;
    std::size_t rounds() const noexcept;
    std::size_t num_racks() const noexcept;
    std::size_t num_slots() const noexcept;
    /// Flattened chunk count across all racks (the run_shard index space):
    /// every rack's chunks in rack order, so one executor wave
    /// parallelises within racks as well as across them.
    std::size_t num_shards() const noexcept;

    /// Telemetry-only: stamps the round's wall-clock t0 (no-op detached).
    void mark_round_start();
    /// Step one pre-assigned chunk.  Safe to call concurrently for
    /// distinct shard indices within one round.
    void run_shard(std::size_t shard);
    /// Deterministic barrier work in rack order on the calling thread:
    /// rack coordination, then room observation,
    /// scheduling, migration detection, and plenum retargeting.  Returns
    /// early (scheduling skipped) when the run just completed.
    void finish_round();

    /// Facility demand throttle in [0, inf): effective rack scale is
    /// facility_scale * scheduler directive.  Takes effect immediately.
    void set_facility_scale(double scale);
    double facility_scale() const noexcept;
    /// Facility supply-air temperature offset (degC) added to every
    /// rack's ambient offset.  Takes effect immediately.
    void set_supply_offset(double celsius);
    double supply_offset() const noexcept;
    /// Aggregate CPU power (watts) from the latest room observations —
    /// the facility tier's per-room heat-load signal.  0 before the
    /// first completed round.
    double cpu_watts_now() const noexcept;

    /// Aggregate into the final RoomResult (invalidates the session's
    /// rack sessions; call once, after the loop).
    RoomResult finish();

   private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
  };

 private:
  RoomParams params_;
  std::size_t threads_;
};

/// The canonical contended-room scenario shared by bench_migration_benefit,
/// the fsc CLI defaults, and test_room: `num_racks` racks where the
/// first half carry a heavy spiky load (hot aisle, DTM capping, deadline
/// pressure) and the second half idle along lightly — the skew a load
/// migration policy exists to exploit.  `seed` varies the jitter/workload
/// draw, `duration_s` the simulated horizon.
RoomParams default_room_scenario(std::size_t num_racks = 4,
                                 std::uint64_t seed = 42,
                                 double duration_s = 900.0);

}  // namespace fsc
