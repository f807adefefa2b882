// Lockstep rack simulation: N servers advanced as ONE coupled plant.
//
// Independent per-server runs (sim/simulation.hpp run_simulation) cannot
// express any physics or control that crosses a chassis boundary.  The
// CoupledRackEngine closes both loops:
//
//   * physics coupling: a SharedPlenumModel (coord/plenum.hpp) recomputes
//     every slot's inlet air temperature from its neighbors' exhaust at
//     each coordination barrier;
//   * control coupling: a RackCoordinator (selected by PolicyFactory name)
//     may override fan commands (shared blower zones) and clamp CPU caps
//     (rack power budgeting) between barriers.
//
// Execution model: the run is cut into coordination periods (a whole
// multiple of the CPU control period).  Within a period the rack's SoA
// batch advances chunk by chunk — the chunks spread across a
// LockstepExecutor, since slots do not interact mid-period — then a
// deterministic barrier gathers observations in slot order, the
// coordinator issues directives, and the plenum retargets the inlets.
// Nothing depends on thread scheduling, so results are bit-identical for
// any thread count; with the "independent" coordinator and the plenum
// disabled they are bit-identical to per-slot run_simulation calls
// (test_coord verifies both properties).
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "coord/coordinator.hpp"
#include "coord/plenum.hpp"
#include "fault/fault_plan.hpp"
#include "metrics/energy_report.hpp"
#include "obs/obs.hpp"
#include "rack/rack.hpp"
#include "util/statistics.hpp"

namespace fsc {

class LockstepExecutor;

/// Everything a coupled run needs: the rack (specs, slot policy, timing),
/// the coordinator selection, and the coupling physics.
///
/// Demand resolution follows the input: when every slot's workload is
/// pre-sampled (SampledWorkload / StoredTraceWorkload) the batch resolves
/// per-period demand through one WorkloadTable gather; a rack with any
/// other lane keeps the per-lane virtual Workload::demand path.  Both
/// compute the same expressions, so the choice never changes a result.
struct CoupledRackParams {
  RackParams rack;
  std::string coordinator = "independent";  ///< PolicyFactory coordinator key
  /// Coordinator configuration.  num_slots, thermal limit, fan envelope,
  /// and the nominal power model are synced from `rack` by the engine so
  /// callers only set the genuinely free knobs (zone size, budget, period).
  CoordinatorConfig coord;
  PlenumParams plenum;
  bool plenum_enabled = true;
  /// Telemetry sinks (obs/obs.hpp), default fully detached.  Read-only
  /// with respect to the simulation: attaching any combination of sinks
  /// leaves the trajectory bit-identical (test_obs pins this).  Sessions
  /// emit "rack.*" spans and counters; snapshot/progress are driven by the
  /// outermost run loop only.
  obs::Telemetry obs;
  /// Scheduled fault events for this rack (fault/fault_plan.hpp),
  /// rack-local (every event's rack index must be 0 — a room-wide plan is
  /// re-homed per rack with FaultPlan::for_rack by the scenario layer).
  /// Empty — the default — constructs no injector at all, and the step
  /// sequence is bit-identical to a pre-fault build (test_fault pins it
  /// with EXPECT_EQ across thread sweeps).
  FaultPlan faults;
};

/// One slot's outcome plus its coordination exposure.
struct CoupledSlotSummary {
  std::size_t index = 0;
  std::uint64_t seed = 0;
  SolutionResult result;
  std::size_t deadline_periods = 0;
  std::size_t deadline_violations = 0;
  double duration_s = 0.0;
  RunningStats inlet_stats;            ///< applied inlet temp across barriers
  double mean_cap_limit = 1.0;         ///< 1 = never budget-capped
  std::size_t fan_override_rounds = 0; ///< barriers with a fan override
};

/// Rack-level aggregate of a coupled run.
struct CoupledRackResult {
  std::string coordinator;
  std::string policy;
  std::vector<CoupledSlotSummary> slots;  ///< slot order

  double fan_energy_joules = 0.0;
  double cpu_energy_joules = 0.0;
  double total_energy_joules = 0.0;
  double deadline_violation_percent = 0.0;  ///< pooled over all periods
  double thermal_violation_percent = 0.0;   ///< mean over slots
  RunningStats max_junction_stats;
  RunningStats mean_junction_stats;
  double duration_s = 0.0;
  std::size_t coordination_rounds = 0;

  std::size_t size() const noexcept { return slots.size(); }
  std::size_t pooled_deadline_violations() const noexcept;

  /// Fixed-width per-slot + aggregate report.
  std::string to_table() const;
  /// Machine-readable report (totals + per-slot rows), schema documented
  /// in the fsc example.  The overload embeds a "manifest" object
  /// (obs::RunManifest::to_json) as the first key when non-empty, so every
  /// report is self-describing.
  std::string to_json() const { return to_json(std::string()); }
  std::string to_json(const std::string& manifest_json) const;
  /// Per-slot CSV (one row per slot, aggregate columns).
  std::string to_csv() const;
};

/// Steps a Rack as one coupled plant under a named RackCoordinator.
class CoupledRackEngine {
 public:
  /// Resumable round-by-round stepping of one rack (the rack-scale
  /// analogue of SimulationEngine::Session).  One round is every shard's
  /// run_shard() — on any executor, in any order — then
  /// coordinate_round(); run() is exactly that loop over a
  /// LockstepExecutor, then finish().  The Session exists so lockstep
  /// multi-rack drivers (room/RoomEngine) can pool many racks' shards into
  /// one executor wave and schedule between rounds.
  ///
  /// Between rounds a room scheduler may migrate load onto or off this
  /// rack (set_demand_scale) and impose a room-plenum preheat
  /// (set_ambient_offset); both default to exact no-ops, in which case the
  /// step sequence is bit-identical to a standalone run.
  class Session {
   public:
    /// Builds the slot runtimes and their batch stepper, resolves the
    /// coordinator by name, and settles every slot at its initial
    /// operating point.  The slot runtimes are built as one wave on
    /// `team` (each slot seeds its own Rng, so the result does not depend
    /// on the team's size); the rest of the setup runs on the calling
    /// thread.  `team` must not be the executor whose shard is calling —
    /// the same no-nested-run() rule as LockstepExecutor::run.  A failed
    /// slot build throws the lowest failing slot's error.
    Session(const CoupledRackParams& params, LockstepExecutor& team);
    /// The same construction on a one-participant team (all on the
    /// calling thread).
    explicit Session(const CoupledRackParams& params);
    ~Session();
    Session(const Session&) = delete;
    Session& operator=(const Session&) = delete;

    bool done() const noexcept;
    /// Simulation time at the next period boundary (slot clocks agree).
    double time_s() const noexcept;
    std::size_t rounds() const noexcept;
    std::size_t num_slots() const noexcept;

    /// Shard surface (the unit a LockstepExecutor parallelises): one shard
    /// per batch chunk (RackBatchStepper::kAutoChunkLanes lanes each).
    /// Constant for the session's lifetime.
    std::size_t num_shards() const noexcept;
    /// Advance shard `shard` by one coordination period.  Distinct shards
    /// touch disjoint slots, so a driver may run them concurrently; the
    /// caller must not invoke this once done() and must barrier every
    /// shard before coordinate_round().
    void run_shard(std::size_t shard);
    /// The deterministic barrier tail of a round (observation gather in
    /// slot order, coordination directives, plenum retargeting).
    void coordinate_round();

    /// Room-level load migration: every slot's demanded utilization is
    /// multiplied by `scale` (>= 0) from the next round on.
    void set_demand_scale(double scale);
    double demand_scale() const noexcept;
    /// Room-plenum coupling: added to every slot's inlet temperature on
    /// top of the rack's own shared-plenum result.
    void set_ambient_offset(double celsius);
    double ambient_offset() const noexcept;

    /// Per-slot observations gathered at the most recent barrier (empty
    /// before the first coordinate_round()).
    const std::vector<SlotObservation>& last_observations() const noexcept;
    /// Pooled deadline violations accumulated so far (for windowed room
    /// accounting).
    std::size_t pooled_deadline_violations_so_far() const noexcept;
    /// Cumulative rack energy split so far (summed over slots from the
    /// live meters) — time-series exporter food; reading it never touches
    /// sim state.
    double fan_energy_joules_so_far() const noexcept;
    double cpu_energy_joules_so_far() const noexcept;

    /// Aggregate the finished run.  Call once, after done().
    CoupledRackResult finish();

   private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
  };

  /// Validates thread count, coordination timing (the coordination period
  /// must be a positive whole multiple of the CPU control period), and the
  /// plenum parameters.  The coordinator name is resolved at run() so
  /// late-registered coordinators work.
  CoupledRackEngine(CoupledRackParams params, std::size_t threads);

  const CoupledRackParams& params() const noexcept { return params_; }
  std::size_t threads() const noexcept { return threads_; }

  /// Simulate the whole rack in lockstep and aggregate.  Deterministic for
  /// a fixed CoupledRackParams regardless of `threads`.
  CoupledRackResult run() const;

 private:
  CoupledRackParams params_;
  std::size_t threads_;
};

/// The canonical 8-slot evaluation scenario shared by bench_coord_overhead,
/// the fsc CLI defaults, and test_coord: a contended rack (tight
/// airflow, strong plenum recirculation, spiky load) where cross-server
/// coordination has real work to do.  `seed` varies the jitter/workload
/// draw, `duration_s` the simulated horizon.
CoupledRackParams default_coupled_scenario(std::uint64_t seed = 42,
                                           double duration_s = 900.0);

}  // namespace fsc
