// The simulation engine: the single place that owns the timing structure
// of a run (paper §VI-A) — policy invocations every CPU control period,
// plant integration in small fixed physics steps between them, and trace
// recording on its own divider — decoupled from *what* is measured.
//
// Observation is delegated to pluggable InstrumentationSinks: the engine
// publishes the run's start, every policy decision, every trace record and
// the run's end to all attached sinks.  What accrues per physics substep
// (energy, junction statistics) is metered by the Server itself, which
// every plant path advances; sinks read those meters at period boundaries
// or at the end.
// The classic `run_simulation` entry point (sim/simulation.hpp) is a thin
// wrapper that attaches the standard sinks (trace recorder, deadline
// stats, thermal violation capture, energy capture) and assembles their
// outputs into a SimulationResult.
#pragma once

#include <vector>

#include "core/controller.hpp"
#include "sim/server.hpp"
#include "workload/trace.hpp"

namespace fsc {

/// Simulation timing and instrumentation options.
struct SimulationParams {
  double physics_dt_s = 0.05;   ///< plant integration step
  double cpu_period_s = 1.0;    ///< policy invocation period
  double duration_s = 3600.0;
  double thermal_limit_celsius = 80.0;  ///< junction limit for violation stats
  double initial_utilization = 0.0;     ///< plant settles here before t = 0
  bool record_trace = true;
  double record_period_s = 1.0;  ///< trace sampling period
};

/// One recorded trace sample.
struct TraceRecord {
  double time_s = 0.0;
  double demand = 0.0;
  double cap = 1.0;
  double executed = 0.0;
  double fan_cmd_rpm = 0.0;
  double fan_actual_rpm = 0.0;
  double junction_celsius = 0.0;
  double heat_sink_celsius = 0.0;
  double measured_celsius = 0.0;
  double reference_celsius = 0.0;
  double cpu_watts = 0.0;
  double fan_watts = 0.0;
};

/// What the engine publishes at each policy decision instant (once per CPU
/// control period, after the policy has acted and the period's workload has
/// been resolved against the new cap).
struct PeriodSample {
  long period_index = 0;
  double time_s = 0.0;
  double demand = 0.0;    ///< utilization the workload asked for
  double cap = 1.0;       ///< cap in force for this period
  double executed = 0.0;  ///< min(demand, cap)
  double fan_cmd_rpm = 0.0;
  const Server* server = nullptr;
  const DtmPolicy* policy = nullptr;
};

/// Observer interface.  All hooks default to no-ops so sinks override only
/// what they need.  Sinks must not mutate the plant or the policy; they see
/// them const and only through the published samples.
class InstrumentationSink {
 public:
  virtual ~InstrumentationSink() = default;

  /// The run is about to start; the server has been settled at the initial
  /// operating point and the policy reset.
  virtual void on_run_begin(const SimulationParams& /*params*/,
                            const Server& /*server*/) {}

  /// One CPU control period has been decided and its workload resolved.
  virtual void on_period(const PeriodSample& /*sample*/) {}

  /// A fully-populated trace record at a record instant (only published
  /// when SimulationParams::record_trace is set).
  virtual void on_record(const TraceRecord& /*record*/) {}

  /// The run finished after `duration_s` simulated seconds.
  virtual void on_run_end(const Server& /*server*/, double /*duration_s*/) {}
};

/// Drives one (server, policy, workload) run and publishes everything it
/// does to the attached sinks.  The engine is reusable: run() may be called
/// repeatedly (each call resets policy state and energy accounting).
class SimulationEngine {
 public:
  /// Validates timing parameters; throws std::invalid_argument when the
  /// physics step, CPU period, or duration are inconsistent.
  explicit SimulationEngine(const SimulationParams& params);

  /// Attach an observer.  Non-owning: the sink must outlive the run() call.
  /// Sinks are notified in attachment order.
  void add_sink(InstrumentationSink* sink);

  const SimulationParams& params() const noexcept { return params_; }

  /// Resumable per-period stepping over one (server, policy, workload)
  /// triple.  run() is exactly `Session s(...); while (!s.done())
  /// s.step_period(); s.finish();` — the Session exists so lockstep
  /// multi-server drivers (coord/CoupledRackEngine) can advance many
  /// plants a few periods at a time and coordinate between chunks.
  ///
  /// Between periods a coordinator may constrain the next decisions:
  /// set_cap_limit() clamps the applied CPU cap below the policy's own
  /// output, and set_fan_override() replaces the policy's fan command (the
  /// policy still runs and its request is retained for arbitration via
  /// last_requested_fan()).  Both default to "policy in full control", in
  /// which case the step sequence is bit-identical to the classic run().
  class Session {
   public:
    /// Resets the policy and the server's energy and junction meters (the
    /// latter to params.thermal_limit_celsius), settles the server at the
    /// initial operating point, and publishes on_run_begin.  All referenced
    /// objects must outlive the session.
    Session(const SimulationEngine& engine, Server& server, DtmPolicy& policy,
            const Workload& workload);

    /// Advance one CPU control period (policy decision + workload
    /// resolution + physics substeps).  No-op once done().  Exactly
    /// `begin_period()` + physics_per_period() internal Server::step +
    /// note_substep() pairs + `finish_period()`.
    void step_period();

    /// Phased stepping: step_period() is three phases, and a driver that
    /// advances the *plant* outside the session runs them itself:
    ///
    ///   1. begin_period()  — policy decision, workload resolution, period
    ///      sample + trace record publication.  Returns false (and does
    ///      nothing) once done().
    ///   2. the physics_per_period() substeps, either
    ///      - one Server::step + note_substep() (which only counts it) per
    ///        substep, as step_period() does, or
    ///      - lane-accounted (batch/rack_stepper.hpp): the whole period is
    ///        advanced in SoA lanes, the Server and its meters are written
    ///        back once, and note_substeps_accounted() records it;
    ///   3. finish_period() — workload bookkeeping, period counter.
    ///
    /// Both forms leave the Server in the same state at the period
    /// boundary; no sink is called between phases 1 and 3.
    bool begin_period();
    /// begin_period() with the period's raw demand supplied by the caller
    /// instead of the session's own `workload_.demand(t)` virtual call —
    /// the batched gather path (workload/workload_table.hpp via
    /// RackBatchStepper) resolves a whole lane range's demand in one loop
    /// and injects each value here.  The caller MUST pass exactly what
    /// workload_.demand(time_s()) would return (the WorkloadTable
    /// guarantees it by construction); everything downstream — scaling,
    /// capping, publication — is shared with the classic overload, so the
    /// two are bit-identical by definition.
    bool begin_period(double raw_demand);
    void note_substep();
    /// Record all of the open period's substeps as advanced outside the
    /// session.  Call once, instead of the note_substep() calls, before
    /// finish_period().
    void note_substeps_accounted();
    void finish_period();
    /// The utilization executing during the period opened by
    /// begin_period() (what the external plant stepper feeds the CPU
    /// power model).
    double period_executed() const noexcept { return pending_executed_; }
    /// Physics substeps per CPU control period.
    long physics_per_period() const noexcept { return physics_per_period_; }
    /// The engine's timing parameters (dt, periods, record cadence).
    const SimulationParams& params() const noexcept;

    /// Periods completed so far / total periods in the configured duration.
    long periods_done() const noexcept { return period_; }
    long total_periods() const noexcept { return total_periods_; }
    bool done() const noexcept { return period_ >= total_periods_; }

    /// Simulation time at the *next* period boundary.
    double time_s() const noexcept;

    /// Publish on_run_end and return the simulated duration.  Call once,
    /// after done(); further step_period() calls are invalid.
    double finish();

    /// Cross-server coordination hooks (identity by default).
    void set_cap_limit(double limit);
    void clear_cap_limit() noexcept { cap_limit_ = 1.0; }
    double cap_limit() const noexcept { return cap_limit_; }
    void set_fan_override(double rpm);
    void clear_fan_override() noexcept { fan_override_rpm_ = -1.0; }
    bool fan_overridden() const noexcept { return fan_override_rpm_ >= 0.0; }

    /// Room-level load migration hook: demanded utilization is multiplied
    /// by `scale` (then clamped to [0, 1]) before the workload is resolved.
    /// A room scheduler moves work between racks by scaling one side down
    /// and the other up; the default of exactly 1 leaves the demand stream
    /// bit-identical to the unscaled run.
    void set_demand_scale(double scale);
    void clear_demand_scale() noexcept { demand_scale_ = 1.0; }
    double demand_scale() const noexcept { return demand_scale_; }

    /// The policy's own fan request in the last period, before any
    /// override (what a slot "asks" a shared blower for).  While an
    /// override is active the policy keeps tracking its own request — it
    /// is fed this value back as DtmInputs::fan_speed_cmd, not the
    /// override — so arbitration stays bidirectional: a zone speed can
    /// fall again once the members' own requests fall.
    double last_requested_fan() const noexcept { return last_requested_fan_; }

    /// Last period's resolved workload numbers (for observations).
    double last_demand() const noexcept { return prev_demand_; }
    double last_executed() const noexcept { return prev_executed_; }
    double applied_cap() const noexcept { return cap_; }
    double applied_fan_cmd() const noexcept { return fan_cmd_; }

    /// Mean demanded/executed utilization since the last reset_window()
    /// (falls back to the last period's value for an empty window).  Lets a
    /// coordinator see the whole coordination period, not one sample of a
    /// spiky workload.
    double window_mean_demand() const noexcept;
    double window_mean_executed() const noexcept;
    void reset_window() noexcept {
      window_demand_sum_ = 0.0;
      window_executed_sum_ = 0.0;
      window_periods_ = 0;
    }

    const Server& server() const noexcept { return server_; }
    const DtmPolicy& policy() const noexcept { return policy_; }

   private:
    const SimulationEngine& engine_;
    Server& server_;
    DtmPolicy& policy_;
    const Workload& workload_;
    long physics_per_period_ = 0;
    long total_periods_ = 0;
    long record_every_ = 1;
    long period_ = 0;
    bool in_period_ = false;     ///< between begin_period and finish_period
    long substeps_done_ = 0;     ///< substeps advanced this period
    double pending_demand_ = 0.0;    ///< this period's resolved demand
    double pending_executed_ = 0.0;  ///< this period's executed utilization
    double cap_ = 1.0;
    double fan_cmd_ = 0.0;
    double prev_demand_ = 0.0;
    double prev_executed_ = 0.0;
    double last_degradation_ = 0.0;
    double cap_limit_ = 1.0;
    double fan_override_rpm_ = -1.0;  ///< < 0 means "no override"
    double demand_scale_ = 1.0;
    double last_requested_fan_ = 0.0;
    double window_demand_sum_ = 0.0;
    double window_executed_sum_ = 0.0;
    long window_periods_ = 0;
  };

  /// Run `policy` against `server` under `workload`.
  ///
  /// The server is settled at (initial_utilization, current fan command)
  /// before t = 0 so runs start from a reproducible equilibrium.  The
  /// policy is reset first.  Both objects are left in their final state.
  /// Returns the simulated duration in seconds (periods * cpu_period).
  double run(Server& server, DtmPolicy& policy, const Workload& workload) const;

 private:
  SimulationParams params_;
  std::vector<InstrumentationSink*> sinks_;
};

}  // namespace fsc
