// Standard InstrumentationSinks: the measurements the classic
// `run_simulation` entry point always made, now as independent composable
// observers.  Each sink owns exactly one concern; attach only what a given
// experiment needs (benches that only want energy skip the trace recorder
// entirely instead of paying for dead records).
#pragma once

#include <vector>

#include "metrics/deadline.hpp"
#include "sim/engine.hpp"
#include "util/statistics.hpp"

namespace fsc {

/// Collects trace records into a vector (the classic SimulationResult
/// trace).  Recording cadence is the engine's business; this sink just
/// stores what it is handed.
class TraceRecorderSink final : public InstrumentationSink {
 public:
  void on_run_begin(const SimulationParams&, const Server&) override {
    trace_.clear();
  }
  void on_record(const TraceRecord& record) override { trace_.push_back(record); }
  bool observes_physics_steps() const noexcept override { return false; }

  const std::vector<TraceRecord>& trace() const noexcept { return trace_; }
  std::vector<TraceRecord> take_trace() noexcept { return std::move(trace_); }

 private:
  std::vector<TraceRecord> trace_;
};

/// Per-period performance accounting: deadline violations (Table III) and
/// commanded fan speed statistics.
class DeadlineStatsSink final : public InstrumentationSink {
 public:
  void on_run_begin(const SimulationParams&, const Server&) override {
    deadline_.reset();
    fan_speed_stats_.reset();
  }
  void on_period(const PeriodSample& s) override {
    deadline_.record(s.demand, s.cap);
    fan_speed_stats_.add(s.fan_cmd_rpm);
  }
  bool observes_physics_steps() const noexcept override { return false; }

  const DeadlineTracker& deadline() const noexcept { return deadline_; }
  const RunningStats& fan_speed_stats() const noexcept { return fan_speed_stats_; }

 private:
  DeadlineTracker deadline_;
  RunningStats fan_speed_stats_;
};

/// Tracks the true junction temperature over physics substeps: running
/// stats plus the time spent above the configured thermal limit.
///
/// The batched path never calls on_physics_step: batch/lane_accounting.hpp
/// loads this sink's state into SoA lanes at each control-period start,
/// advances it per substep with on_physics_step's exact arithmetic, and
/// restore()s it at period end — so the sink is exact at every period
/// boundary on both paths.
class ThermalViolationSink final : public InstrumentationSink {
 public:
  void on_run_begin(const SimulationParams& params, const Server&) override {
    limit_celsius_ = params.thermal_limit_celsius;
    junction_stats_.reset();
    violation_time_s_ = 0.0;
  }
  void on_physics_step(const PhysicsSample& s) override {
    const double tj = s.server->true_junction();
    junction_stats_.add(tj);
    if (tj > limit_celsius_) violation_time_s_ += s.dt_s;
  }

  const RunningStats& junction_stats() const noexcept { return junction_stats_; }
  double violation_time_s() const noexcept { return violation_time_s_; }
  double limit_celsius() const noexcept { return limit_celsius_; }

  /// Hand back lane-advanced state (see the class comment).
  void restore(const RunningStats::State& junction,
               double violation_time_s) noexcept {
    junction_stats_.restore(junction);
    violation_time_s_ = violation_time_s;
  }

  /// Fraction of `duration_s` spent above the limit; 0 for non-positive
  /// durations.
  double violation_fraction(double duration_s) const noexcept {
    return duration_s > 0.0 ? violation_time_s_ / duration_s : 0.0;
  }

 private:
  double limit_celsius_ = 80.0;
  RunningStats junction_stats_;
  double violation_time_s_ = 0.0;
};

/// Captures the server's cumulative energy split at the end of the run.
/// (The engine resets the meter at run start, so the captured values cover
/// exactly this run.)
class EnergyAccumulatorSink final : public InstrumentationSink {
 public:
  void on_run_end(const Server& server, double duration_s) override {
    fan_energy_joules_ = server.energy().fan_energy();
    cpu_energy_joules_ = server.energy().cpu_energy();
    duration_s_ = duration_s;
  }
  bool observes_physics_steps() const noexcept override { return false; }

  double fan_energy_joules() const noexcept { return fan_energy_joules_; }
  double cpu_energy_joules() const noexcept { return cpu_energy_joules_; }
  double duration_s() const noexcept { return duration_s_; }

 private:
  double fan_energy_joules_ = 0.0;
  double cpu_energy_joules_ = 0.0;
  double duration_s_ = 0.0;
};

}  // namespace fsc
