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

  const DeadlineTracker& deadline() const noexcept { return deadline_; }
  const RunningStats& fan_speed_stats() const noexcept { return fan_speed_stats_; }

 private:
  DeadlineTracker deadline_;
  RunningStats fan_speed_stats_;
};

/// Captures the server's junction statistics and time above the thermal
/// limit at the end of the run.  (The session resets the Server's
/// JunctionMeter at run start with the run's limit, so the captured values
/// cover exactly this run, on the scalar and the batched path alike.)
class ThermalViolationSink final : public InstrumentationSink {
 public:
  void on_run_end(const Server& server, double /*duration_s*/) override {
    junction_ = server.junction();
  }

  const RunningStats& junction_stats() const noexcept { return junction_.stats(); }
  double violation_time_s() const noexcept { return junction_.violation_time_s(); }
  double limit_celsius() const noexcept { return junction_.limit_celsius(); }

  /// Fraction of `duration_s` spent above the limit; 0 for non-positive
  /// durations.
  double violation_fraction(double duration_s) const noexcept {
    return duration_s > 0.0 ? violation_time_s() / duration_s : 0.0;
  }

 private:
  JunctionMeter junction_;
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

  double fan_energy_joules() const noexcept { return fan_energy_joules_; }
  double cpu_energy_joules() const noexcept { return cpu_energy_joules_; }
  double duration_s() const noexcept { return duration_s_; }

 private:
  double fan_energy_joules_ = 0.0;
  double cpu_energy_joules_ = 0.0;
  double duration_s_ = 0.0;
};

}  // namespace fsc
