#include "sim/engine.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/units.hpp"

namespace fsc {

SimulationEngine::SimulationEngine(const SimulationParams& params)
    : params_(params) {
  require(params_.physics_dt_s > 0.0, "SimulationEngine: physics dt must be > 0");
  require(params_.cpu_period_s >= params_.physics_dt_s,
          "SimulationEngine: cpu period must be >= physics dt");
  require(params_.duration_s > 0.0, "SimulationEngine: duration must be > 0");
  // The period count is this ratio cast to long, which is undefined past
  // the type's range (1e300 s at 1 s periods) and for inf.
  require(std::ceil(params_.duration_s / params_.cpu_period_s) <
              std::ldexp(1.0, std::numeric_limits<long>::digits),
          "SimulationEngine: duration / cpu period gives too many periods");
}

void SimulationEngine::add_sink(InstrumentationSink* sink) {
  require(sink != nullptr, "SimulationEngine: sink must not be null");
  sinks_.push_back(sink);
}

SimulationEngine::Session::Session(const SimulationEngine& engine,
                                   Server& server, DtmPolicy& policy,
                                   const Workload& workload)
    : engine_(engine), server_(server), policy_(policy), workload_(workload) {
  const SimulationParams& params = engine_.params_;
  policy_.reset();
  server_.reset_energy();
  server_.reset_junction(params.thermal_limit_celsius);
  server_.settle(params.initial_utilization, server_.fan_speed_commanded());

  physics_per_period_ = std::lround(params.cpu_period_s / params.physics_dt_s);
  total_periods_ =
      static_cast<long>(std::ceil(params.duration_s / params.cpu_period_s));
  record_every_ = std::max<long>(
      1, std::lround(params.record_period_s / params.cpu_period_s));

  fan_cmd_ = server_.fan_speed_commanded();
  last_requested_fan_ = fan_cmd_;
  prev_demand_ = params.initial_utilization;
  prev_executed_ = params.initial_utilization;

  for (InstrumentationSink* sink : engine_.sinks_) {
    sink->on_run_begin(params, server_);
  }
}

double SimulationEngine::Session::time_s() const noexcept {
  return static_cast<double>(period_) * engine_.params_.cpu_period_s;
}

void SimulationEngine::Session::set_cap_limit(double limit) {
  require(limit >= 0.0 && limit <= 1.0,
          "Session::set_cap_limit: limit must be in [0, 1]");
  cap_limit_ = limit;
}

void SimulationEngine::Session::set_fan_override(double rpm) {
  require(rpm >= 0.0, "Session::set_fan_override: speed must be >= 0");
  fan_override_rpm_ = rpm;
}

void SimulationEngine::Session::set_demand_scale(double scale) {
  require(scale >= 0.0, "Session::set_demand_scale: scale must be >= 0");
  demand_scale_ = scale;
}

const SimulationParams& SimulationEngine::Session::params() const noexcept {
  return engine_.params_;
}

bool SimulationEngine::Session::begin_period() {
  require(!in_period_, "Session::begin_period: previous period not finished");
  if (done()) return false;
  // The one per-period virtual demand call of the classic path; the gather
  // overload below receives this value precomputed for a whole lane range.
  return begin_period(workload_.demand(time_s()));
}

bool SimulationEngine::Session::begin_period(double raw_demand) {
  require(!in_period_, "Session::begin_period: previous period not finished");
  if (done()) return false;
  const SimulationParams& params = engine_.params_;
  const long k = period_;
  const double t = static_cast<double>(k) * params.cpu_period_s;

  // Policy decision at the period boundary: it sees the current (lagged)
  // measurement and the previous period's observable utilization.  Its
  // "current command" is its OWN last request, not the post-override one:
  // policies hold their command between fan instants by echoing
  // fan_speed_cmd back, so feeding the override through would overwrite
  // the slot's genuine request with the zone speed (a one-way ratchet —
  // arbitration could never lower the zone again).  Without an override
  // the two values coincide and the classic path is unchanged.
  DtmInputs in;
  in.time_s = t;
  in.measured_temp = server_.measured_temp();
  in.quantization_step = server_.quantization_step();
  in.fan_speed_cmd = last_requested_fan_;
  in.fan_speed_actual = server_.fan_speed_actual();
  in.cpu_cap = cap_;
  in.demand = prev_demand_;
  in.executed = prev_executed_;
  in.last_degradation = last_degradation_;
  const DtmOutputs out = policy_.step(in);
  last_requested_fan_ = out.fan_speed_cmd;
  fan_cmd_ = fan_overridden() ? fan_override_rpm_ : out.fan_speed_cmd;
  cap_ = std::min(clamp_utilization(out.cpu_cap), cap_limit_);
  server_.command_fan(fan_cmd_);

  // This period's workload executes under the new cap.  The scale-by-1
  // branch is skipped entirely so an unmigrated run stays bit-identical.
  const double demand = demand_scale_ == 1.0
                            ? raw_demand
                            : clamp_utilization(raw_demand * demand_scale_);
  const double executed = std::min(demand, cap_);
  // The policy is only told about degradation it could cure by raising its
  // own cap: demand above an externally imposed cap limit is the rack
  // manager's doing (the firmware knows that cap), and reporting it would
  // make recovery heuristics (e.g. single-step fan boosts) fight a clamp
  // they cannot move.  With no external limit this is max(0, demand - cap).
  last_degradation_ = std::max(0.0, std::min(demand, cap_limit_) - cap_);

  PeriodSample sample;
  sample.period_index = k;
  sample.time_s = t;
  sample.demand = demand;
  sample.cap = cap_;
  sample.executed = executed;
  sample.fan_cmd_rpm = fan_cmd_;
  sample.server = &server_;
  sample.policy = &policy_;
  for (InstrumentationSink* sink : engine_.sinks_) sink->on_period(sample);

  if (params.record_trace && k % record_every_ == 0) {
    TraceRecord rec;
    rec.time_s = t;
    rec.demand = demand;
    rec.cap = cap_;
    rec.executed = executed;
    rec.fan_cmd_rpm = fan_cmd_;
    rec.fan_actual_rpm = server_.fan_speed_actual();
    rec.junction_celsius = server_.true_junction();
    rec.heat_sink_celsius = server_.true_heat_sink();
    rec.measured_celsius = server_.measured_temp();
    rec.reference_celsius = policy_.reference_temp();
    rec.cpu_watts = server_.cpu_power_now(executed);
    rec.fan_watts = server_.fan_power_now();
    for (InstrumentationSink* sink : engine_.sinks_) sink->on_record(rec);
  }

  pending_demand_ = demand;
  pending_executed_ = executed;
  substeps_done_ = 0;
  in_period_ = true;
  return true;
}

void SimulationEngine::Session::note_substep() {
  require(in_period_, "Session::note_substep: no period in progress");
  ++substeps_done_;
}

void SimulationEngine::Session::note_substeps_accounted() {
  require(in_period_ && substeps_done_ == 0,
          "Session::note_substeps_accounted: needs a freshly opened period");
  substeps_done_ = physics_per_period_;
}

void SimulationEngine::Session::finish_period() {
  require(in_period_, "Session::finish_period: no period in progress");
  require(substeps_done_ == physics_per_period_,
          "Session::finish_period: wrong number of physics substeps");
  prev_demand_ = pending_demand_;
  prev_executed_ = pending_executed_;
  window_demand_sum_ += pending_demand_;
  window_executed_sum_ += pending_executed_;
  ++window_periods_;
  ++period_;
  in_period_ = false;
}

void SimulationEngine::Session::step_period() {
  if (!begin_period()) return;
  const SimulationParams& params = engine_.params_;
  // Physics for the rest of the period.
  for (long i = 0; i < physics_per_period_; ++i) {
    server_.step(pending_executed_, params.physics_dt_s);
    note_substep();
  }
  finish_period();
}

double SimulationEngine::Session::window_mean_demand() const noexcept {
  if (window_periods_ == 0) return prev_demand_;
  return window_demand_sum_ / static_cast<double>(window_periods_);
}

double SimulationEngine::Session::window_mean_executed() const noexcept {
  if (window_periods_ == 0) return prev_executed_;
  return window_executed_sum_ / static_cast<double>(window_periods_);
}

double SimulationEngine::Session::finish() {
  const double duration =
      static_cast<double>(total_periods_) * engine_.params_.cpu_period_s;
  for (InstrumentationSink* sink : engine_.sinks_) {
    sink->on_run_end(server_, duration);
  }
  return duration;
}

double SimulationEngine::run(Server& server, DtmPolicy& policy,
                             const Workload& workload) const {
  Session session(*this, server, policy, workload);
  while (!session.done()) session.step_period();
  return session.finish();
}

}  // namespace fsc
