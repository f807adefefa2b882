#include "batch/lane_accounting.hpp"

#include <algorithm>

#include "batch/server_batch.hpp"
#include "sim/server.hpp"

namespace fsc {

std::size_t LaneAccounting::add_lane(Server& server) {
  servers_.push_back(&server);
  loaded_.push_back(0);
  sample_period_.push_back(server.sensor_chain().params().sample_period_s);
  // Placeholders: load() fills every accumulator at the period start.
  for (LaneVector<double>* lane :
       {&phase_, &cpu_joules_, &fan_joules_, &elapsed_s_, &count_, &mean_,
        &m2_, &sum_, &min_, &max_, &violation_s_, &limit_c_}) {
    lane->push_back(0.0);
  }
  return size() - 1;
}

void LaneAccounting::load(std::size_t i) {
  const Server& server = *servers_[i];
  phase_[i] = server.sensor_chain().phase();
  const EnergyMeter& energy = server.energy();
  cpu_joules_[i] = energy.cpu_energy();
  fan_joules_[i] = energy.fan_energy();
  elapsed_s_[i] = energy.elapsed();
  const JunctionMeter& junction = server.junction();
  const RunningStats::State s = junction.stats().state();
  count_[i] = static_cast<double>(s.n);
  mean_[i] = s.mean;
  m2_[i] = s.m2;
  sum_[i] = s.sum;
  min_[i] = s.min;
  max_[i] = s.max;
  violation_s_[i] = junction.violation_time_s();
  limit_c_[i] = junction.limit_celsius();
  loaded_[i] = 1;
}

void LaneAccounting::account_range(const ServerBatch& batch, std::size_t lo,
                                   std::size_t hi, double dt) {
  const double* __restrict t_j = batch.junction_lanes();
  const double* __restrict p_cpu = batch.cpu_watts_lanes();
  const double* __restrict p_fan = batch.fan_watts_lanes();
  double* __restrict cpu = cpu_joules_.data();
  double* __restrict fan = fan_joules_.data();
  double* __restrict elapsed = elapsed_s_.data();
  double* __restrict count = count_.data();
  double* __restrict mean = mean_.data();
  double* __restrict m2 = m2_.data();
  double* __restrict sum = sum_.data();
  double* __restrict lo_tj = min_.data();
  double* __restrict hi_tj = max_.data();
  double* __restrict violation = violation_s_.data();
  const double* __restrict limit = limit_c_.data();
  double* __restrict phase = phase_.data();
  const double* __restrict period = sample_period_.data();

  // The fused hot pass.  Each statement is the scalar path's expression
  // for the same quantity: EnergyMeter::accumulate, RunningStats::add,
  // JunctionMeter::add, and SensorChain::observe's phase accumulation.
  int due = 0;
  for (std::size_t i = lo; i < hi; ++i) {
    const double tj = t_j[i];
    cpu[i] += p_cpu[i] * dt;
    fan[i] += p_fan[i] * dt;
    elapsed[i] += dt;

    const double n = count[i] + 1.0;
    count[i] = n;
    sum[i] += tj;
    const double delta = tj - mean[i];
    const double m = mean[i] + delta / n;
    mean[i] = m;
    m2[i] += delta * (tj - m);
    lo_tj[i] = std::min(lo_tj[i], tj);
    hi_tj[i] = std::max(hi_tj[i], tj);
    violation[i] = tj > limit[i] ? violation[i] + dt : violation[i];

    phase[i] += dt;
    due |= phase[i] >= period[i] ? 1 : 0;
  }
  if (due == 0) return;  // the common substep: no lane hit a sample instant

  // Cold pass: SensorChain::observe's catch-up loop, in lane order so
  // lanes sharing an Rng draw in the scalar path's order.
  for (std::size_t i = lo; i < hi; ++i) {
    while (phase[i] >= period[i]) {
      phase[i] -= period[i];
      if (loaded_[i] != 0) servers_[i]->sensor_chain().take_sample(t_j[i]);
    }
  }
}

void LaneAccounting::store(std::size_t i, const ServerBatch& batch) {
  Server& server = *servers_[i];
  server.adopt_plant_state(batch.fan_rpm(i), batch.heat_sink_celsius(i),
                           batch.junction_celsius(i));
  server.sensor_chain().set_phase(phase_[i]);
  server.energy_meter().restore(cpu_joules_[i], fan_joules_[i], elapsed_s_[i]);
  RunningStats::State s;
  s.n = static_cast<std::size_t>(count_[i]);
  s.mean = mean_[i];
  s.m2 = m2_[i];
  s.sum = sum_[i];
  s.min = min_[i];
  s.max = max_[i];
  server.junction_meter().restore(s, violation_s_[i]);
  loaded_[i] = 0;
}

}  // namespace fsc
