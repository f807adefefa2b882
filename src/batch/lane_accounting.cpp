#include "batch/lane_accounting.hpp"

#include <algorithm>

#include "batch/plant_kernel.hpp"
#include "batch/server_batch.hpp"
#include "sim/server.hpp"
#include "util/units.hpp"

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

namespace {

/// What one lane_loop call did.
struct LoopRun {
  long substeps = 0;  ///< substeps advanced
  bool due = false;   ///< the last of them reached a sample instant
};

/// The period kernel's lane loop: up to `substeps` substeps of the plant
/// lane body and every accounting statement over lanes [lo, hi), stopping
/// after the first substep in which some lane reached a sample instant
/// (the caller takes the samples before the next one).  Each accounting
/// statement is the scalar path's expression for the same quantity:
/// EnergyMeter::accumulate, RunningStats::add, JunctionMeter::add, and
/// SensorChain::observe's phase accumulation.
///
/// Written to vectorize at the default flags (ci.yml checks it with
/// -fopt-info-vec-optimized): the lanes are __restrict parameters, not
/// block-scope copies (GCC would version the loop for aliasing), and both
/// selects add a selected value instead of selecting between two sums,
/// which -ftrapping-math would not let GCC speculate.  The sample count is
/// a double: an int reduction next to double lanes has no vector type.
template <bool kSettled>
LoopRun lane_loop(long substeps, std::size_t lo, std::size_t hi, double dt,
                  const double* __restrict act, double* __restrict fan_w,
                  double* __restrict t_hs, double* __restrict t_j,
                  const double* __restrict p_cpu,
                  const double* __restrict ambient,
                  const double* __restrict r_hs,
                  const double* __restrict hs_decay,
                  const double* __restrict r_die,
                  const double* __restrict die_decay,
                  const double* __restrict pmax, const double* __restrict smax,
                  double* __restrict cpu, double* __restrict fan,
                  double* __restrict elapsed, double* __restrict count,
                  double* __restrict mean, double* __restrict m2,
                  double* __restrict sum, double* __restrict lo_tj,
                  double* __restrict hi_tj, double* __restrict violation,
                  const double* __restrict limit, double* __restrict phase,
                  const double* __restrict period) noexcept {
  LoopRun run;
  double due = 0.0;
  while (due == 0.0 && run.substeps < substeps) {
    ++run.substeps;
    for (std::size_t i = lo; i < hi; ++i) {  // vector loop: fused-lanes
      // A settled lane's fan power is the fixed point its last full
      // substep stored.
      if constexpr (!kSettled) {
        fan_w[i] = plant::fan_power(pmax[i], smax[i], act[i]);
      }
      plant::step_nodes(t_hs[i], t_j[i], ambient[i], r_hs[i], p_cpu[i],
                        hs_decay[i], r_die[i], die_decay[i]);

      const double tj = t_j[i];
      cpu[i] += p_cpu[i] * dt;
      fan[i] += fan_w[i] * dt;
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
      violation[i] += tj > limit[i] ? dt : 0.0;

      phase[i] += dt;
      due += phase[i] >= period[i] ? 1.0 : 0.0;
    }
  }
  run.due = due != 0.0;
  return run;
}

}  // namespace

void LaneAccounting::advance_period(ServerBatch& batch, std::size_t lo,
                                    std::size_t hi, double dt, long substeps) {
  require(lo <= hi && hi <= size() && size() == batch.size(),
          "LaneAccounting::advance_period: lane range out of bounds");
  batch.require_prepared(dt);
  if (lo == hi || substeps <= 0) return;

  ServerBatch::MemoTally tally;
  long s = 0;
  while (s < substeps) {
    const ServerBatch::SlewScan scan = batch.slew_range(lo, hi, dt);
    if (scan.missed) {
      batch.refresh_memos(lo, hi, dt, tally);
    } else {
      tally.hits += hi - lo;
    }
    s += advance_substeps<false>(batch, lo, hi, dt, 1);
    if (scan.settled) break;
  }
  // The settled tail: every remaining lane-substep is a memo hit.
  tally.hits += static_cast<std::uint64_t>(hi - lo) *
                static_cast<std::uint64_t>(substeps - s);
  while (s < substeps) {
    s += advance_substeps<true>(batch, lo, hi, dt, substeps - s);
  }
  batch.add_memo_tally(tally, lo);
}

template <bool kSettled>
long LaneAccounting::advance_substeps(ServerBatch& batch, std::size_t lo,
                                      std::size_t hi, double dt, long steps) {
  double* phase = phase_.data();
  const double* period = sample_period_.data();
  const double* t_j = batch.junction_.data();
  const LoopRun run = lane_loop<kSettled>(
      steps, lo, hi, dt, batch.fan_actual_.data(), batch.fan_watts_.data(),
      batch.heat_sink_.data(), batch.junction_.data(),
      batch.cpu_watts_.data(), batch.ambient_.data(), batch.r_hs_.data(),
      batch.hs_decay_.data(), batch.r_die_.data(), batch.die_decay_.data(),
      batch.fan_pmax_.data(), batch.fan_smax_.data(), cpu_joules_.data(),
      fan_joules_.data(), elapsed_s_.data(), count_.data(), mean_.data(),
      m2_.data(), sum_.data(), min_.data(), max_.data(), violation_s_.data(),
      limit_c_.data(), phase, period);
  if (!run.due) return run.substeps;  // the common case: no sample instant

  // Cold pass: SensorChain::observe's catch-up loop, in lane order so
  // lanes sharing an Rng draw in the scalar path's order.
  for (std::size_t i = lo; i < hi; ++i) {
    while (phase[i] >= period[i]) {
      phase[i] -= period[i];
      if (loaded_[i] != 0) servers_[i]->sensor_chain().take_sample(t_j[i]);
    }
  }
  return run.substeps;
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
