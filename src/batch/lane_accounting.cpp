#include "batch/lane_accounting.hpp"

#include <algorithm>
#include <limits>

#include "batch/plant_kernel.hpp"
#include "batch/rack_stepper.hpp"
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

/// Lanes per settled-tail block: the engines' chunk width, one cache line
/// of doubles.
constexpr std::size_t kBlockLanes = RackBatchStepper::kAutoChunkLanes;

/// One full substep of the period kernel's lane loop over lanes [lo, hi):
/// the plant lane body and every accounting statement.  Returns whether
/// some lane reached a sample instant (the caller takes the samples
/// before the next substep).  Each accounting statement is the scalar
/// path's expression for the same quantity: EnergyMeter::accumulate,
/// RunningStats::add, JunctionMeter::add, and SensorChain::observe's
/// phase accumulation.
///
/// Written to vectorize at the default flags, in both clones of
/// advance_period (tools/check_vectorized.py checks it in CI): the lanes
/// are __restrict parameters, not block-scope copies (GCC would version
/// the loop for aliasing), and both selects add a selected value instead
/// of selecting between two sums, which -ftrapping-math would not let GCC
/// speculate.  The sample count is a double: an int reduction next to
/// double lanes has no vector type.
bool lane_loop(std::size_t lo, std::size_t hi, double dt,
               const double* __restrict act, double* __restrict fan_w,
               double* __restrict t_hs, double* __restrict t_j,
               const double* __restrict p_cpu, const double* __restrict ambient,
               const double* __restrict r_hs, const double* __restrict hs_decay,
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
  double due = 0.0;
  for (std::size_t i = lo; i < hi; ++i) {  // vector loop: fused-lanes
    fan_w[i] = plant::fan_power(pmax[i], smax[i], act[i]);
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
  return due != 0.0;
}

}  // namespace

// The period kernel is compiled twice, for the baseline and for AVX2, and
// the clone is picked from CPUID when the program loads: the lane loops
// then run four doubles wide on AVX2 hosts and the default clone is the
// baseline code.  `flatten` inlines the loops into each clone; without it
// they stay out-of-line baseline functions and the AVX2 clone keeps SSE2
// loops.  Both clones are bit-identical: no FMA (-ffp-contract=off,
// CMakeLists.txt), the same operations in the same per-lane order.
#ifdef FSC_PERIOD_KERNEL_CLONES
#define FSC_PERIOD_KERNEL \
  __attribute__((flatten, target_clones("avx2", "default")))
#else
#define FSC_PERIOD_KERNEL
#endif

FSC_PERIOD_KERNEL void LaneAccounting::advance_period(ServerBatch& batch,
                                                      std::size_t lo,
                                                      std::size_t hi,
                                                      double dt,
                                                      long substeps) {
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
    full_substep(batch, lo, hi, dt);
    ++s;
    if (scan.settled) break;
  }
  // The settled tail: every remaining lane-substep is a memo hit.
  tally.hits += static_cast<std::uint64_t>(hi - lo) *
                static_cast<std::uint64_t>(substeps - s);
  while (s < substeps) {
    const long k = substeps_to_sample(lo, hi, dt, substeps - s);
    for (std::size_t b = lo; b < hi; b += kBlockLanes) {
      settled_block(batch, b, std::min(b + kBlockLanes, hi), dt, k);
    }
    take_samples(batch, lo, hi);
    s += k;
  }
  batch.add_memo_tally(tally, lo);
}

inline void LaneAccounting::full_substep(ServerBatch& batch, std::size_t lo,
                                         std::size_t hi, double dt) {
  const bool due = lane_loop(
      lo, hi, dt, batch.fan_actual_.data(), batch.fan_watts_.data(),
      batch.heat_sink_.data(), batch.junction_.data(),
      batch.cpu_watts_.data(), batch.ambient_.data(), batch.r_hs_.data(),
      batch.hs_decay_.data(), batch.r_die_.data(), batch.die_decay_.data(),
      batch.fan_pmax_.data(), batch.fan_smax_.data(), cpu_joules_.data(),
      fan_joules_.data(), elapsed_s_.data(), count_.data(), mean_.data(),
      m2_.data(), sum_.data(), min_.data(), max_.data(), violation_s_.data(),
      limit_c_.data(), phase_.data(), sample_period_.data());
  if (due) take_samples(batch, lo, hi);
}

inline long LaneAccounting::substeps_to_sample(std::size_t lo,
                                               std::size_t hi, double dt,
                                               long steps) const {
  // Replay each lane's `phase += dt` on a copy: the same adds give the
  // same bits as the block loop's.  Lanes with the phase and period of
  // the last replayed one (the common case: one sensor model per rack)
  // reach their instant at the same substep.
  long k = steps;
  double last_phase = std::numeric_limits<double>::quiet_NaN();
  double last_period = last_phase;
  for (std::size_t i = lo; i < hi; ++i) {
    if (phase_[i] == last_phase && sample_period_[i] == last_period) continue;
    last_phase = phase_[i];
    last_period = sample_period_[i];
    double phase = last_phase;
    for (long s = 1; s < k; ++s) {
      phase += dt;
      if (phase >= last_period) {
        k = s;
        break;
      }
    }
  }
  return k;
}

inline void LaneAccounting::settled_block(ServerBatch& batch, std::size_t lo,
                                          std::size_t hi, double dt,
                                          long steps) {
  constexpr std::size_t W = kBlockLanes;
  const std::size_t n = hi - lo;
  // Inputs, hoisted: the same operands give the same products on every
  // substep.  A block narrower than W repeats its last lane in the spare
  // slots: the same inputs give the same bits, so writing those slots
  // back to that lane stores what it already holds.
  double hs_ss[W];     // ambient + r_hs * P, the heat-sink target
  double die_rise[W];  // r_die * P
  double cpu_dt[W];    // P * dt
  double fan_dt[W];    // fan_W * dt
  double hs_decay[W];
  double die_decay[W];
  double limit[W];
  // The 13 accumulators.
  double t_hs[W];
  double t_j[W];
  double cpu[W];
  double fan[W];
  double elapsed[W];
  double count[W];
  double mean[W];
  double m2[W];
  double sum[W];
  double lo_tj[W];
  double hi_tj[W];
  double violation[W];
  double phase[W];
  for (std::size_t j = 0; j < W; ++j) {
    const std::size_t i = lo + std::min(j, n - 1);
    const double p = batch.cpu_watts_[i];
    hs_ss[j] = batch.ambient_[i] + batch.r_hs_[i] * p;
    die_rise[j] = batch.r_die_[i] * p;
    cpu_dt[j] = p * dt;
    fan_dt[j] = batch.fan_watts_[i] * dt;
    hs_decay[j] = batch.hs_decay_[i];
    die_decay[j] = batch.die_decay_[i];
    limit[j] = limit_c_[i];
    t_hs[j] = batch.heat_sink_[i];
    t_j[j] = batch.junction_[i];
    cpu[j] = cpu_joules_[i];
    fan[j] = fan_joules_[i];
    elapsed[j] = elapsed_s_[i];
    count[j] = count_[i];
    mean[j] = mean_[i];
    m2[j] = m2_[i];
    sum[j] = sum_[i];
    lo_tj[j] = min_[i];
    hi_tj[j] = max_[i];
    violation[j] = violation_s_[i];
    phase[j] = phase_[i];
  }
  // lane_loop's body on the block's copies, less the fixed-point fan power.
  for (long s = 0; s < steps; ++s) {
    for (std::size_t j = 0; j < W; ++j) {  // vector loop: settled-block
      t_hs[j] = plant::rc_relax(t_hs[j], hs_ss[j], hs_decay[j]);
      const double tj = plant::rc_relax(t_j[j], t_hs[j] + die_rise[j],
                                        die_decay[j]);
      t_j[j] = tj;
      cpu[j] += cpu_dt[j];
      fan[j] += fan_dt[j];
      elapsed[j] += dt;

      const double c = count[j] + 1.0;
      count[j] = c;
      sum[j] += tj;
      const double delta = tj - mean[j];
      const double m = mean[j] + delta / c;
      mean[j] = m;
      m2[j] += delta * (tj - m);
      lo_tj[j] = std::min(lo_tj[j], tj);
      hi_tj[j] = std::max(hi_tj[j], tj);
      violation[j] += tj > limit[j] ? dt : 0.0;
      phase[j] += dt;
    }
  }
  for (std::size_t j = 0; j < W; ++j) {
    const std::size_t i = lo + std::min(j, n - 1);
    batch.heat_sink_[i] = t_hs[j];
    batch.junction_[i] = t_j[j];
    cpu_joules_[i] = cpu[j];
    fan_joules_[i] = fan[j];
    elapsed_s_[i] = elapsed[j];
    count_[i] = count[j];
    mean_[i] = mean[j];
    m2_[i] = m2[j];
    sum_[i] = sum[j];
    min_[i] = lo_tj[j];
    max_[i] = hi_tj[j];
    violation_s_[i] = violation[j];
    phase_[i] = phase[j];
  }
}

inline void LaneAccounting::take_samples(const ServerBatch& batch,
                                         std::size_t lo, std::size_t hi) {
  // SensorChain::observe's catch-up loop, in lane order so lanes sharing
  // an Rng draw in the scalar path's order.
  for (std::size_t i = lo; i < hi; ++i) {
    while (phase_[i] >= sample_period_[i]) {
      phase_[i] -= sample_period_[i];
      if (loaded_[i] != 0) {
        servers_[i]->sensor_chain().take_sample(batch.junction_[i]);
      }
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
