#include "batch/server_batch.hpp"

#include <bit>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "batch/plant_kernel.hpp"
#include "sim/server.hpp"
#include "util/units.hpp"

namespace fsc {

std::size_t ServerBatch::add_server(const Server& server) {
  const ServerParams& p = server.params();
  const HeatSinkModel& hs = p.thermal.heat_sink();
  const ThermalParams& tp = p.thermal.params();

  heat_sink_.push_back(server.true_heat_sink());
  junction_.push_back(server.true_junction());
  fan_actual_.push_back(server.fan_speed_actual());
  fan_cmd_.push_back(server.fan_speed_commanded());
  cpu_watts_.push_back(p.cpu_power.idle_power());
  fan_watts_.push_back(0.0);
  ambient_.push_back(server.inlet_temperature());

  r_base_.push_back(hs.r_base());
  r_coeff_.push_back(hs.r_coeff());
  r_exp_.push_back(hs.r_exp());
  hs_capacitance_.push_back(hs.capacitance());
  r_die_.push_back(tp.die_resistance_kpw);
  tau_die_.push_back(tp.die_time_constant_s);
  fan_min_.push_back(p.fan.min_rpm);
  fan_max_.push_back(p.fan.max_rpm);
  fan_slew_.push_back(p.fan.slew_rpm_per_s);
  fan_pmax_.push_back(p.fan_power.power_at_max());
  fan_smax_.push_back(p.fan_power.max_speed());

  memo_rpm_.push_back(std::numeric_limits<double>::quiet_NaN());
  r_hs_.push_back(0.0);
  hs_decay_.push_back(0.0);
  die_decay_.push_back(0.0);
  last_dt_ = -1.0;  // new lane: force a full transcendental refresh
  return size() - 1;
}

void ServerBatch::set_inputs(std::size_t i, double cpu_watts,
                             double fan_cmd_rpm, double inlet_celsius) {
  require(i < size(), "ServerBatch::set_inputs: slot index out of range");
  const FanDrive fan{clamp(fan_cmd_rpm, fan_min_[i], fan_max_[i]),
                     fan_slew_[i]};
  set_inputs(i, cpu_watts, fan, inlet_celsius);
}

void ServerBatch::set_inputs(std::size_t i, double cpu_watts, FanDrive fan,
                             double inlet_celsius) {
  require(i < size(), "ServerBatch::set_inputs: slot index out of range");
  require(cpu_watts >= 0.0, "ServerBatch::set_inputs: power must be >= 0");
  cpu_watts_[i] = cpu_watts;
  fan_cmd_[i] = fan.target_rpm;
  fan_slew_[i] = fan.slew_rpm_per_s;
  ambient_[i] = inlet_celsius;
}

void ServerBatch::refresh_dt(double dt) {
  const std::size_t n = size();
  for (std::size_t i = 0; i < n; ++i) {
    die_decay_[i] = plant::rc_decay(dt, tau_die_[i]);
    // The heat-sink decay also depends on dt; invalidate the speed memo so
    // pass 2 recomputes it per lane.
    memo_rpm_[i] = std::numeric_limits<double>::quiet_NaN();
  }
  last_dt_ = dt;
}

void ServerBatch::prepare_dt(double dt) {
  require(dt >= 0.0, "ServerBatch::prepare_dt: dt must be >= 0");
  if (dt != last_dt_) refresh_dt(dt);
}

void ServerBatch::step_all(double dt) {
  require(dt >= 0.0, "ServerBatch::step_all: dt must be >= 0");
  if (size() == 0) return;
  prepare_dt(dt);
  step_range(0, size(), dt);
}

namespace {

/// Pass 3 of step_range: fan power at the new speed, then the shared lane
/// body (heat-sink node, then die node).  The lanes arrive as __restrict
/// parameters so GCC vectorizes the loop without alias versioning.
void plant_lanes(std::size_t lo, std::size_t hi,
                 const double* __restrict act, double* __restrict fan_w,
                 double* __restrict t_hs, double* __restrict t_j,
                 const double* __restrict p_cpu,
                 const double* __restrict ambient,
                 const double* __restrict r_hs,
                 const double* __restrict hs_decay,
                 const double* __restrict r_die,
                 const double* __restrict die_decay,
                 const double* __restrict pmax,
                 const double* __restrict smax) noexcept {
  for (std::size_t i = lo; i < hi; ++i) {  // vector loop: plant-lanes
    fan_w[i] = plant::fan_power(pmax[i], smax[i], act[i]);
    plant::step_nodes(t_hs[i], t_j[i], ambient[i], r_hs[i], p_cpu[i],
                      hs_decay[i], r_die[i], die_decay[i]);
  }
}

}  // namespace

void ServerBatch::require_prepared(double dt) const {
  if (dt != last_dt_) {
    // Refreshing here would race with a concurrently stepping sibling
    // range, so a missing prepare_dt is a driver bug, not a recoverable
    // input error.
    throw std::logic_error(
        "ServerBatch: prepare_dt(dt) must run before ranged stepping");
  }
}

void ServerBatch::step_range(std::size_t lo, std::size_t hi, double dt) {
  // Validate dt before the sentinel comparison: dt = -1.0 would otherwise
  // collide with the "never prepared" last_dt_ marker and sail past the
  // guard below.
  require(dt >= 0.0, "ServerBatch::step_range: dt must be >= 0");
  require(lo <= hi && hi <= size(),
          "ServerBatch::step_range: lane range out of bounds");
  require_prepared(dt);
  if (lo == hi) return;

  MemoTally tally;
  if (slew_range(lo, hi, dt).missed) {
    refresh_memos(lo, hi, dt, tally);
  } else {
    tally.hits = hi - lo;
  }
  plant_lanes(lo, hi, fan_actual_.data(), fan_watts_.data(), heat_sink_.data(),
              junction_.data(), cpu_watts_.data(), ambient_.data(),
              r_hs_.data(), hs_decay_.data(), r_die_.data(),
              die_decay_.data(), fan_pmax_.data(), fan_smax_.data());
  add_memo_tally(tally, lo);
}

ServerBatch::SlewScan ServerBatch::slew_range(std::size_t lo, std::size_t hi,
                                              double dt) noexcept {
  double* act = fan_actual_.data();
  const double* cmd = fan_cmd_.data();
  const double* slew = fan_slew_.data();
  const double* memo = memo_rpm_.data();
  SlewScan scan;
  for (std::size_t i = lo; i < hi; ++i) {
    const double reach = slew[i] * dt;
    act[i] = plant::slew_toward(act[i], cmd[i], reach);
    // A NaN speed never matches its memo, so it misses on every substep.
    scan.missed |= act[i] != memo[i];
    // Bitwise, not ==: a lane at -0.0 under a +0.0 command still moves
    // (slew_toward returns the command's bits), so it is not settled yet.
    // The reach test is the one the next slew makes; it fails for a NaN
    // reach (an infinite slew over dt = 0) or a non-finite command.
    scan.settled &= std::bit_cast<std::uint64_t>(act[i]) ==
                        std::bit_cast<std::uint64_t>(cmd[i]) &&
                    std::fabs(cmd[i] - act[i]) <= reach;
  }
  return scan;
}

// Refresh the memoised transcendentals for lanes whose speed moved
// (slewing fans); settled lanes — the steady state — skip the pow/exp
// entirely, which is where the batched speedup comes from.  Lanes that do
// move often move in lockstep (a rack of identical SKUs slewing to the
// same zone command): the rolling share below reuses the value just
// computed for the previous miss whenever this lane's speed *and* every
// coefficient feeding the pow/exp match it — bit-identical by
// construction, since equal inputs give equal outputs — so a lockstep
// slew pays for one transcendental per range instead of one per lane.
void ServerBatch::refresh_memos(std::size_t lo, std::size_t hi, double dt,
                                MemoTally& tally) noexcept {
  const double* act = fan_actual_.data();
  double* memo = memo_rpm_.data();
  double* r_hs = r_hs_.data();
  double* hs_decay = hs_decay_.data();
  const double* r_base = r_base_.data();
  const double* r_coeff = r_coeff_.data();
  const double* r_exp = r_exp_.data();
  const double* cap = hs_capacitance_.data();
  std::uint64_t misses = 0;
  std::uint64_t shared = 0;
  std::size_t src = hi;  // lane of the last real recompute; hi = none yet
  for (std::size_t i = lo; i < hi; ++i) {
    if (act[i] == memo[i]) continue;  // settled lane: full hit
    if (src != hi && act[i] == act[src] && r_base[i] == r_base[src] &&
        r_coeff[i] == r_coeff[src] && r_exp[i] == r_exp[src] &&
        cap[i] == cap[src]) {
      memo[i] = act[i];
      r_hs[i] = r_hs[src];
      hs_decay[i] = hs_decay[src];
      ++shared;
      continue;
    }
    memo[i] = act[i];
    r_hs[i] =
        plant::heat_sink_resistance(r_base[i], r_coeff[i], r_exp[i], act[i]);
    hs_decay[i] = plant::rc_decay(dt, r_hs[i] * cap[i]);
    src = i;
    ++misses;
  }
  tally.hits += (hi - lo) - misses - shared;
  tally.shared += shared;
  tally.misses += misses;
}

void ServerBatch::add_memo_tally(const MemoTally& tally,
                                 std::size_t lo) noexcept {
  if (!memo_telemetry_) return;
  memo_hits_c_->add(tally.hits, memo_slot(lo));
  memo_shared_hits_c_->add(tally.shared, memo_slot(lo));
  memo_misses_c_->add(tally.misses, memo_slot(lo));
}

}  // namespace fsc
