#include "batch/server_batch.hpp"

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

void ServerBatch::step_range(std::size_t lo, std::size_t hi, double dt) {
  // Validate dt before the sentinel comparison: dt = -1.0 would otherwise
  // collide with the "never prepared" last_dt_ marker and sail past the
  // guard below.
  require(dt >= 0.0, "ServerBatch::step_range: dt must be >= 0");
  require(lo <= hi && hi <= size(),
          "ServerBatch::step_range: lane range out of bounds");
  if (dt != last_dt_) {
    // Refreshing here would race with a concurrently stepping sibling
    // chunk, so a missing prepare_dt is a driver bug, not a recoverable
    // input error.
    throw std::logic_error(
        "ServerBatch::step_range: prepare_dt(dt) must run before ranged "
        "stepping");
  }
  if (lo == hi) return;

  double* __restrict act = fan_actual_.data();
  const double* __restrict cmd = fan_cmd_.data();
  const double* __restrict slew = fan_slew_.data();

  // Pass 1 — actuator slew: one select per lane, no control flow.
  for (std::size_t i = lo; i < hi; ++i) {
    act[i] = plant::slew_toward(act[i], cmd[i], slew[i] * dt);
  }

  // Pass 2 — refresh memoised transcendentals for lanes whose speed moved
  // (slewing fans); settled lanes — the steady state — skip the pow/exp
  // entirely, which is where the batched speedup comes from.  Lanes that
  // do move often move in lockstep (a rack of identical SKUs slewing to
  // the same zone command): the rolling share below reuses the value just
  // computed for the previous miss whenever this lane's speed *and* every
  // coefficient feeding the pow/exp match it — bit-identical by
  // construction, since equal inputs give equal outputs — so a lockstep
  // slew pays for one transcendental per chunk instead of one per lane.
  {
    double* __restrict memo = memo_rpm_.data();
    double* __restrict r_hs = r_hs_.data();
    double* __restrict hs_decay = hs_decay_.data();
    const double* __restrict r_base = r_base_.data();
    const double* __restrict r_coeff = r_coeff_.data();
    const double* __restrict r_exp = r_exp_.data();
    const double* __restrict cap = hs_capacitance_.data();
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
      r_hs[i] = plant::heat_sink_resistance(r_base[i], r_coeff[i], r_exp[i],
                                            act[i]);
      hs_decay[i] = plant::rc_decay(dt, r_hs[i] * cap[i]);
      src = i;
      ++misses;
    }
    if (memo_telemetry_) {
      const std::uint64_t lanes = static_cast<std::uint64_t>(hi - lo);
      memo_hits_c_->add(lanes - misses - shared, memo_slot(lo));
      memo_shared_hits_c_->add(shared, memo_slot(lo));
      memo_misses_c_->add(misses, memo_slot(lo));
    }
  }

  // Pass 3 — branch-free SoA plant update, same per-lane operation order
  // as Server::step: fan power at the new speed, then heat-sink node, then
  // die node (paper Eqns. 2-3).
  {
    double* __restrict t_hs = heat_sink_.data();
    double* __restrict t_j = junction_.data();
    double* __restrict fan_w = fan_watts_.data();
    const double* __restrict p_cpu = cpu_watts_.data();
    const double* __restrict ambient = ambient_.data();
    const double* __restrict r_hs = r_hs_.data();
    const double* __restrict hs_decay = hs_decay_.data();
    const double* __restrict die_decay = die_decay_.data();
    const double* __restrict r_die = r_die_.data();
    const double* __restrict pmax = fan_pmax_.data();
    const double* __restrict smax = fan_smax_.data();
    for (std::size_t i = lo; i < hi; ++i) {
      fan_w[i] = plant::fan_power(pmax[i], smax[i], act[i]);
      const double hs_ss = ambient[i] + r_hs[i] * p_cpu[i];  // Eqn. 3
      t_hs[i] = plant::rc_relax(t_hs[i], hs_ss, hs_decay[i]);
      const double die_ss = t_hs[i] + r_die[i] * p_cpu[i];
      t_j[i] = plant::rc_relax(t_j[i], die_ss, die_decay[i]);
    }
  }
}

}  // namespace fsc
