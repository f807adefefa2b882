// Structure-of-arrays batched server-plant kernel: the hot path of the
// whole simulator (actuator slew + fan power + two-node thermal update for
// every server, every 0.05 s physics substep) stepped for N servers by one
// branch-free loop instead of N virtual-ish per-object calls.
//
// Data layout: one flat double array per quantity (heat-sink temperature,
// junction temperature, actual fan speed, ...) indexed by slot, plus one
// array per closed-form coefficient (Rhs power-law terms, capacitance, die
// resistance/time-constant, fan power-law and envelope) gathered once
// from each Server at add_server().  Per-control-period inputs (CPU power,
// the fan's drive target and slew, inlet temperature) are gathered once
// per period via set_inputs(); step_all(dt) then advances every lane.  A
// fan fault is nothing but a different drive (FanActuator::drive), so
// faulted lanes share the same loop as healthy ones.
//
// Bit-identity with the scalar path (Server::step) is by construction, not
// by tolerance:
//
//   * every expression is the same inline function from
//     batch/plant_kernel.hpp that the scalar model classes call;
//   * the per-lane operation ORDER matches Server::step exactly
//     (actuator, then fan power, then heat-sink node, then die node);
//   * the transcendentals (std::pow in Rhs, std::exp in the node decays)
//     are deterministic functions of their inputs, so memoising them
//     across substeps — the key speedup: once a fan settles, its Rhs and
//     decay factor are constant until the next command — reproduces the
//     recomputed values bit for bit.
//
// Each substep is three passes: the actuator slew, the transcendental
// refresh (branchy, and run only when some lane's speed left its memo),
// and the plant update — fan power plus the shared lane body
// plant::step_nodes.  Only the plant update is a vector loop: GCC will not
// if-convert the slew's select under the default -ftrapping-math (it
// refuses to speculate the out-of-reach add), so the slew stays a short
// scalar pass.
//
// What is NOT here: the per-substep accounting around the plant — sensor
// sample phase, energy integrals, junction statistics — lives in the
// companion SoA block batch/lane_accounting.hpp, whose period kernel
// (LaneAccounting::advance_period) runs these same passes fused with the
// accounting for a whole control period, and mirrors the plant state back
// into the Servers once per period.  The sensor's delay line, noise and
// per-slot RNG stay in the Server: they are touched only at sample
// instants, through the sensor's own cold path.
//
// Every lane array is a LaneVector (util/lane_vector.hpp): cache-line
// aligned, so concurrently stepped chunks of 8 lanes never share a line.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "actuator/fan_actuator.hpp"
#include "obs/metrics.hpp"
#include "util/lane_vector.hpp"

namespace fsc {

class Server;

/// SoA plant state + coefficients for N servers, advanced in lockstep.
class ServerBatch {
 public:
  /// Append `server`'s plant: closed-form coefficients plus the current
  /// actuator/thermal state.  Returns the slot index.  The server should
  /// already be settled at its initial operating point (the engines
  /// construct their Sessions first, then gather).
  std::size_t add_server(const Server& server);

  std::size_t size() const noexcept { return junction_.size(); }

  /// Per-control-period input gather for one slot: the (constant within
  /// the period) CPU power, the commanded fan speed, and the inlet air
  /// temperature.  The command is clamped into the slot's fan envelope
  /// exactly like FanActuator::command; the lane keeps its last slew.
  /// Throws std::invalid_argument on a bad index or negative power.
  void set_inputs(std::size_t i, double cpu_watts, double fan_cmd_rpm,
                  double inlet_celsius);
  /// The same gather with the fan given as the actuator's drive
  /// (FanActuator::drive), taken as is: a faulted fan's target may lie
  /// below min_rpm, and a seized one's infinite slew lands the lane on its
  /// windmill speed in the next substep.  This is how the kernel models
  /// fan faults — per lane, with no mask and no branch.  Throws like
  /// set_inputs above.
  void set_inputs(std::size_t i, double cpu_watts, FanDrive fan,
                  double inlet_celsius);

  /// Advance every slot by one physics substep of `dt` seconds.  Throws
  /// std::invalid_argument when dt < 0.  Refreshes the dt-dependent decay
  /// memos on a dt change, so it must only be called single-threaded (the
  /// whole-batch path); concurrent chunk stepping goes through
  /// prepare_dt() + step_range().
  void step_all(double dt);

  /// Refresh the dt-dependent decay memos for `dt` (no-op when `dt` is
  /// already prepared).  Must be called — single-threaded — before any
  /// step_range() wave, because the refresh touches every lane.  Throws
  /// std::invalid_argument when dt < 0.
  void prepare_dt(double dt);

  /// Advance only lanes [lo, hi) by one substep of `dt` seconds, plant
  /// only (the engines advance plant and accounting together, a period at
  /// a time, through LaneAccounting::advance_period).  Lanes are fully
  /// independent, so disjoint ranges may step concurrently.  Requires
  /// dt >= 0 and lo <= hi <= size() (std::invalid_argument) and
  /// prepare_dt(dt) to have run (throws std::logic_error otherwise).
  void step_range(std::size_t lo, std::size_t hi, double dt);

  /// Memoisation telemetry over every lane-substep that step_all,
  /// step_range and LaneAccounting::advance_period processed since the
  /// last reset: a *hit* skipped the pow/exp entirely (fan speed
  /// unchanged), a *shared hit* reused the value just computed for an
  /// identical-coefficient lane at the same speed (lockstep slews), a
  /// *miss* paid for the transcendentals.  OFF by default — the engines'
  /// hot chunk loop must not bounce a shared counter cache line between
  /// threads — and exact when enabled (relaxed atomics, every lane counted
  /// once); enable before stepping via set_memo_telemetry(true).
  void set_memo_telemetry(bool on) noexcept { memo_telemetry_ = on; }
  bool memo_telemetry() const noexcept { return memo_telemetry_; }
  /// Route the memo tallies into `registry`'s shared "batch.memo_hit" /
  /// "batch.memo_shared_hit" / "batch.memo_miss" counters — one source of
  /// truth across every batch attached to the same registry — and enable
  /// counting.  Attribution is by LANE RANGE — slot = (slot_salt + lo) /
  /// kLanesPerCacheLine, one slot per 8-lane chunk — never by thread, so
  /// the per-slot breakdown is schedule-independent and neighbouring
  /// chunks stepping concurrently tally into different cells; `slot_salt`
  /// (a lane offset) moves this batch so different racks land on different
  /// counter slots.  Call before stepping (single-threaded).
  void attach_memo_counters(obs::MetricsRegistry& registry,
                            std::size_t slot_salt = 0) {
    memo_hits_c_ = &registry.counter("batch.memo_hit");
    memo_shared_hits_c_ = &registry.counter("batch.memo_shared_hit");
    memo_misses_c_ = &registry.counter("batch.memo_miss");
    memo_slot_salt_ = slot_salt;
    memo_telemetry_ = true;
  }
  std::uint64_t memo_hits() const noexcept { return memo_hits_c_->value(); }
  std::uint64_t memo_shared_hits() const noexcept {
    return memo_shared_hits_c_->value();
  }
  std::uint64_t memo_misses() const noexcept { return memo_misses_c_->value(); }
  void reset_memo_counters() noexcept {
    memo_hits_c_->reset();
    memo_shared_hits_c_->reset();
    memo_misses_c_->reset();
  }

  /// Per-slot outputs after the last step_all (or the gathered initial
  /// state before the first).
  double fan_rpm(std::size_t i) const noexcept { return fan_actual_[i]; }
  double heat_sink_celsius(std::size_t i) const noexcept { return heat_sink_[i]; }
  double junction_celsius(std::size_t i) const noexcept { return junction_[i]; }
  double fan_watts(std::size_t i) const noexcept { return fan_watts_[i]; }

 private:
  /// The period kernel fuses the passes below with its accounting.
  friend class LaneAccounting;

  /// What one slew pass saw over a lane range.
  struct SlewScan {
    bool missed = false;  ///< some lane left its transcendental memo
    /// Every lane holds its command's exact bits and the next slew lands
    /// on it again: slew, memo and fan power are fixed points for the rest
    /// of the period (the inputs change only at set_inputs).
    bool settled = true;
  };
  /// Memo outcomes over a run of lane-substeps (see memo_hits()).
  struct MemoTally {
    std::uint64_t hits = 0;
    std::uint64_t shared = 0;
    std::uint64_t misses = 0;
  };

  void refresh_dt(double dt);
  /// Throws std::logic_error unless prepare_dt(dt) has run.
  void require_prepared(double dt) const;
  /// Pass 1: slew lanes [lo, hi) toward their drive.
  SlewScan slew_range(std::size_t lo, std::size_t hi, double dt) noexcept;
  /// Pass 2: refresh the memos of lanes whose speed moved, tallying every
  /// lane of the range into `tally`.  Run only after a slew that missed.
  void refresh_memos(std::size_t lo, std::size_t hi, double dt,
                     MemoTally& tally) noexcept;
  /// Publish `tally` (when telemetry is on) to the range's counter slot.
  void add_memo_tally(const MemoTally& tally, std::size_t lo) noexcept;

  std::size_t memo_slot(std::size_t lo) const noexcept {
    return (memo_slot_salt_ + lo) / kLanesPerCacheLine;
  }

  // State (SoA, one lane per slot).
  LaneVector<double> heat_sink_;
  LaneVector<double> junction_;
  LaneVector<double> fan_actual_;
  LaneVector<double> fan_cmd_;     ///< per-period input: drive target
  LaneVector<double> cpu_watts_;   ///< per-period input
  LaneVector<double> fan_watts_;   ///< per-substep output
  LaneVector<double> ambient_;     ///< per-period input

  // Closed-form coefficients (constant after add_server; fan_slew_ is
  // the nominal slew until a drive overrides it).
  LaneVector<double> r_base_;
  LaneVector<double> r_coeff_;
  LaneVector<double> r_exp_;
  LaneVector<double> hs_capacitance_;
  LaneVector<double> r_die_;
  LaneVector<double> tau_die_;
  LaneVector<double> fan_min_;
  LaneVector<double> fan_max_;
  LaneVector<double> fan_slew_;  ///< per-period input: drive slew
  LaneVector<double> fan_pmax_;
  LaneVector<double> fan_smax_;

  // Memoised transcendentals: valid while the lane's fan speed (and dt)
  // stay put.  memo_rpm_ = NaN marks "recompute".
  LaneVector<double> memo_rpm_;
  LaneVector<double> r_hs_;
  LaneVector<double> hs_decay_;
  LaneVector<double> die_decay_;
  double last_dt_ = -1.0;  ///< sentinel: never matches a (>= 0) step dt

  // Memo telemetry (see memo_hits()): obs::Counter cells so concurrent
  // chunk ranges account without a lock, gated off by default to keep the
  // hot loop free of shared-line RMWs.  The tallies land either in the
  // batch's own single-slot counters (the default; exact, private) or in a
  // registry's shared per-shard-slot counters (attach_memo_counters).
  bool memo_telemetry_ = false;
  std::size_t memo_slot_salt_ = 0;
  obs::Counter own_memo_hits_;
  obs::Counter own_memo_shared_hits_;
  obs::Counter own_memo_misses_;
  obs::Counter* memo_hits_c_ = &own_memo_hits_;
  obs::Counter* memo_shared_hits_c_ = &own_memo_shared_hits_;
  obs::Counter* memo_misses_c_ = &own_memo_misses_;
};

}  // namespace fsc
