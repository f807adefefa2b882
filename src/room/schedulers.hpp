// The built-in RoomSchedulers.
//
//   static            fixed assignment: every rack keeps its own trace load
//                     (the baseline the migration benefit is measured
//                     against)
//   thermal-headroom  periodically migrates load from the hottest-inlet
//                     rack toward the coolest rack with headroom; a
//                     deadband + cooldown hysteresis and a one-round
//                     migration cost keep it from thrashing
//   power-aware       greedy re-packing against per-rack power budgets:
//                     racks over their share shed the excess, and the shed
//                     load is re-divided across under-budget racks by the
//                     same max-min water-filling the rack power-budget
//                     coordinator uses (coord/policies.hpp)
//   failsafe          thermal-headroom hardened against the fault layer:
//                     racks with blacked-out slots are evacuated (forced
//                     migration sources) using a per-rack moving-average
//                     demand forecast (workload/predictor.hpp) in place of
//                     their frozen observations
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "room/scheduler.hpp"
#include "workload/predictor.hpp"

namespace fsc {

/// Baseline: never moves anything.
class StaticRoomScheduler final : public RoomScheduler {
 public:
  explicit StaticRoomScheduler(const RoomSchedulerConfig& cfg);
  std::string name() const override { return "static"; }
  void reset() override {}
  void schedule(double time_s, const std::vector<RackObservation>& racks,
                std::vector<RackDirective>& out) override;
};

/// Migrates load from the hottest-inlet rack to the coolest rack with
/// scale headroom.  Each migration moves `migration_step` of the donor's
/// current load (conserving aggregate demanded utilization), charges the
/// receiver a one-round `migration_cost_fraction` overhead, and then holds
/// for `cooldown_rounds`; no migration fires while the hottest/coolest
/// inlet spread is inside `hysteresis_celsius`.
class ThermalHeadroomScheduler final : public RoomScheduler {
 public:
  /// Throws std::invalid_argument on a non-positive migration step, an
  /// inverted scale envelope, or a negative deadband/cost.
  explicit ThermalHeadroomScheduler(const RoomSchedulerConfig& cfg);
  std::string name() const override { return "thermal-headroom"; }
  void reset() override;
  void schedule(double time_s, const std::vector<RackObservation>& racks,
                std::vector<RackDirective>& out) override;

  /// Migrations performed since the last reset (for tests and reports).
  std::size_t migrations() const noexcept { return migrations_; }
  /// Cumulative per-rack scales currently in force (empty before the
  /// first schedule() call).
  const std::vector<double>& scales() const noexcept { return scales_; }

 private:
  RoomSchedulerConfig cfg_;
  std::vector<double> scales_;
  std::size_t cooldown_ = 0;
  std::size_t migrations_ = 0;
};

/// Re-packs load against per-rack budgets (room budget / num_racks): racks
/// over their budget are scaled down to fit, and the shed watts are
/// water-filled across the other racks' headroom.  Memoryless: each round
/// re-derives the packing from the observed (descaled) demand.
class PowerAwareScheduler final : public RoomScheduler {
 public:
  /// Throws std::invalid_argument when the effective budget is below the
  /// room's aggregate idle power floor — load migration can only move
  /// dynamic power, so such a budget is physically unenforceable.
  explicit PowerAwareScheduler(const RoomSchedulerConfig& cfg);
  std::string name() const override { return "power-aware"; }
  void reset() override {}
  void schedule(double time_s, const std::vector<RackObservation>& racks,
                std::vector<RackDirective>& out) override;

  double budget_watts() const noexcept { return budget_watts_; }

 private:
  RoomSchedulerConfig cfg_;
  double budget_watts_;
  // Per-round scratch, reused across rounds.
  std::vector<double> raw_u_;
  std::vector<double> native_watts_;
  std::vector<double> headroom_;
  std::vector<double> received_;
};

/// Fault-aware migration.  Behaves like ThermalHeadroomScheduler while the
/// room is healthy.  Each round it also feeds a per-rack moving-average
/// demand forecast (RoomSchedulerConfig::predictor_window rounds,
/// workload/predictor.hpp) from the observed *descaled* demand — but only
/// while the rack is bright; a dark rack's observations are frozen
/// last-good values and would poison the filter.  When a rack reports
/// dark_slots > 0 it becomes a forced migration source: its load is scaled
/// down by migration_step toward the coolest bright rack, with the moved
/// units priced from the forecast instead of the stale observation.  This
/// is the first cross-layer consumer of the workload predictor above the
/// single-server ladder.
class FailsafeRoomScheduler final : public RoomScheduler {
 public:
  /// Throws std::invalid_argument on the same bad knobs as
  /// ThermalHeadroomScheduler, or a zero predictor window.
  explicit FailsafeRoomScheduler(const RoomSchedulerConfig& cfg);
  std::string name() const override { return "failsafe"; }
  void reset() override;
  void schedule(double time_s, const std::vector<RackObservation>& racks,
                std::vector<RackDirective>& out) override;

  std::size_t migrations() const noexcept { return migrations_; }
  /// Evacuation migrations (dark donor) within migrations() (for tests).
  std::size_t evacuations() const noexcept { return evacuations_; }
  const std::vector<double>& scales() const noexcept { return scales_; }
  /// The forecast used for rack `rack` in the most recent schedule() call
  /// (0 before the first call) — pins the predictor integration in tests.
  double last_forecast(std::size_t rack) const {
    return rack < forecasts_.size() ? forecasts_[rack] : 0.0;
  }

 private:
  RoomSchedulerConfig cfg_;
  std::vector<double> scales_;
  std::vector<MovingAveragePredictor> predictors_;
  std::vector<double> forecasts_;
  std::size_t cooldown_ = 0;
  std::size_t migrations_ = 0;
  std::size_t evacuations_ = 0;
};

}  // namespace fsc
