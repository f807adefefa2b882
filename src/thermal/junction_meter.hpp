// Junction-temperature accounting.
//
// Folds the true junction temperature of every physics step into running
// statistics and the time spent above the thermal limit — the junction
// columns of paper Table III (mean / max T_j, time over the limit).  The
// plant advances it next to its EnergyMeter, so every driver of a Server
// gets the same numbers.
#pragma once

#include "util/statistics.hpp"

namespace fsc {

/// Running junction statistics plus time above a limit.
class JunctionMeter {
 public:
  /// Account one physics step of `dt` seconds ending at junction `tj`.  A
  /// step counts toward the violation time only strictly above the limit.
  void add(double tj, double dt) noexcept {
    stats_.add(tj);
    if (tj > limit_celsius_) violation_time_s_ += dt;
  }

  /// Clear the accumulators and set the limit for the next run.
  void reset(double limit_celsius) noexcept {
    stats_.reset();
    violation_time_s_ = 0.0;
    limit_celsius_ = limit_celsius;
  }

  /// Overwrite the accumulators — for drivers that advance them outside
  /// the meter with add()'s exact arithmetic (batch/lane_accounting.hpp
  /// keeps them in SoA lanes between control-period boundaries).
  void restore(const RunningStats::State& stats, double violation_s) noexcept {
    stats_.restore(stats);
    violation_time_s_ = violation_s;
  }

  const RunningStats& stats() const noexcept { return stats_; }
  double violation_time_s() const noexcept { return violation_time_s_; }
  double limit_celsius() const noexcept { return limit_celsius_; }

 private:
  RunningStats stats_;
  double violation_time_s_ = 0.0;
  double limit_celsius_ = 80.0;
};

}  // namespace fsc
