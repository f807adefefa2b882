// Per-substep accounting in SoA lanes: the companion block to ServerBatch
// that owns everything the Server meters on every physics substep — the
// quantities Kim et al. judge a controller by (paper Table III):
//
//   * the SensorChain's sample phase (the lagged, quantized measurement is
//     sampled every sample_period, not every substep);
//   * the EnergyMeter's cpu / fan / elapsed integrals;
//   * the JunctionMeter's Welford junction statistics (n, mean, m2, sum,
//     min, max) and its time above the junction limit.
//
// Life cycle per control period, per lane:
//
//   load(i)                 Server -> lanes, at the period start;
//   account_range(lo, hi)   after each ServerBatch::step_range: one fused,
//                           branch-light pass over the range; a lane whose
//                           phase crosses a sample instant calls the
//                           sensor's cold SensorChain::take_sample, in
//                           lane order, with the same RNG draws as the
//                           scalar SensorChain::observe;
//   store(i)                lanes -> Server at the period end: its meters,
//                           sensor phase, and actuator and thermal state.
//
// Every lane update is the same expression, in the same per-lane order, as
// the scalar Server::step, so the Server and its meters are bit-identical
// to a scalar run at every period boundary — which is all any observer
// (policy, sink, trace record, coordinator, report) ever reads.
//
// Threading: lanes are independent.  Disjoint ranges may be accounted and
// loaded/stored concurrently; every lane array is a LaneVector, so chunks
// of 8 lanes starting at multiples of 8 never share a cache line.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/lane_vector.hpp"

namespace fsc {

class Server;
class ServerBatch;

/// Sensor phase, energy and junction statistics for N lanes.
class LaneAccounting {
 public:
  /// Register the next lane (its index is the previous size()): the
  /// server whose sensor, energy and junction meters it accounts.
  /// Borrowed; must outlive the accounting.  Lane i must be lane i of the
  /// ServerBatch passed to account_range() and store().
  std::size_t add_lane(Server& server);

  std::size_t size() const noexcept { return servers_.size(); }

  /// Period start: copy lane i's accumulators in from its Server and mark
  /// it loaded.
  void load(std::size_t i);
  bool loaded(std::size_t i) const noexcept { return loaded_[i] != 0; }

  /// Account one physics substep of `dt` seconds over lanes [lo, hi),
  /// reading the plant outputs `batch` just produced for them.  Unloaded
  /// lanes in the range accumulate into dead values that the next load()
  /// overwrites, and never take a sensor sample.
  void account_range(const ServerBatch& batch, std::size_t lo, std::size_t hi,
                     double dt);

  /// Period end: write lane i back into its Server's meters, mirror
  /// `batch`'s actuator and thermal state into it, and unload the lane.
  void store(std::size_t i, const ServerBatch& batch);

 private:
  std::vector<Server*> servers_;

  LaneVector<std::uint64_t> loaded_;  ///< 8-byte flags: one lane, one slot
  LaneVector<double> phase_;          ///< SensorChain time since last sample
  LaneVector<double> sample_period_;
  LaneVector<double> cpu_joules_;
  LaneVector<double> fan_joules_;
  LaneVector<double> elapsed_s_;
  // Junction statistics (RunningStats::State); the count is a double so
  // the pass vectorizes — exact, and equal to the static_cast<double> of
  // the integer count RunningStats::add divides by, below 2^53 samples.
  LaneVector<double> count_;
  LaneVector<double> mean_;
  LaneVector<double> m2_;
  LaneVector<double> sum_;
  LaneVector<double> min_;
  LaneVector<double> max_;
  LaneVector<double> violation_s_;
  LaneVector<double> limit_c_;
};

}  // namespace fsc
