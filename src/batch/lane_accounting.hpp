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
//   load(i)                  Server -> lanes, at the period start;
//   advance_period(batch, lo, hi, dt, substeps)
//                            the period kernel: every substep of the period
//                            over the range [lo, hi), plant and accounting
//                            together (below); a lane whose phase crosses a
//                            sample instant calls the sensor's cold
//                            SensorChain::take_sample, in (substep, lane)
//                            order, with the same RNG draws as the scalar
//                            SensorChain::observe;
//   store(i)                 lanes -> Server at the period end: its meters,
//                            sensor phase, and actuator and thermal state.
//
// The period kernel.  Each substep is the batch's slew pass (which also
// reports whether any lane left its transcendental memo), the memo
// refresh only when one did, then ONE vector loop that runs the plant
// lane body (fan power, plant::step_nodes) and every accounting statement,
// and the cold sample pass only when some lane reached a sample instant.
// Every plant input is constant within a period and the slew lands
// exactly on its command, so once every lane of the range holds its
// command's bits with a valid memo, slew, memo and fan power are fixed
// points: the remaining substeps run the settled tail and count their
// memo hits in bulk.  Nothing is approximated; the tail is the
// per-substep path with its no-op passes removed.
//
// The settled tail.  The range runs in blocks of kAutoChunkLanes (8)
// lanes — one block for the engines' 8-lane chunks, a partial last block
// for any other width, which repeats its last lane in the spare slots.  A
// block copies its 13 accumulators (the two node temperatures, energy,
// junction statistics, violation time and sample phase) into block-local
// arrays, hoists the period's loop-invariant products (ambient + r_hs·P,
// r_die·P, P·dt, fan_W·dt: the same operands, so the same bits on every
// substep), runs K substeps, and writes the accumulators back.  K is the
// first substep at which any lane of the WHOLE range reaches a sample
// instant, found by replaying the lanes' `phase += dt` adds on a copy;
// after every block has run K substeps, the cold sample pass takes the
// due samples in lane order, exactly where the per-substep path takes
// them, and the next K is found for the substeps left.
//
// Builds.  On x86-64 GCC advance_period is compiled twice through
// target_clones — for the x86-64 baseline and for AVX2, picked from
// CPUID at load time — with `flatten`, so the loops are inlined into each
// clone and run four doubles wide on AVX2 hosts.  Other compilers build
// the baseline kernel only, and so do ThreadSanitizer builds: GCC
// instruments the clones' ifunc resolver, which runs before the
// sanitizer's runtime exists, and the program dies at load.  The library
// is compiled with -ffp-contract=off, so no clone may fuse a
// multiply-add.
//
// Every lane update is the same expression, in the same per-lane order, as
// the scalar Server::step, so the Server and its meters are bit-identical
// to a scalar run at every period boundary — which is all any observer
// (policy, sink, trace record, coordinator, report) ever reads.  The
// violation time adds `tj > limit ? dt : 0.0` instead of selecting
// between two sums (a select GCC will not if-convert): the same value,
// because the time is never -0.0.
//
// Threading: lanes are independent.  Disjoint ranges may be accounted and
// loaded/stored concurrently; every lane array is a LaneVector, so chunks
// of 8 lanes starting at multiples of 8 never share a cache line.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/lane_vector.hpp"

/// Defined when advance_period is built as AVX2 + baseline target_clones.
#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__) && \
    !defined(__SANITIZE_THREAD__)
#define FSC_PERIOD_KERNEL_CLONES 1
#endif

namespace fsc {

class Server;
class ServerBatch;

/// Sensor phase, energy and junction statistics for N lanes.
class LaneAccounting {
 public:
  /// Register the next lane (its index is the previous size()): the
  /// server whose sensor, energy and junction meters it accounts.
  /// Borrowed; must outlive the accounting.  Lane i must be lane i of the
  /// ServerBatch passed to advance_period() and store().
  std::size_t add_lane(Server& server);

  std::size_t size() const noexcept { return servers_.size(); }

  /// Period start: copy lane i's accumulators in from its Server and mark
  /// it loaded.
  void load(std::size_t i);
  bool loaded(std::size_t i) const noexcept { return loaded_[i] != 0; }

  /// The period kernel: advance lanes [lo, hi) of `batch` by `substeps`
  /// physics substeps of `dt` seconds and account every one of them.
  /// Unloaded lanes in the range step and accumulate into dead values that
  /// the next load() overwrites, and never take a sensor sample.  Disjoint
  /// ranges may run concurrently.  Requires lo <= hi <= size() ==
  /// batch.size() (std::invalid_argument) and batch.prepare_dt(dt) to have
  /// run (std::logic_error).
  void advance_period(ServerBatch& batch, std::size_t lo, std::size_t hi,
                      double dt, long substeps);

  /// Period end: write lane i back into its Server's meters, mirror
  /// `batch`'s actuator and thermal state into it, and unload the lane.
  void store(std::size_t i, const ServerBatch& batch);

 private:
  // The period kernel's parts, defined inline in lane_accounting.cpp:
  // only advance_period's clones call them, so no out-of-line copy is
  // emitted.
  /// One full substep over [lo, hi) (the fused lane loop), then the
  /// samples of any lane that reached its instant.
  void full_substep(ServerBatch& batch, std::size_t lo, std::size_t hi,
                    double dt);
  /// K: the first of the next `steps` settled substeps at which some lane
  /// of [lo, hi) reaches a sample instant, or `steps` when none does.
  long substeps_to_sample(std::size_t lo, std::size_t hi, double dt,
                          long steps) const;
  /// `steps` settled substeps of the block [lo, hi), at most
  /// kAutoChunkLanes wide, with its accumulators in block-local arrays.
  void settled_block(ServerBatch& batch, std::size_t lo, std::size_t hi,
                     double dt, long steps);
  /// The cold sample pass: every due sample of [lo, hi), in lane order.
  void take_samples(const ServerBatch& batch, std::size_t lo, std::size_t hi);

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
