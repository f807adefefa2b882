// WorkloadTable: the batched demand path.
//
// In the per-lane path every CPU control period costs each slot a virtual
// Workload::demand(t) through a shared_ptr — at the facility tier that is
// ~100k indirect calls + control-block pointer chases per round before the
// plant kernel even starts.  The table resolves each batch lane ONCE
// (at build time) to a raw (sample pointer, count, period) triple and then
// fills a whole contiguous lane range per period with one tight indexed-
// gather loop: no virtual dispatch, no shared_ptr traffic, just
// zoh_index + a load (+ the dequant multiply for quantized lanes).
//
// Bit-identity contract: the gather computes each lane's value with the
// EXACT expressions the per-lane path uses — the shared zoh_index helper
// (workload/trace.hpp) over the same precomputed reciprocal, and
// pack::kDequant for stored traces — so gather-on and gather-off runs are
// EXPECT_EQ-identical across thread counts (test_batch / test_trace_store
// pin this).
//
// Coverage: only pre-sampled sources can be tabled (SampledWorkload and
// StoredTraceWorkload — every practical source; synthetic generators
// pre-sample into SampledWorkload).  add_lane() reports a non-tableable
// workload by returning false, and the engine simply keeps the classic
// per-lane path for the whole rack (correctness never depends on coverage).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "workload/trace.hpp"

namespace fsc {

/// Resolves batch lanes to raw trace columns and gathers demand per period.
class WorkloadTable {
 public:
  /// Register the next lane's demand source.  Returns false (and records
  /// nothing) when `w` is not a pre-sampled workload — the caller must
  /// then abandon the table (lanes() stops matching the batch).
  bool add_lane(const Workload& w);

  std::size_t lanes() const noexcept { return lanes_.size(); }

  /// out[i] = lane i's demand at time t, for i in [lane_lo, lane_hi).
  /// Writes only that sub-range, so disjoint ranges may be filled
  /// concurrently from different threads over one shared buffer.
  void fill_demand(double t, std::size_t lane_lo, std::size_t lane_hi,
                   double* out) const;

 private:
  struct Lane {
    const double* dense = nullptr;          ///< SampledWorkload column
    const std::uint16_t* quantized = nullptr;  ///< stored-trace column
    std::size_t count = 0;
    double period_s = 0.0;
    double inv_period = 0.0;
  };
  std::vector<Lane> lanes_;
};

}  // namespace fsc
