// Per-layer timing of one workload, measured from outside the program.
//
// The rack and room tiers are driven through their public Session surface
// (run_shard / finish_round / coordinate_round on a LockstepExecutor, the
// exact loop their run() executes), with every call timed and recorded as
// an obs::TraceRecorder span by this code.  The facility exposes only
// run(), so its numbers come from the counters, histograms and spans the
// program already publishes.  Probes time ServerBatch::step_range,
// SimulationEngine::Session and CoolingPlant::allocate over the workload's
// own fleet.
#pragma once

#include <cstdint>
#include <string>

#include "workloads.hpp"

namespace simbench {

/// Reference run, untraced baseline runs for `seconds / 2`, traced runs,
/// probes.  Every run's digest is checked against a 1-thread reference of
/// the same scenario.  Writes the Perfetto trace to `trace_path` unless
/// it is empty.  A metric the workload does not exercise reads 0 and is
/// listed under "not_applicable" in the info.
Measurement measure_layers(const Workload& w, std::uint64_t seed,
                           double seconds, double horizon_scale,
                           const std::string& trace_path);

}  // namespace simbench
