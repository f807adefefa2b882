// Cross-layer telemetry surface: the one header engines include to accept
// observability sinks.
//
// Design rules (the whole subsystem hangs off them):
//
//   * Telemetry is READ-ONLY with respect to simulation state.  Nothing in
//     obs/ feeds back into the plant, the policies, or the RNG draws, so a
//     run with every sink attached is bit-identical to a detached run
//     (tests/test_obs.cpp pins this with EXPECT_EQ).
//   * Detached costs one branch per site.  Every hook in the engines is
//     `if (ptr) ...` against a pointer cached at session construction.
//     Attaching is cheap too: bench_obs_overhead holds a fully attached
//     rack-64 run within 1.10x of a detached one.
//   * Always compiled in: there is one build, and no option strips the
//     hook sites.
#pragma once

#include <cstdint>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace fsc::obs {

class SnapshotExporter;
class ProgressMeter;

/// The bundle of non-owning telemetry sinks a driver hands an engine.
/// Default-constructed = fully detached (every hook reduces to one branch).
/// All pointers must outlive the run they are attached to.
struct Telemetry {
  MetricsRegistry* metrics = nullptr;
  TraceRecorder* trace = nullptr;
  /// Periodic time-series exporter, driven by the outermost run loop only
  /// (RoomEngine::run / CoupledRackEngine::run); rack sessions inside a
  /// room never see it.
  SnapshotExporter* snapshot = nullptr;
  /// Heartbeat for long runs, likewise outermost-loop-only.
  ProgressMeter* progress = nullptr;
  /// Rack index label stamped on this engine's spans and counter slots (a
  /// room sets it per rack; standalone racks are rack 0).
  std::uint32_t rack = 0;

  bool attached() const noexcept {
    return metrics != nullptr || trace != nullptr || snapshot != nullptr ||
           progress != nullptr;
  }
};

/// RAII span: records a complete ("X") trace event over its scope.  A null
/// recorder makes both ends a no-op, so hot paths construct it
/// unconditionally and pay a single branch when tracing is detached.
class ScopedSpan {
 public:
  ScopedSpan(TraceRecorder* rec, const char* name, const char* cat,
             std::uint32_t rack = 0, std::uint32_t shard = 0,
             std::int64_t round = -1) noexcept
      : rec_(rec),
        name_(name),
        cat_(cat),
        t0_(rec != nullptr ? monotonic_ns() : 0),
        round_(round),
        rack_(rack),
        shard_(shard) {}
  ~ScopedSpan() {
    if (rec_ != nullptr) {
      rec_->complete(name_, cat_, t0_, monotonic_ns(), rack_, shard_, round_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  TraceRecorder* rec_;
  const char* name_;
  const char* cat_;
  std::int64_t t0_;
  std::int64_t round_;
  std::uint32_t rack_;
  std::uint32_t shard_;
};

}  // namespace fsc::obs
