// A rack of heterogeneous simulated servers.
//
// Real racks are never uniform: airflow preheat varies by slot, heat sinks
// and fans carry manufacturing spread, and no two machines see the same
// workload phase.  The Rack models that by stamping N per-server
// specifications from one template scenario, jittering the physical and
// workload parameters through a *per-server* seeded RNG stream
// (util/rng.hpp derive_seed), so that:
//
//   * the whole rack is reproducible from (template, base seed, N);
//   * server i's spec is independent of how many other servers exist or
//     which thread simulates it;
//   * the control stack is stressed across a spread of plants, not just
//     the nominal Table I machine.
//
// The policy's own model copies (SolutionConfig's power/thermal members)
// intentionally stay nominal: a BMC knows the datasheet plant, not its
// unit's manufacturing spread, so model-based components run with exactly
// that mismatch.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/solutions.hpp"
#include "sim/engine.hpp"
#include "sim/server.hpp"
#include "workload/synthetic.hpp"
#include "workload/trace.hpp"

namespace fsc {

/// Per-server parameter spread, applied multiplicatively (fractions) or
/// additively (deltas) around the template values.  All draws are uniform
/// in [-x, +x].
struct RackJitter {
  double ambient_delta_celsius = 3.0;   ///< slot-position airflow preheat
  double die_resistance_fraction = 0.05;    ///< heat-sink mounting spread
  double cpu_power_fraction = 0.05;     ///< silicon leakage/binning spread
  double workload_level_fraction = 0.10;    ///< per-server load imbalance
  double workload_phase_fraction = 1.0;     ///< phase offset, fraction of period
};

/// Rack-wide configuration: one template scenario plus the spread.
struct RackParams {
  std::size_t num_servers = 8;
  std::uint64_t base_seed = 1;
  std::string policy = "r-coord+a-tref+ss-fan";  ///< PolicyFactory key
  ServerParams server;          ///< template plant (Table I defaults)
  SolutionConfig solution;      ///< template controller configuration
  SimulationParams sim;         ///< shared timing (trace off by default)
  SpikyParams workload;         ///< template workload
  RackJitter jitter;

  /// Recorded traces to replay instead of the synthetic template.  When
  /// non-empty, slot i replays traces[i % traces.size()] verbatim (no
  /// workload jitter — a real trace already carries its own phase and
  /// level structure); plant jitter still applies.  Shared pointers so a
  /// large trace is loaded once however many slots replay it.  Any
  /// Workload works (CSV-loaded SampledWorkloads, zero-copy
  /// StoredTraceWorkloads from a mmap-ed pack, test lambdas).
  std::vector<std::shared_ptr<const Workload>> traces;

  RackParams() { sim.record_trace = false; }
};

/// Everything needed to simulate one slot, fully materialised so a worker
/// thread can run it without touching shared state.
struct RackServerSpec {
  std::size_t index = 0;
  std::uint64_t seed = 0;       ///< RNG stream for workload + sensor noise
  ServerParams server;          ///< jittered plant
  SolutionConfig solution;      ///< nominal controller configuration
  SpikyParams workload;         ///< jittered workload (synthetic fallback)
  /// Recorded trace this slot replays; null means "generate the synthetic
  /// workload from `workload` + seed".
  std::shared_ptr<const Workload> trace;
};

/// The one place a slot's demand source is materialised: the spec's trace
/// when present (no RNG consumed), else the seeded synthetic spiky
/// workload.  The coupled rack engine builds through this so trace-driven
/// and synthetic slots are interchangeable.
std::shared_ptr<const Workload> make_slot_workload(const RackServerSpec& spec,
                                                   Rng& rng);

/// Builds and holds the per-server specs.
class Rack {
 public:
  /// Stamp `params.num_servers` specs from the template.  Throws
  /// std::invalid_argument when num_servers == 0 or any jitter is negative.
  explicit Rack(RackParams params);

  const RackParams& params() const noexcept { return params_; }
  std::size_t size() const noexcept { return specs_.size(); }
  const std::vector<RackServerSpec>& servers() const noexcept { return specs_; }
  const RackServerSpec& server(std::size_t i) const { return specs_.at(i); }

 private:
  RackParams params_;
  std::vector<RackServerSpec> specs_;
};

}  // namespace fsc
