// Drives N (SimulationEngine::Session, Server) pairs — one rack — through
// whole CPU control periods with the plant math batched in a ServerBatch
// and the per-substep accounting in a LaneAccounting.
//
// Per period it runs the three session phases (sim/engine.hpp):
//
//   1. every slot's begin_period() in slot order (policy decision, fan
//      command, workload resolution) — control stays per-entity; then the
//      per-slot inputs are gathered ONCE into the SoA kernel (CPU power at
//      the period's executed utilization, the fan's drive target and slew,
//      the current inlet temperature) and the slot's accounting lanes are
//      loaded from its Server's meters;
//   2. one period-kernel call over the range
//      (LaneAccounting::advance_period): every substep of the period,
//      plant and accounting (energy, junction statistics, violation time,
//      sensor phase) in one vector loop per substep, the sensor's cold
//      sample path only at sample instants, and once every lane of the
//      range has settled on its fan command, a tail that skips the slew,
//      the memo check and fan power.  No per-server, per-substep virtual
//      call, object write or require() is made — the kernel validates its
//      range once per period;
//   3. every slot's accounting lanes are stored back — the Server adopts
//      the batch's actuator and thermal state, and its meters get their
//      integrals — and the session closes the period
//      (note_substeps_accounted() + finish_period()).
//
// Slots never interact inside a period (rack coupling happens at the
// coordination barriers, between advance calls), so interleaving the slots
// substep-by-substep instead of slot-by-slot performs the exact same
// per-slot FP operation sequence as the scalar path — trajectories are
// bit-identical, only the loop nest (and the speed) changes.  And because
// phase 3 writes everything back, the Servers are exact at every period
// boundary: policies, sinks, coordinators, observations, snapshots, fault
// arming and finish() see what the scalar path shows them.
//
// Faults: a faulted lane stays in the batch.  A fan fault changes only
// the drive gathered in phase 1 (Server::fan_drive); a sensor fault acts in
// the sensor's own cold sample path, which phase 2 already calls.  The
// fault layer arms both at coordination barriers, between advance calls,
// so the stepper never needs to know a lane is faulted.
//
// Sinks: the session publishes to its sinks in phase 1 and at finish(),
// exactly as on the scalar path; per-substep quantities reach them through
// the Server's meters, so a session may carry any sink.
//
// Chunking: because slots are independent between barriers, the batch
// splits into contiguous lane ranges that can advance whole coordination
// rounds concurrently — advance_range_periods(lo, hi, periods) steps only
// slots [lo, hi) and touches no shared mutable state (call prepare() once,
// single-threaded, first).  This is what lets the lockstep engines shard a
// rack across a LockstepExecutor: they cut it into kAutoChunkLanes-wide
// chunks, which parallelise across threads while the kernel's lane loop
// vectorizes within a chunk.  Every per-lane array a range writes is cache-line aligned, so
// ranges whose bounds are multiples of 8 lanes share no cache line.
#pragma once

#include <cstddef>
#include <vector>

#include "batch/lane_accounting.hpp"
#include "batch/server_batch.hpp"
#include "sim/engine.hpp"
#include "util/lane_vector.hpp"

namespace fsc {

class Server;
class WorkloadTable;

/// Steps one rack's sessions over a shared SoA plant kernel.
class RackBatchStepper {
 public:
  /// Lanes per chunk, the shard unit of the lockstep engines: one cache
  /// line of doubles (so concurrent chunks share no line), wide enough to
  /// vectorize, and narrow enough that a 64-lane rack splits across 8
  /// threads.  Any chunking is bit-identical to any other.
  static constexpr std::size_t kAutoChunkLanes = 8;

  /// Register a slot.  The session must be freshly constructed (settled,
  /// zero periods stepped) so the gathered plant state matches; all slots
  /// must share the session timing (the engines validate that).  Both
  /// references are borrowed and must outlive the stepper.
  void add_slot(SimulationEngine::Session& session, Server& server);

  std::size_t size() const noexcept { return slots_.size(); }

  /// The underlying SoA kernel — exposed so engines can attach telemetry
  /// (ServerBatch::attach_memo_counters) without the stepper mirroring
  /// every batch-level knob.
  ServerBatch& batch() noexcept { return batch_; }
  const ServerBatch& batch() const noexcept { return batch_; }

  /// Batched demand: resolve each period's per-lane demand through
  /// `table` (one indexed-gather loop per range, workload/
  /// workload_table.hpp) instead of one virtual Workload::demand call per
  /// slot.  The table must hold exactly one lane per registered slot, in
  /// slot order, built from the same workload objects the sessions hold —
  /// then the gathered values are bit-identical to the per-lane calls by
  /// construction.  Borrowed; null (the default) keeps the classic path.
  /// Set before prepare().
  void set_workload_table(const WorkloadTable* table);
  const WorkloadTable* workload_table() const noexcept { return table_; }

  /// Freeze the dt-dependent kernel memos for the registered slots'
  /// physics step.  Must run once — single-threaded — after the last
  /// add_slot() and before any advance_range_periods() call; idempotent.
  void prepare();

  /// Advance slots [lo, hi) by up to `periods` CPU control periods,
  /// stopping early when the range's sessions are done.  Disjoint ranges
  /// may run concurrently — they share no mutable state once prepare() has
  /// run.  Throws std::invalid_argument unless lo <= hi <= size().
  void advance_range_periods(std::size_t lo, std::size_t hi, long periods);

 private:
  struct Slot {
    SimulationEngine::Session* session = nullptr;
    Server* server = nullptr;
  };

  /// Phase 1 for lane i: open the session's period and, when it opened,
  /// gather the kernel inputs and load the accounting lanes.
  bool open_period(std::size_t i, bool gathered);
  /// Phase 3 for lane i, when phase 1 opened a period.
  void close_period(std::size_t i);

  std::vector<Slot> slots_;
  ServerBatch batch_;
  /// Per-substep accounting; its loaded() flag marks the lanes that opened
  /// a period on the batched path.
  LaneAccounting accounts_;
  const WorkloadTable* table_ = nullptr;  ///< batched demand (null = classic)
  /// Per-slot demand scratch for the gather — sized once in prepare();
  /// concurrent ranges write disjoint [lo, hi) sub-ranges of its
  /// cache-line-aligned lanes, so one buffer serves all threads.
  LaneVector<double> demand_buf_;
};

}  // namespace fsc
