#include "batch/rack_stepper.hpp"

#include "sim/server.hpp"
#include "util/units.hpp"
#include "workload/workload_table.hpp"

namespace fsc {

void RackBatchStepper::add_slot(SimulationEngine::Session& session,
                                Server& server) {
  if (!slots_.empty()) {
    const SimulationParams& first = slots_.front().session->params();
    require(session.params().physics_dt_s == first.physics_dt_s &&
                session.physics_per_period() ==
                    slots_.front().session->physics_per_period(),
            "RackBatchStepper: all slots must share the physics timing");
  }
  slots_.push_back(Slot{&session, &server});
  batch_.add_server(server);
  accounts_.add_lane(server);
}

void RackBatchStepper::set_workload_table(const WorkloadTable* table) {
  require(table == nullptr || table->lanes() == slots_.size(),
          "RackBatchStepper::set_workload_table: table must hold one lane "
          "per registered slot");
  table_ = table;
}

void RackBatchStepper::prepare() {
  if (slots_.empty()) return;
  batch_.prepare_dt(slots_.front().session->params().physics_dt_s);
  if (table_ != nullptr) demand_buf_.resize(slots_.size());
}

bool RackBatchStepper::open_period(std::size_t i, bool gathered) {
  Slot& slot = slots_[i];
  const bool open = gathered ? slot.session->begin_period(demand_buf_[i])
                             : slot.session->begin_period();
  if (!open) return false;
  batch_.set_inputs(i, slot.server->cpu_power_now(slot.session->period_executed()),
                    slot.server->fan_drive(), slot.server->inlet_temperature());
  accounts_.load(i);
  return true;
}

void RackBatchStepper::close_period(std::size_t i) {
  accounts_.store(i, batch_);
  slots_[i].session->note_substeps_accounted();
  slots_[i].session->finish_period();
}

void RackBatchStepper::advance_range_periods(std::size_t lo, std::size_t hi,
                                             long periods) {
  require(lo <= hi && hi <= slots_.size(),
          "RackBatchStepper::advance_range_periods: need lo <= hi <= size()");
  if (lo == hi) return;
  const double dt = slots_.front().session->params().physics_dt_s;
  const long substeps = slots_.front().session->physics_per_period();

  for (long p = 0; p < periods; ++p) {
    // Phase 1 — per-slot control decisions, input gather, lane load.  With
    // a workload table attached, the range's demand is resolved FIRST in
    // one branch-light gather loop (lane clocks agree — all sessions share
    // the timing and advance together) and injected into begin_period,
    // replacing one virtual demand call per slot per period.
    const bool gather = table_ != nullptr;
    if (gather) {
      table_->fill_demand(slots_[lo].session->time_s(), lo, hi,
                          demand_buf_.data());
    }
    bool any_active = false;
    for (std::size_t i = lo; i < hi; ++i) any_active |= open_period(i, gather);
    if (!any_active) return;  // all sessions in this range are done

    // Phase 2 — the period kernel: physics and accounting over the range.
    accounts_.advance_period(batch_, lo, hi, dt, substeps);

    // Phase 3 — write back and close the period on every opened slot.
    for (std::size_t i = lo; i < hi; ++i) {
      if (accounts_.loaded(i)) close_period(i);
    }
  }
}

}  // namespace fsc
