#include "room/schedulers.hpp"

#include <algorithm>
#include <memory>

#include "coord/policies.hpp"
#include "core/policy_factory.hpp"
#include "util/units.hpp"

namespace fsc {

namespace {

/// Demand below this is treated as "no load to scale against": a
/// multiplicative directive cannot conjure work onto an idle rack, and
/// dividing by it would explode the descaled-demand estimate.
constexpr double kMinScalableDemand = 1e-6;

void directives_into(const std::vector<double>& scales,
                     std::vector<RackDirective>& out) {
  out.assign(scales.size(), RackDirective{});
  for (std::size_t i = 0; i < scales.size(); ++i) {
    out[i].demand_scale = scales[i];
  }
}

}  // namespace

RackObservation aggregate_rack_observation(
    std::size_t index, double time_s, const std::vector<SlotObservation>& slots,
    std::size_t window_deadline_violations, double demand_scale) {
  RackObservation o;
  o.index = index;
  o.time_s = time_s;
  o.slots = slots.size();
  for (const SlotObservation& s : slots) {
    o.demand += s.demand;
    o.executed += s.executed;
    o.cpu_watts += s.cpu_watts;
    o.mean_inlet_celsius += s.inlet_celsius;
    o.max_inlet_celsius = std::max(o.max_inlet_celsius, s.inlet_celsius);
    o.mean_measured_temp += s.measured_temp;
    o.max_measured_temp = std::max(o.max_measured_temp, s.measured_temp);
    o.mean_fan_rpm += s.fan_actual_rpm;
    if (!s.telemetry_ok) ++o.dark_slots;
  }
  if (!slots.empty()) {
    const double n = static_cast<double>(slots.size());
    o.demand /= n;
    o.executed /= n;
    o.mean_inlet_celsius /= n;
    o.mean_measured_temp /= n;
    o.mean_fan_rpm /= n;
  }
  o.window_deadline_violations = window_deadline_violations;
  o.demand_scale = demand_scale;
  return o;
}

// ---------------------------------------------------------------- static

StaticRoomScheduler::StaticRoomScheduler(const RoomSchedulerConfig&) {}

void StaticRoomScheduler::schedule(double,
                                   const std::vector<RackObservation>& racks,
                                   std::vector<RackDirective>& out) {
  out.assign(racks.size(), RackDirective{});
}

// ------------------------------------------------------ thermal-headroom

ThermalHeadroomScheduler::ThermalHeadroomScheduler(
    const RoomSchedulerConfig& cfg)
    : cfg_(cfg) {
  require(cfg_.migration_step > 0.0 && cfg_.migration_step < 1.0,
          "ThermalHeadroomScheduler: migration step must be in (0, 1)");
  require(cfg_.min_demand_scale > 0.0 &&
              cfg_.min_demand_scale < cfg_.max_demand_scale,
          "ThermalHeadroomScheduler: need 0 < min scale < max scale");
  require(cfg_.hysteresis_celsius >= 0.0,
          "ThermalHeadroomScheduler: hysteresis must be >= 0");
  require(cfg_.migration_cost_fraction >= 0.0,
          "ThermalHeadroomScheduler: migration cost must be >= 0");
}

void ThermalHeadroomScheduler::reset() {
  scales_.clear();
  cooldown_ = 0;
  migrations_ = 0;
}

void ThermalHeadroomScheduler::schedule(
    double, const std::vector<RackObservation>& racks,
    std::vector<RackDirective>& out) {
  if (scales_.empty()) scales_.assign(racks.size(), 1.0);
  require(scales_.size() == racks.size(),
          "ThermalHeadroomScheduler: rack count changed mid-run");

  if (cooldown_ > 0) {
    // Settling: hold the current assignment (which also retires the
    // previous migration's one-round cost surcharge).
    --cooldown_;
    directives_into(scales_, out);
    return;
  }

  // Donor: hottest inlet among racks that still have load to give.
  // Receiver: coolest inlet among racks that can still absorb — which
  // requires some load of their own to scale up (a multiplier cannot
  // express an absolute injection onto an idle rack, so an idle rack is
  // skipped in favor of the next-coolest loaded one).
  std::size_t hot = racks.size();
  std::size_t cool = racks.size();
  for (std::size_t i = 0; i < racks.size(); ++i) {
    const RackObservation& r = racks[i];
    if (scales_[i] > cfg_.min_demand_scale &&
        r.demand > kMinScalableDemand &&
        (hot == racks.size() ||
         r.mean_inlet_celsius > racks[hot].mean_inlet_celsius)) {
      hot = i;
    }
    if (scales_[i] < cfg_.max_demand_scale &&
        r.demand > kMinScalableDemand &&
        (cool == racks.size() ||
         r.mean_inlet_celsius < racks[cool].mean_inlet_celsius)) {
      cool = i;
    }
  }
  if (hot == racks.size() || cool == racks.size() || hot == cool) {
    directives_into(scales_, out);
    return;
  }
  const double spread = racks[hot].mean_inlet_celsius -
                        racks[cool].mean_inlet_celsius;
  if (spread < cfg_.hysteresis_celsius) {
    directives_into(scales_, out);  // deadband: not worth moving for
    return;
  }
  const RackObservation& donor = racks[hot];
  const RackObservation& receiver = racks[cool];

  // Move `migration_step` of the donor's current aggregate demand,
  // conserving total demanded utilization: the receiver's scale rises by
  // exactly the moved units over its own (descaled) aggregate demand.
  const double moved_units = cfg_.migration_step * donor.demand *
                             static_cast<double>(donor.slots);
  const double receiver_raw_units = receiver.demand / scales_[cool] *
                                    static_cast<double>(receiver.slots);
  scales_[hot] = std::max(cfg_.min_demand_scale,
                          scales_[hot] * (1.0 - cfg_.migration_step));
  scales_[cool] = std::min(cfg_.max_demand_scale,
                           scales_[cool] + moved_units / receiver_raw_units);
  cooldown_ = cfg_.cooldown_rounds;
  ++migrations_;

  // The move itself is not free: the receiver pays a one-round overhead
  // (state transfer, cold caches) on top of its new share.
  directives_into(scales_, out);
  out[cool].demand_scale = std::min(
      cfg_.max_demand_scale,
      scales_[cool] * (1.0 + cfg_.migration_cost_fraction));
}

// ----------------------------------------------------------- power-aware

PowerAwareScheduler::PowerAwareScheduler(const RoomSchedulerConfig& cfg)
    : cfg_(cfg), budget_watts_(cfg.effective_power_budget()) {
  require(budget_watts_ > 0.0, "PowerAwareScheduler: budget must be > 0");
  require(cfg_.num_racks > 0, "PowerAwareScheduler: need at least one rack");
  require(cfg_.min_demand_scale > 0.0 &&
              cfg_.min_demand_scale < cfg_.max_demand_scale,
          "PowerAwareScheduler: need 0 < min scale < max scale");
  // Migration moves work, and with it dynamic power; the idle (static)
  // draw stays where the servers are.  A budget below the room's aggregate
  // idle floor can never be met by any packing, so refuse it up front
  // instead of silently failing to meet it.
  const double idle_floor =
      static_cast<double>(cfg_.total_slots) * cfg_.cpu_power.power(0.0);
  require(budget_watts_ >= idle_floor,
          "PowerAwareScheduler: budget is below the room's aggregate idle "
          "power floor and can never be met");
}

void PowerAwareScheduler::schedule(double,
                                   const std::vector<RackObservation>& racks,
                                   std::vector<RackDirective>& out) {
  out.assign(racks.size(), RackDirective{});
  if (racks.empty()) return;
  const double rack_budget = budget_watts_ / static_cast<double>(racks.size());

  // Descale each rack's observed demand back to its native load, price it
  // with the nominal power model, and split the room into shedders (over
  // their per-rack budget) and absorbers (headroom under it).
  raw_u_.assign(racks.size(), 0.0);
  native_watts_.assign(racks.size(), 0.0);
  headroom_.assign(racks.size(), 0.0);
  double shed_pool = 0.0;
  for (std::size_t i = 0; i < racks.size(); ++i) {
    const RackObservation& r = racks[i];
    raw_u_[i] = r.demand_scale > 0.0 ? r.demand / r.demand_scale : r.demand;
    native_watts_[i] =
        static_cast<double>(r.slots) * cfg_.cpu_power.power(raw_u_[i]);
    if (native_watts_[i] > rack_budget) {
      shed_pool += native_watts_[i] - rack_budget;
    } else {
      headroom_[i] = rack_budget - native_watts_[i];
    }
  }

  // Re-pack: the shed watts are divided across the absorbers' headroom by
  // the same max-min water-filling the rack budget coordinator uses —
  // every absorber takes min(headroom, fair share), leftovers recursively
  // redistributed, and anything that fits nowhere stays shed (the room is
  // genuinely over budget and that slice of load is simply not run).
  PowerBudgetCoordinator::water_fill(headroom_, shed_pool, received_);

  // Budget rejection: shed watts that fit in NO absorber's headroom — the
  // room is genuinely over budget and that slice of load is not run.
  // Observational only; the directives below are identical either way.
  if (obs_.trace != nullptr || obs_.metrics != nullptr) {
    double absorbed = 0.0;
    for (const double r : received_) absorbed += r;
    if (shed_pool > absorbed + 1e-9) {
      if (obs_.trace != nullptr) {
        obs_.trace->instant("room.budget_reject", "sched");
      }
      if (obs_.metrics != nullptr) {
        obs_.metrics->counter("room.budget_rejections").increment();
      }
    }
  }

  for (std::size_t i = 0; i < racks.size(); ++i) {
    const RackObservation& r = racks[i];
    const bool sheds = native_watts_[i] > rack_budget;
    const bool absorbs = received_[i] > 0.0;
    if ((!sheds && !absorbs) || raw_u_[i] <= kMinScalableDemand ||
        r.slots == 0) {
      continue;  // untouched racks run their native load, scale exactly 1
    }
    const double target_watts =
        (sheds ? rack_budget : native_watts_[i] + received_[i]) /
        static_cast<double>(r.slots);
    const double target_u = cfg_.cpu_power.utilization_for_power(target_watts);
    out[i].demand_scale = clamp(target_u / raw_u_[i], cfg_.min_demand_scale,
                                cfg_.max_demand_scale);
  }
}

// -------------------------------------------------------------- failsafe

FailsafeRoomScheduler::FailsafeRoomScheduler(const RoomSchedulerConfig& cfg)
    : cfg_(cfg) {
  require(cfg_.migration_step > 0.0 && cfg_.migration_step < 1.0,
          "FailsafeRoomScheduler: migration step must be in (0, 1)");
  require(cfg_.min_demand_scale > 0.0 &&
              cfg_.min_demand_scale < cfg_.max_demand_scale,
          "FailsafeRoomScheduler: need 0 < min scale < max scale");
  require(cfg_.hysteresis_celsius >= 0.0,
          "FailsafeRoomScheduler: hysteresis must be >= 0");
  require(cfg_.migration_cost_fraction >= 0.0,
          "FailsafeRoomScheduler: migration cost must be >= 0");
  require(cfg_.predictor_window > 0,
          "FailsafeRoomScheduler: predictor window must be > 0");
}

void FailsafeRoomScheduler::reset() {
  scales_.clear();
  predictors_.clear();
  forecasts_.clear();
  cooldown_ = 0;
  migrations_ = 0;
  evacuations_ = 0;
}

void FailsafeRoomScheduler::schedule(double,
                                     const std::vector<RackObservation>& racks,
                                     std::vector<RackDirective>& out) {
  if (scales_.empty()) {
    scales_.assign(racks.size(), 1.0);
    predictors_.reserve(racks.size());
    for (std::size_t i = 0; i < racks.size(); ++i) {
      predictors_.emplace_back(cfg_.predictor_window);
    }
    forecasts_.assign(racks.size(), 0.0);
  }
  require(scales_.size() == racks.size(),
          "FailsafeRoomScheduler: rack count changed mid-run");

  // Track each rack's native (descaled) per-slot demand while it is bright;
  // a dark rack's observation is a frozen last-good value, so feeding it
  // would bias the filter toward the moment the link died.
  for (std::size_t i = 0; i < racks.size(); ++i) {
    const RackObservation& r = racks[i];
    const double raw_u =
        r.demand_scale > 0.0 ? r.demand / r.demand_scale : r.demand;
    if (r.dark_slots == 0) predictors_[i].observe(raw_u);
    forecasts_[i] = predictors_[i].predict();
  }

  if (cooldown_ > 0) {
    --cooldown_;
    directives_into(scales_, out);
    return;
  }

  // Priority 1 — evacuation: a rack with blacked-out slots is an unknown
  // quantity (its "observations" are stale), so move load off it toward
  // the coolest bright rack with absorption headroom.  The moved units are
  // priced from the forecast, not the frozen observation.
  std::size_t dark = racks.size();
  std::size_t cool = racks.size();
  for (std::size_t i = 0; i < racks.size(); ++i) {
    const RackObservation& r = racks[i];
    if (r.dark_slots > 0 && scales_[i] > cfg_.min_demand_scale &&
        forecasts_[i] > kMinScalableDemand &&
        (dark == racks.size() || r.dark_slots > racks[dark].dark_slots)) {
      dark = i;
    }
    if (r.dark_slots == 0 && scales_[i] < cfg_.max_demand_scale &&
        r.demand > kMinScalableDemand &&
        (cool == racks.size() ||
         r.mean_inlet_celsius < racks[cool].mean_inlet_celsius)) {
      cool = i;
    }
  }
  if (dark != racks.size() && cool != racks.size() && dark != cool) {
    const RackObservation& donor = racks[dark];
    const RackObservation& receiver = racks[cool];
    const double moved_units = cfg_.migration_step * forecasts_[dark] *
                               scales_[dark] *
                               static_cast<double>(donor.slots);
    const double receiver_raw_units = receiver.demand / scales_[cool] *
                                      static_cast<double>(receiver.slots);
    scales_[dark] = std::max(cfg_.min_demand_scale,
                             scales_[dark] * (1.0 - cfg_.migration_step));
    scales_[cool] = std::min(cfg_.max_demand_scale,
                             scales_[cool] + moved_units / receiver_raw_units);
    cooldown_ = cfg_.cooldown_rounds;
    ++migrations_;
    ++evacuations_;
    directives_into(scales_, out);
    out[cool].demand_scale = std::min(
        cfg_.max_demand_scale,
        scales_[cool] * (1.0 + cfg_.migration_cost_fraction));
    return;
  }

  // Priority 2 — the thermal-headroom behavior over the bright racks (a
  // dark rack can neither donate on thermal grounds — its inlet reading is
  // stale — nor absorb).
  std::size_t hot = racks.size();
  cool = racks.size();
  for (std::size_t i = 0; i < racks.size(); ++i) {
    const RackObservation& r = racks[i];
    if (r.dark_slots > 0) continue;
    if (scales_[i] > cfg_.min_demand_scale && r.demand > kMinScalableDemand &&
        (hot == racks.size() ||
         r.mean_inlet_celsius > racks[hot].mean_inlet_celsius)) {
      hot = i;
    }
    if (scales_[i] < cfg_.max_demand_scale && r.demand > kMinScalableDemand &&
        (cool == racks.size() ||
         r.mean_inlet_celsius < racks[cool].mean_inlet_celsius)) {
      cool = i;
    }
  }
  if (hot == racks.size() || cool == racks.size() || hot == cool) {
    directives_into(scales_, out);
    return;
  }
  const double spread =
      racks[hot].mean_inlet_celsius - racks[cool].mean_inlet_celsius;
  if (spread < cfg_.hysteresis_celsius) {
    directives_into(scales_, out);
    return;
  }
  const RackObservation& donor = racks[hot];
  const RackObservation& receiver = racks[cool];
  const double moved_units =
      cfg_.migration_step * donor.demand * static_cast<double>(donor.slots);
  const double receiver_raw_units = receiver.demand / scales_[cool] *
                                    static_cast<double>(receiver.slots);
  scales_[hot] = std::max(cfg_.min_demand_scale,
                          scales_[hot] * (1.0 - cfg_.migration_step));
  scales_[cool] = std::min(cfg_.max_demand_scale,
                           scales_[cool] + moved_units / receiver_raw_units);
  cooldown_ = cfg_.cooldown_rounds;
  ++migrations_;
  directives_into(scales_, out);
  out[cool].demand_scale = std::min(
      cfg_.max_demand_scale,
      scales_[cool] * (1.0 + cfg_.migration_cost_fraction));
}

// ------------------------------------------------------------- registry

void register_builtin_room_schedulers(PolicyFactory& factory) {
  factory.register_room_scheduler(
      "static", "fixed assignment: no load ever migrates (baseline)",
      [](const RoomSchedulerConfig& cfg) -> std::unique_ptr<RoomScheduler> {
        return std::make_unique<StaticRoomScheduler>(cfg);
      });
  factory.register_room_scheduler(
      "thermal-headroom",
      "migrate load from the hottest-inlet rack toward cool headroom, with "
      "deadband + cooldown hysteresis",
      [](const RoomSchedulerConfig& cfg) -> std::unique_ptr<RoomScheduler> {
        return std::make_unique<ThermalHeadroomScheduler>(cfg);
      });
  factory.register_room_scheduler(
      "power-aware",
      "greedy re-packing against per-rack power budgets via max-min "
      "water-filling",
      [](const RoomSchedulerConfig& cfg) -> std::unique_ptr<RoomScheduler> {
        return std::make_unique<PowerAwareScheduler>(cfg);
      });
  factory.register_room_scheduler(
      "failsafe",
      "thermal-headroom plus evacuation of blacked-out racks, priced by a "
      "moving-average demand forecast",
      [](const RoomSchedulerConfig& cfg) -> std::unique_ptr<RoomScheduler> {
        return std::make_unique<FailsafeRoomScheduler>(cfg);
      });
}

}  // namespace fsc
