#include "coord/policies.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>

#include "core/policy_factory.hpp"
#include "util/units.hpp"

namespace fsc {

IndependentCoordinator::IndependentCoordinator(const CoordinatorConfig&) {}

void IndependentCoordinator::coordinate(
    double, const std::vector<SlotObservation>& slots,
    std::vector<SlotDirective>& out) {
  out.assign(slots.size(), SlotDirective{});
}

FanZoneCoordinator::FanZoneCoordinator(const CoordinatorConfig& cfg)
    : zone_size_(cfg.fan_zone_size),
      fan_min_rpm_(cfg.fan_min_rpm),
      fan_max_rpm_(cfg.fan_max_rpm) {
  require(zone_size_ > 0, "FanZoneCoordinator: zone size must be > 0");
  require(fan_min_rpm_ >= 0.0 && fan_max_rpm_ > fan_min_rpm_,
          "FanZoneCoordinator: need 0 <= min rpm < max rpm");
}

void FanZoneCoordinator::coordinate(double,
                                    const std::vector<SlotObservation>& slots,
                                    std::vector<SlotDirective>& directives) {
  directives.assign(slots.size(), SlotDirective{});
  for (std::size_t zone_start = 0; zone_start < slots.size();
       zone_start += zone_size_) {
    const std::size_t zone_end = std::min(zone_start + zone_size_, slots.size());
    double zone_rpm = fan_min_rpm_;
    for (std::size_t i = zone_start; i < zone_end; ++i) {
      zone_rpm = std::max(zone_rpm, slots[i].fan_requested_rpm);
    }
    zone_rpm = clamp(zone_rpm, fan_min_rpm_, fan_max_rpm_);
    for (std::size_t i = zone_start; i < zone_end; ++i) {
      directives[i].fan_override_rpm = zone_rpm;
    }
  }
}

PowerBudgetCoordinator::PowerBudgetCoordinator(const CoordinatorConfig& cfg)
    : budget_watts_(cfg.effective_power_budget()),
      min_cap_(cfg.min_cap),
      cpu_power_(cfg.cpu_power) {
  require(budget_watts_ > 0.0, "PowerBudgetCoordinator: budget must be > 0");
  require(min_cap_ > 0.0 && min_cap_ <= 1.0,
          "PowerBudgetCoordinator: min_cap must be in (0, 1]");
  // Capping can only shed dynamic power: every slot draws at least
  // power(min_cap) (idle + the guaranteed floor).  A budget below that
  // aggregate is physically unenforceable — the rack would sit over
  // budget forever while every slot is pinned at min_cap — so refuse it
  // up front instead of silently failing to meet it.
  const double floor_watts = static_cast<double>(cfg.num_slots) *
                             cpu_power_.power(min_cap_);
  require(cfg.num_slots == 0 || budget_watts_ >= floor_watts,
          "PowerBudgetCoordinator: budget is below the rack's idle + min_cap "
          "power floor and can never be met");
}

void PowerBudgetCoordinator::water_fill(const std::vector<double>& demands_watts,
                                        double budget,
                                        std::vector<double>& alloc) {
  // An open (not yet granted) slot holds NaN, which no grant can be, so
  // the allocation doubles as the granted mask and needs no second buffer.
  alloc.assign(demands_watts.size(),
               std::numeric_limits<double>::quiet_NaN());
  double remaining = budget;
  std::size_t open = demands_watts.size();
  // Each pass grants every slot whose demand fits under the current fair
  // share and re-divides what they left on the table; terminates because a
  // pass either grants someone or settles all open slots at the share.
  while (open > 0) {
    const double share = remaining / static_cast<double>(open);
    bool granted_any = false;
    for (std::size_t i = 0; i < demands_watts.size(); ++i) {
      if (!std::isnan(alloc[i])) continue;
      if (demands_watts[i] <= share) {
        alloc[i] = demands_watts[i];
        remaining -= alloc[i];
        --open;
        granted_any = true;
      }
    }
    if (!granted_any) {
      for (std::size_t i = 0; i < demands_watts.size(); ++i) {
        if (std::isnan(alloc[i])) alloc[i] = share;
      }
      break;
    }
  }
}

void PowerBudgetCoordinator::coordinate(
    double, const std::vector<SlotObservation>& slots,
    std::vector<SlotDirective>& directives) {
  directives.assign(slots.size(), SlotDirective{});
  demand_watts_.clear();
  double total = 0.0;
  for (const SlotObservation& slot : slots) {
    const double w = cpu_power_.power(slot.demand);
    demand_watts_.push_back(w);
    total += w;
  }
  if (total <= budget_watts_) return;  // everyone unconstrained

  water_fill(demand_watts_, budget_watts_, alloc_);
  for (std::size_t i = 0; i < slots.size(); ++i) {
    if (alloc_[i] >= demand_watts_[i] - 1e-12) continue;  // fully granted
    const double cap = cpu_power_.utilization_for_power(alloc_[i]);
    directives[i].cap_limit = std::max(min_cap_, cap);
  }
}

FailsafeCoordinator::FailsafeCoordinator(const CoordinatorConfig& cfg)
    : zone_size_(cfg.fan_zone_size),
      fan_min_rpm_(cfg.fan_min_rpm),
      fan_max_rpm_(cfg.fan_max_rpm),
      floor_fraction_(cfg.failsafe_floor_fraction),
      seized_cap_(cfg.failsafe_seized_cap),
      thermal_limit_(cfg.thermal_limit_celsius) {
  require(zone_size_ > 0, "FailsafeCoordinator: zone size must be > 0");
  require(fan_min_rpm_ >= 0.0 && fan_max_rpm_ > fan_min_rpm_,
          "FailsafeCoordinator: need 0 <= min rpm < max rpm");
  require(floor_fraction_ > 0.0 && floor_fraction_ <= 1.0,
          "FailsafeCoordinator: floor fraction must be in (0, 1]");
  require(seized_cap_ > 0.0 && seized_cap_ <= 1.0,
          "FailsafeCoordinator: seized cap must be in (0, 1]");
}

void FailsafeCoordinator::coordinate(double,
                                     const std::vector<SlotObservation>& slots,
                                     std::vector<SlotDirective>& directives) {
  directives.assign(slots.size(), SlotDirective{});
  for (std::size_t zone_start = 0; zone_start < slots.size();
       zone_start += zone_size_) {
    const std::size_t zone_end =
        std::min(zone_start + zone_size_, slots.size());
    double zone_rpm = fan_min_rpm_;
    bool any_dark = false;
    bool any_seized = false;
    for (std::size_t i = zone_start; i < zone_end; ++i) {
      const SlotObservation& o = slots[i];
      zone_rpm = std::max(zone_rpm, o.fan_requested_rpm);
      any_dark = any_dark || o.dark();
      // A healthy actuator never shows a speed below the controllable
      // floor: commands are clamped to [min, max] and the blades slew
      // toward them, so actual < min (with slack for slew) means the
      // blower is physically stuck — the one fan fault firmware can see.
      const bool seized = o.fan_actual_rpm < fan_min_rpm_ - 1.0;
      any_seized = any_seized || seized;
      if (seized) {
        // Throttle only while the victim is actually hot: linear ramp
        // from no cap at (limit - band) down to the configured seized
        // cap at the limit, so the barrier-rate loop duty-cycles the
        // throttle instead of forfeiting every deadline in the window.
        const double hot =
            (o.measured_temp - (thermal_limit_ - kSeizedRampCelsius)) /
            kSeizedRampCelsius;
        if (hot > 0.0) {
          directives[i].cap_limit =
              1.0 - std::min(1.0, hot) * (1.0 - seized_cap_);
        }
      }
    }
    if (any_dark) zone_rpm = std::max(zone_rpm, floor_fraction_ * fan_max_rpm_);
    if (any_seized) zone_rpm = fan_max_rpm_;
    zone_rpm = clamp(zone_rpm, fan_min_rpm_, fan_max_rpm_);
    for (std::size_t i = zone_start; i < zone_end; ++i) {
      directives[i].fan_override_rpm = zone_rpm;
    }
  }
}

void register_builtin_coordinators(PolicyFactory& factory) {
  factory.register_coordinator(
      "independent", "no cross-server coordination (baseline)",
      [](const CoordinatorConfig& cfg) -> std::unique_ptr<RackCoordinator> {
        return std::make_unique<IndependentCoordinator>(cfg);
      });
  factory.register_coordinator(
      "shared-fan-zone",
      "one blower per zone of K slots, speed = max member request",
      [](const CoordinatorConfig& cfg) -> std::unique_ptr<RackCoordinator> {
        return std::make_unique<FanZoneCoordinator>(cfg);
      });
  factory.register_coordinator(
      "power-budget",
      "rack power budget re-divided by max-min water-filling on demand",
      [](const CoordinatorConfig& cfg) -> std::unique_ptr<RackCoordinator> {
        return std::make_unique<PowerBudgetCoordinator>(cfg);
      });
  factory.register_coordinator(
      "failsafe",
      "fan zones with dark-sensor floor ramp and seized-blower response",
      [](const CoordinatorConfig& cfg) -> std::unique_ptr<RackCoordinator> {
        return std::make_unique<FailsafeCoordinator>(cfg);
      });
}

}  // namespace fsc
