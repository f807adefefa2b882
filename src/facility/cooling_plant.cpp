#include "facility/cooling_plant.hpp"

#include <algorithm>
#include <cmath>

#include "coord/policies.hpp"
#include "util/units.hpp"

namespace fsc {

CoolingPlant::CoolingPlant(const CoolingPlantParams& params)
    : params_(params) {
  require(params_.supply_period_s > 0.0,
          "CoolingPlant: supply period must be > 0");
  require(params_.supply_amplitude_c >= 0.0,
          "CoolingPlant: supply amplitude must be >= 0");
  require(params_.unmet_celsius_per_kw >= 0.0,
          "CoolingPlant: unmet-heat coefficient must be >= 0");
  require(params_.min_demand_scale > 0.0 && params_.min_demand_scale <= 1.0,
          "CoolingPlant: min demand scale must be in (0, 1]");
}

double CoolingPlant::weather_offset(double time_s) const {
  // The == 0 test is the identity guarantee, not an optimisation: with a
  // zero amplitude no floating-point op runs, so the offset is the exact
  // 0.0 the rooms' untouched ambient path expects.
  if (params_.supply_amplitude_c == 0.0) return 0.0;
  constexpr double kTwoPi = 6.283185307179586476925286766559;
  const double phase =
      kTwoPi * (time_s - params_.supply_phase_s) / params_.supply_period_s;
  return params_.supply_amplitude_c * 0.5 * (1.0 - std::cos(phase));
}

void CoolingPlant::allocate(double time_s,
                            const std::vector<double>& demands_watts,
                            std::vector<RoomCoolingAllocation>& out) const {
  const std::size_t n = demands_watts.size();
  const double weather = weather_offset(time_s);
  out.resize(n);

  double total = 0.0;
  for (const double d : demands_watts) total += d;
  if (!constrained() || total <= params_.capacity_watts) {
    // Within capacity: every demand granted, weather is the only supply
    // term.  Bypassing water_fill entirely keeps the unconstrained plant
    // an exact identity (scale 1.0, offset == weather).
    for (std::size_t i = 0; i < n; ++i) {
      out[i].granted_watts = demands_watts[i];
      out[i].demand_scale = 1.0;
      out[i].supply_offset_c = weather;
    }
    return;
  }

  PowerBudgetCoordinator::water_fill(demands_watts, params_.capacity_watts,
                                     grants_);
  for (std::size_t i = 0; i < n; ++i) {
    const double demand = demands_watts[i];
    const double grant = grants_[i];
    out[i].granted_watts = grant;
    out[i].demand_scale =
        demand > 0.0 ? std::max(params_.min_demand_scale, grant / demand) : 1.0;
    const double unmet = std::max(0.0, demand - grant);
    out[i].supply_offset_c =
        weather + params_.unmet_celsius_per_kw * unmet / 1000.0;
  }
}

}  // namespace fsc
