#include "coord/plenum.hpp"

#include <algorithm>
#include <cmath>

#include "util/units.hpp"

namespace fsc {

SharedPlenumModel::SharedPlenumModel(PlenumParams params,
                                     std::vector<double> base_inlet_celsius)
    : params_(params), base_inlet_celsius_(std::move(base_inlet_celsius)) {
  require(!base_inlet_celsius_.empty(), "SharedPlenumModel: need >= 1 slot");
  require(params_.recirculation_fraction >= 0.0,
          "SharedPlenumModel: recirculation fraction must be >= 0");
  require(params_.neighbor_decay >= 0.0 && params_.neighbor_decay <= 1.0,
          "SharedPlenumModel: neighbor decay must be in [0, 1]");
  require(params_.reference_fan_rpm > 0.0 && params_.watts_per_kelvin_at_ref > 0.0,
          "SharedPlenumModel: airflow normalisation must be > 0");
  require(params_.min_airflow_rpm > 0.0,
          "SharedPlenumModel: min airflow rpm must be > 0");
  require(params_.max_rise_celsius >= 0.0,
          "SharedPlenumModel: max rise must be >= 0");
  weight_.resize(base_inlet_celsius_.size());
  for (std::size_t d = 1; d < weight_.size(); ++d) {
    weight_[d] = params_.recirculation_fraction *
                 std::pow(params_.neighbor_decay, static_cast<double>(d - 1));
  }
}

double SharedPlenumModel::exhaust_rise(double cpu_watts, double fan_rpm) const {
  require(cpu_watts >= 0.0, "SharedPlenumModel: power must be >= 0");
  const double rpm = std::max(fan_rpm, params_.min_airflow_rpm);
  const double watts_per_kelvin =
      params_.watts_per_kelvin_at_ref * rpm / params_.reference_fan_rpm;
  return cpu_watts / watts_per_kelvin;
}

std::vector<double> SharedPlenumModel::inlet_temperatures(
    const std::vector<PlenumSlotState>& slots) const {
  // Local buffers: this overload must stay safe under concurrent callers.
  std::vector<double> rise;
  std::vector<double> inlets;
  compute_inlets(slots, rise, inlets);
  return inlets;
}

void SharedPlenumModel::inlet_temperatures(
    const std::vector<PlenumSlotState>& slots, std::vector<double>& out) const {
  compute_inlets(slots, rise_scratch_, out);
}

void SharedPlenumModel::compute_inlets(
    const std::vector<PlenumSlotState>& slots, std::vector<double>& rise,
    std::vector<double>& out) const {
  require(slots.size() == base_inlet_celsius_.size(),
          "SharedPlenumModel: slot state count must match rack size");
  rise.resize(slots.size());
  for (std::size_t j = 0; j < slots.size(); ++j) {
    rise[j] = exhaust_rise(slots[j].cpu_watts, slots[j].fan_rpm);
  }
  out.resize(slots.size());
  for (std::size_t i = 0; i < slots.size(); ++i) {
    double preheat = 0.0;
    for (std::size_t j = 0; j < slots.size(); ++j) {
      if (j == i) continue;
      const std::size_t d = i > j ? i - j : j - i;
      preheat += weight_[d] * rise[j];
    }
    out[i] = base_inlet_celsius_[i] +
             std::min(preheat, params_.max_rise_celsius);
  }
}

}  // namespace fsc
