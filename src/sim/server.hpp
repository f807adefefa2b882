// The simulated enterprise server: physics (power + thermal), actuator,
// and the non-ideal measurement pipeline, assembled per Table I.
//
// The Server exposes exactly what a BMC would see (the lagged, quantized
// measurement) plus — for metrics only — the true junction temperature.
// Controllers must never read the latter; the simulation runner enforces
// that separation by handing policies only the measured value.
#pragma once

#include "actuator/fan_actuator.hpp"
#include "power/cpu_power.hpp"
#include "power/energy_meter.hpp"
#include "power/fan_power.hpp"
#include "sensor/sensor_chain.hpp"
#include "thermal/junction_meter.hpp"
#include "thermal/server_thermal_model.hpp"
#include "util/rng.hpp"

namespace fsc {

/// Full plant configuration.
struct ServerParams {
  CpuPowerModel cpu_power = CpuPowerModel::table1_defaults();
  FanPowerModel fan_power = FanPowerModel::table1_defaults();
  ServerThermalModel thermal = ServerThermalModel::table1_defaults();
  FanParams fan;
  SensorChainParams sensor;
};

/// The simulated server.
class Server {
 public:
  /// Build with an initial fan speed; the plant starts at thermal
  /// equilibrium for zero utilization at that speed, and the sensor
  /// pipeline is pre-loaded with the equilibrium temperature.
  Server(ServerParams params, double initial_fan_rpm, Rng& rng);

  /// All-defaults server (Table I), initial fan at 2000 rpm.
  static Server table1_defaults(Rng& rng);

  /// Command a new fan speed (the actuator slews toward it).
  void command_fan(double rpm) noexcept { actuator_.command(rpm); }

  /// Advance physics by `dt` seconds with the CPU executing utilization
  /// `u_executed`.  Updates thermal state, fan dynamics, sensing, and
  /// energy and junction accounting.
  void step(double u_executed, double dt);

  /// Settle the whole plant (thermal + sensor pipeline) at an operating
  /// point; the actuator jumps to the speed instantly.
  void settle(double u_executed, double fan_rpm);

  /// Batched-stepping mirror, once per control period: the SoA kernel
  /// (batch/server_batch.hpp) has advanced this server's actuator and
  /// thermal plant with the same expressions step() uses; adopt the
  /// resulting state.  The sensor phase and the energy and junction
  /// accumulators come back separately through sensor_chain(),
  /// energy_meter() and junction_meter() (batch/lane_accounting.hpp),
  /// after which the Server is indistinguishable from one advanced by
  /// step().
  void adopt_plant_state(double fan_rpm, double heat_sink_celsius,
                         double junction_celsius) noexcept {
    actuator_.adopt_speed(fan_rpm);
    params_.thermal.set_state(heat_sink_celsius, junction_celsius);
  }

  /// Batched-driver access to the per-substep accumulators, which live in
  /// SoA lanes between control-period boundaries on the batched path.
  SensorChain& sensor_chain() noexcept { return sensor_; }
  const SensorChain& sensor_chain() const noexcept { return sensor_; }
  EnergyMeter& energy_meter() noexcept { return energy_; }
  JunctionMeter& junction_meter() noexcept { return junction_; }

  /// The measurement the firmware sees (lagged + quantized).
  double measured_temp() const noexcept { return sensor_.read(); }

  /// ADC step of the measurement pipeline (|T_Q| for Eqn. 10).
  double quantization_step() const noexcept { return sensor_.quantization_step(); }

  /// Ground truth, for metrics only.
  double true_junction() const noexcept { return params_.thermal.junction(); }
  double true_heat_sink() const noexcept {
    return params_.thermal.heat_sink_temperature();
  }

  /// Actuator state.
  double fan_speed_actual() const noexcept { return actuator_.speed(); }
  double fan_speed_commanded() const noexcept { return actuator_.commanded(); }
  /// Target and slew the actuator moves by under its fault mode
  /// (FanActuator::drive) — the batched kernel's per-period fan input.
  FanDrive fan_drive() const noexcept { return actuator_.drive(); }

  /// Shared-plenum coupling: retarget the heat-sink inlet air temperature
  /// mid-run (one server's exhaust preheating its neighbors' intake).  The
  /// plant relaxes toward the new ambient over subsequent steps.
  void set_inlet_temperature(double celsius) noexcept {
    params_.thermal.set_ambient(celsius);
  }
  double inlet_temperature() const noexcept {
    return params_.thermal.params().ambient_celsius;
  }

  /// Instantaneous power at the current state and given utilization.
  double cpu_power_now(double u_executed) const noexcept {
    return params_.cpu_power.power(u_executed);
  }
  double fan_power_now() const noexcept {
    return params_.fan_power.power(actuator_.speed());
  }

  /// Cumulative energy accounting since construction / last reset.
  const EnergyMeter& energy() const noexcept { return energy_; }
  void reset_energy() noexcept { energy_.reset(); }

  /// True-junction statistics and time above the limit since the last
  /// reset_junction() (Session resets it with the run's thermal limit).
  const JunctionMeter& junction() const noexcept { return junction_; }
  void reset_junction(double limit_celsius) noexcept {
    junction_.reset(limit_celsius);
  }

  /// Fault forwarding (fault/fault_injector.hpp arms these at coordination
  /// barriers).  Faulted components change only their own behavior, and
  /// the batched path sees both through the Server: a sensor fault acts in
  /// SensorChain::take_sample, which the lane accounting calls at sample
  /// instants, and a fan fault is the fan_drive() the kernel slews by.
  void set_sensor_fault(SensorFaultMode mode, double value) {
    sensor_.set_fault(mode, value);
  }
  void clear_sensor_fault() noexcept { sensor_.clear_fault(); }
  SensorFaultMode sensor_fault() const noexcept { return sensor_.fault(); }
  void set_fan_fault(FanFaultMode mode, double value) {
    actuator_.set_fault(mode, value);
  }
  void clear_fan_fault() noexcept { actuator_.clear_fault(); }
  FanFaultMode fan_fault() const noexcept { return actuator_.fault(); }

  const ServerParams& params() const noexcept { return params_; }

 private:
  ServerParams params_;
  FanActuator actuator_;
  SensorChain sensor_;
  EnergyMeter energy_;
  JunctionMeter junction_;
};

}  // namespace fsc
