#include "sim/server.hpp"

#include "util/units.hpp"

namespace fsc {

Server::Server(ServerParams params, double initial_fan_rpm, Rng& rng)
    : params_(std::move(params)),
      actuator_(params_.fan, initial_fan_rpm),
      sensor_(params_.sensor, AdcQuantizer::table1_temperature_adc(), rng) {
  settle(0.0, actuator_.speed());
}

Server Server::table1_defaults(Rng& rng) {
  return Server(ServerParams{}, 2000.0, rng);
}

void Server::step(double u_executed, double dt) {
  require(dt >= 0.0, "Server::step: dt must be >= 0");
  const double u = clamp_utilization(u_executed);
  actuator_.step(dt);
  const double p_cpu = params_.cpu_power.power(u);
  const double rpm = actuator_.speed();
  const double p_fan = params_.fan_power.power(rpm);
  params_.thermal.step(p_cpu, rpm, dt);
  sensor_.observe(params_.thermal.junction(), dt);
  energy_.accumulate(p_cpu, p_fan, dt);
  junction_.add(params_.thermal.junction(), dt);
}

void Server::settle(double u_executed, double fan_rpm) {
  const double u = clamp_utilization(u_executed);
  // Jump the actuator by rebuilding it at the target speed (the public
  // interface only slews).
  actuator_ = FanActuator(params_.fan, fan_rpm);
  actuator_.command(fan_rpm);
  const double p_cpu = params_.cpu_power.power(u);
  params_.thermal.settle(p_cpu, actuator_.speed());
  sensor_.reset(params_.thermal.junction());
}

}  // namespace fsc
