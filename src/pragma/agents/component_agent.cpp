#include "pragma/agents/component_agent.hpp"

#include <stdexcept>
#include <utility>

#include "pragma/obs/flight_recorder.hpp"
#include "pragma/obs/tracer.hpp"
#include "pragma/util/logging.hpp"

namespace pragma::agents {

std::string to_string(ComponentState state) {
  switch (state) {
    case ComponentState::kRunning:
      return "running";
    case ComponentState::kSuspended:
      return "suspended";
    case ComponentState::kMigrating:
      return "migrating";
  }
  return "?";
}

ComponentAgent::ComponentAgent(sim::Simulator& simulator,
                               MessageCenter& center, PortId port,
                               std::string event_topic,
                               double sample_period_s)
    : simulator_(simulator),
      center_(center),
      port_(std::move(port)),
      event_topic_(std::move(event_topic)),
      period_(sample_period_s) {
  util::Status registered = center_.register_port(
      port_, [this](const Message& m) { on_message(m); });
  if (!registered.is_ok())
    throw std::invalid_argument("ComponentAgent: " + registered.to_string());
}

void ComponentAgent::add_sensor(Sensor sensor) {
  sensors_.push_back(std::move(sensor));
}

void ComponentAgent::add_actuator(Actuator actuator) {
  actuators_[actuator.name] = std::move(actuator);
}

void ComponentAgent::add_rule(ThresholdRule rule) {
  rules_.push_back(std::move(rule));
  rule_last_fired_.push_back(-1e300);
}

void ComponentAgent::set_liveness(std::function<bool()> alive) {
  alive_ = std::move(alive);
}

void ComponentAgent::enable_heartbeat(std::string topic, double period_s) {
  heartbeat_topic_ = std::move(topic);
  heartbeat_period_s_ = period_s;
  if (running_ && heartbeat_period_s_ > 0.0)
    heartbeat_tick_ = simulator_.schedule_periodic(
        heartbeat_period_s_, [this] { heartbeat(); }, /*first_delay=*/0.0);
}

void ComponentAgent::start() {
  if (running_) return;
  running_ = true;
  tick_ = simulator_.schedule_periodic(period_, [this] { sample(); },
                                       /*first_delay=*/0.0);
  if (heartbeat_period_s_ > 0.0 && !heartbeat_topic_.empty())
    heartbeat_tick_ = simulator_.schedule_periodic(
        heartbeat_period_s_, [this] { heartbeat(); }, /*first_delay=*/0.0);
}

void ComponentAgent::stop() {
  if (!running_) return;
  running_ = false;
  simulator_.cancel(tick_);
  simulator_.cancel(heartbeat_tick_);
}

void ComponentAgent::heartbeat() {
  if (alive_ && !alive_()) return;  // a dead node's agent is silent
  Message beat;
  beat.from = port_;
  beat.type = "heartbeat";
  center_.publish(heartbeat_topic_, std::move(beat));
}

std::optional<double> ComponentAgent::last_reading(
    const std::string& sensor) const {
  const auto it = readings_.find(sensor);
  if (it == readings_.end()) return std::nullopt;
  return it->second;
}

void ComponentAgent::sample() {
  if (state_ == ComponentState::kSuspended) return;
  if (alive_ && !alive_()) return;  // host node is down
  PRAGMA_SPAN_VAR(span, "agents", "ComponentAgent.sample");
  span.annotate("component", port_);
  for (const Sensor& sensor : sensors_) readings_[sensor.name] = sensor.read();

  for (std::size_t r = 0; r < rules_.size(); ++r) {
    const ThresholdRule& rule = rules_[r];
    const auto it = readings_.find(rule.sensor);
    if (it == readings_.end()) continue;
    const double value = it->second;
    const bool fired = rule.trigger_above ? value >= rule.threshold
                                          : value <= rule.threshold;
    if (!fired) continue;
    if (simulator_.now() - rule_last_fired_[r] < rule.cooldown_s) continue;
    rule_last_fired_[r] = simulator_.now();

    // "Local state information is published to the message-center": the
    // agent provides an application-specific semantic interpretation of
    // the raw reading.
    Message event;
    event.from = port_;
    event.type = rule.event_type;
    event.payload["component"] = policy::Value{port_};
    event.payload["sensor"] = policy::Value{rule.sensor};
    event.payload["value"] = policy::Value{value};
    center_.publish(event_topic_, std::move(event));
    ++events_;
    util::log_debug("agent ", port_, " published ", rule.event_type, " (",
                    rule.sensor, "=", value, ")");
  }
}

void ComponentAgent::on_message(const Message& message) {
  // Interrogation: "allows application components to be interrogated ...
  // at runtime".  A query is answered with the latest sensor readings and
  // lifecycle state, addressed back to the asking port.
  if (message.type == "query") {
    Message reply;
    reply.from = port_;
    reply.to = message.from;
    reply.type = "query_reply";
    reply.payload["component"] = policy::Value{port_};
    reply.payload["state"] = policy::Value{to_string(state_)};
    for (const auto& [name, value] : readings_)
      reply.payload[name] = policy::Value{value};
    center_.send(std::move(reply));
    return;
  }

  // Directives are autonomous-compliance: "the only requirement is that the
  // ADM recommendations be complied with".
  if (message.type == "suspend") {
    state_ = ComponentState::kSuspended;
  } else if (message.type == "resume") {
    state_ = ComponentState::kRunning;
  } else if (message.type == "migrate") {
    state_ = ComponentState::kMigrating;
  }
  const auto it = actuators_.find(message.type);
  if (it != actuators_.end()) {
    {
      PRAGMA_SPAN_VAR(span, "agents", "ComponentAgent.actuate");
      span.annotate("component", port_);
      span.annotate("directive", message.type);
      it->second.apply(message.payload);
    }
    ++directives_;
    PRAGMA_FLIGHT(simulator_.now(), "directive", port_, " applied ",
                  message.type);
    if (message.type == "migrate") state_ = ComponentState::kRunning;
  } else if (message.type == "suspend" || message.type == "resume" ||
             message.type == "migrate") {
    // Built-in lifecycle transitions count as applied even without a
    // custom actuator.
    ++directives_;
    PRAGMA_FLIGHT(simulator_.now(), "directive", port_, " applied ",
                  message.type);
    if (message.type == "migrate") state_ = ComponentState::kRunning;
  }
}

}  // namespace pragma::agents
