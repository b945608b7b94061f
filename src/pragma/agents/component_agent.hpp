// Component Agents: per-component monitoring and actuation (Section 3.4.1).
//
// "For each task/component in the application, the ADM launches an
//  appropriate Component Agent (CA) to monitor execution using appropriate
//  component sensors.  The CA intervenes whenever component execution on
//  the assigned machine cannot meet its requirements using component
//  actuators that can suspend, save component execution state, or migrate
//  the component execution to another machine."
//
// Sensors and actuators are plain callbacks so that they can be embedded
// with the application's data structures (Section 3.4.2): a sensor reads a
// scalar ("load", "bandwidth", ...); an actuator applies a directive.
#pragma once

#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "pragma/agents/message_center.hpp"
#include "pragma/sim/simulator.hpp"

namespace pragma::agents {

/// A named scalar sensor embedded in the application or system software.
struct Sensor {
  std::string name;
  std::function<double()> read;
};

/// A named actuator; receives the directive payload.
struct Actuator {
  std::string name;  // "suspend", "resume", "migrate", "repartition", ...
  std::function<void(const policy::AttributeSet&)> apply;
};

/// A local threshold rule: when `sensor` crosses `threshold` in the given
/// direction, publish `event_type` to the event topic.
struct ThresholdRule {
  std::string sensor;
  double threshold = 0.0;
  bool trigger_above = true;  ///< true: fire when reading >= threshold
  std::string event_type;     ///< e.g. "load_high"
  /// Minimum simulated seconds between consecutive firings (debounce).
  double cooldown_s = 5.0;
};

/// Lifecycle state of the managed component.
enum class ComponentState { kRunning, kSuspended, kMigrating };

[[nodiscard]] std::string to_string(ComponentState state);

class ComponentAgent {
 public:
  /// `port` is this agent's mailbox; events publish to `event_topic`.
  ComponentAgent(sim::Simulator& simulator, MessageCenter& center,
                 PortId port, std::string event_topic,
                 double sample_period_s = 2.0);

  void add_sensor(Sensor sensor);
  void add_actuator(Actuator actuator);
  void add_rule(ThresholdRule rule);

  /// Gate the agent on its host's liveness: when `alive` returns false the
  /// agent neither samples nor publishes (a CA dies with its node — it
  /// cannot keep reporting from a failed machine).
  void set_liveness(std::function<bool()> alive);

  /// Publish periodic "heartbeat" messages to `topic` every `period_s`
  /// (started/stopped with the agent).  The failure detector subscribes to
  /// the topic; a silent agent is eventually suspected and confirmed dead.
  void enable_heartbeat(std::string topic, double period_s);

  /// Begin periodic sensing.
  void start();
  void stop();

  [[nodiscard]] const PortId& port() const { return port_; }
  [[nodiscard]] ComponentState state() const { return state_; }
  [[nodiscard]] std::size_t events_published() const { return events_; }
  [[nodiscard]] std::size_t directives_applied() const { return directives_; }

  /// Latest reading of a sensor (sampled at the last tick), if any.
  [[nodiscard]] std::optional<double> last_reading(
      const std::string& sensor) const;

 private:
  void on_message(const Message& message);
  void sample();
  void heartbeat();

  sim::Simulator& simulator_;
  MessageCenter& center_;
  PortId port_;
  std::string event_topic_;
  double period_;
  std::vector<Sensor> sensors_;
  std::map<std::string, Actuator> actuators_;
  std::vector<ThresholdRule> rules_;
  std::vector<double> rule_last_fired_;
  std::map<std::string, double> readings_;
  ComponentState state_ = ComponentState::kRunning;
  sim::EventHandle tick_;
  bool running_ = false;
  std::size_t events_ = 0;
  std::size_t directives_ = 0;
  std::function<bool()> alive_;
  std::string heartbeat_topic_;
  double heartbeat_period_s_ = 0.0;
  sim::EventHandle heartbeat_tick_;
};

}  // namespace pragma::agents
