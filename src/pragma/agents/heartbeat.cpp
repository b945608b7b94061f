#include "pragma/agents/heartbeat.hpp"

#include <stdexcept>
#include <utility>

#include "pragma/obs/flight_recorder.hpp"
#include "pragma/util/logging.hpp"

namespace pragma::agents {

std::string to_string(Liveness liveness) {
  switch (liveness) {
    case Liveness::kAlive:
      return "alive";
    case Liveness::kSuspected:
      return "suspected";
    case Liveness::kConfirmedDead:
      return "dead";
  }
  return "?";
}

HeartbeatDetector::HeartbeatDetector(sim::Simulator& simulator,
                                     MessageCenter& center,
                                     const std::string& topic,
                                     HeartbeatConfig config, PortId port)
    : simulator_(simulator),
      center_(center),
      config_(std::move(config)),
      port_(std::move(port)) {
  util::Status registered =
      center_.register_port(port_, [this](const Message& m) { on_beat(m); });
  if (!registered.is_ok())
    throw std::invalid_argument("HeartbeatDetector: " + registered.to_string());
  center_.subscribe(topic, port_);
}

void HeartbeatDetector::watch(const PortId& member) {
  members_[member] = Member{simulator_.now(), Liveness::kAlive};
}

void HeartbeatDetector::start() {
  if (running_) return;
  running_ = true;
  tick_ = simulator_.schedule_periodic(config_.period_s, [this] { sweep(); });
}

void HeartbeatDetector::stop() {
  if (!running_) return;
  running_ = false;
  simulator_.cancel(tick_);
}

void HeartbeatDetector::on_beat(const Message& message) {
  if (message.type != "heartbeat") return;
  const auto it = members_.find(message.from);
  if (it == members_.end()) return;  // not watched
  ++beats_;
  Member& member = it->second;
  member.last_beat = simulator_.now();
  if (member.state == Liveness::kSuspected) {
    member.state = Liveness::kAlive;
    ++unsuspects_;
    PRAGMA_FLIGHT(simulator_.now(), "liveness", "un-suspect ", message.from);
    util::log_debug("detector: un-suspecting ", message.from);
  } else if (member.state == Liveness::kConfirmedDead) {
    member.state = Liveness::kAlive;
    ++recoveries_;
    PRAGMA_FLIGHT(simulator_.now(), "liveness", "recovered ", message.from);
    util::log_debug("detector: ", message.from, " recovered");
    if (on_recover_) on_recover_(message.from, simulator_.now());
  }
}

void HeartbeatDetector::sweep() {
  const double now = simulator_.now();
  for (auto& [port, member] : members_) {
    if (member.state == Liveness::kConfirmedDead) continue;
    const double missed = (now - member.last_beat) / config_.period_s;
    if (member.state == Liveness::kAlive &&
        missed >= static_cast<double>(config_.suspect_missed)) {
      member.state = Liveness::kSuspected;
      ++suspects_;
      PRAGMA_FLIGHT(now, "liveness", "suspect ", port, " (", missed,
                    " missed periods)");
      util::log_debug("detector: suspecting ", port, " (", missed,
                      " missed periods)");
      if (on_suspect_) on_suspect_(port, now);
    }
    if (member.state == Liveness::kSuspected &&
        missed >= static_cast<double>(config_.confirm_missed)) {
      member.state = Liveness::kConfirmedDead;
      ++confirms_;
      PRAGMA_FLIGHT(now, "liveness", "confirm dead ", port);
      util::log_debug("detector: confirming ", port, " dead");
      if (on_confirm_) on_confirm_(port, now);
    }
  }
}

Liveness HeartbeatDetector::liveness(const PortId& member) const {
  const auto it = members_.find(member);
  if (it == members_.end()) return Liveness::kAlive;
  return it->second.state;
}

double HeartbeatDetector::last_beat(const PortId& member) const {
  const auto it = members_.find(member);
  if (it == members_.end()) return 0.0;
  return it->second.last_beat;
}

}  // namespace pragma::agents
