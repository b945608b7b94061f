// Heartbeat failure detection for the control network.
//
// Component agents publish periodic heartbeats to a topic; this detector
// subscribes to the topic it is constructed with and classifies each
// watched member by the number of missed periods: alive -> suspected
// (after suspect_missed periods of silence) -> confirmed dead (after
// confirm_missed).  A beat from a suspected member un-suspects it
// (counted, so a soak harness can derive the false-suspect rate); a beat
// from a confirmed-dead member counts as a recovery.  This replaces the
// oracle liveness feed the ADM previously relied on: node death is
// *detected* from silence, with latency the runtime must pay for.
#pragma once

#include <cstddef>
#include <functional>
#include <map>
#include <string>

#include "pragma/agents/message_center.hpp"

namespace pragma::agents {

/// Publishing and detection cadence.
struct HeartbeatConfig {
  /// Expected publishing period; the sweep runs at the same cadence.
  double period_s = 1.0;
  /// Missed periods before a member is suspected.
  int suspect_missed = 5;
  /// Missed periods before a suspected member is confirmed dead.
  int confirm_missed = 10;
};

/// Detector's view of one watched member.
enum class Liveness { kAlive, kSuspected, kConfirmedDead };

[[nodiscard]] std::string to_string(Liveness liveness);

class HeartbeatDetector {
 public:
  using Callback = std::function<void(const PortId& member, double time)>;

  /// Listens on `topic` for the beats of its watched members.
  HeartbeatDetector(sim::Simulator& simulator, MessageCenter& center,
                    const std::string& topic, HeartbeatConfig config = {},
                    PortId port = "hb.detector");

  /// Start watching a member port (granted a full grace window from now).
  void watch(const PortId& member);

  /// Begin periodic sweeps.
  void start();
  void stop();

  void set_on_suspect(Callback callback) { on_suspect_ = std::move(callback); }
  void set_on_confirm(Callback callback) { on_confirm_ = std::move(callback); }
  void set_on_recover(Callback callback) { on_recover_ = std::move(callback); }

  [[nodiscard]] Liveness liveness(const PortId& member) const;
  [[nodiscard]] double last_beat(const PortId& member) const;
  [[nodiscard]] const HeartbeatConfig& config() const { return config_; }
  [[nodiscard]] const PortId& port() const { return port_; }

  [[nodiscard]] std::size_t beats_received() const { return beats_; }
  [[nodiscard]] std::size_t suspects_raised() const { return suspects_; }
  /// Suspects cleared by a resumed heartbeat before confirmation.
  [[nodiscard]] std::size_t unsuspects() const { return unsuspects_; }
  [[nodiscard]] std::size_t confirms() const { return confirms_; }
  /// Confirmed-dead members that resumed beating.
  [[nodiscard]] std::size_t recoveries() const { return recoveries_; }

 private:
  struct Member {
    double last_beat = 0.0;
    Liveness state = Liveness::kAlive;
  };
  void on_beat(const Message& message);
  void sweep();

  sim::Simulator& simulator_;
  MessageCenter& center_;
  HeartbeatConfig config_;
  PortId port_;
  std::map<PortId, Member> members_;
  sim::EventHandle tick_;
  bool running_ = false;
  Callback on_suspect_;
  Callback on_confirm_;
  Callback on_recover_;
  std::size_t beats_ = 0;
  std::size_t suspects_ = 0;
  std::size_t unsuspects_ = 0;
  std::size_t confirms_ = 0;
  std::size_t recoveries_ = 0;
};

}  // namespace pragma::agents
