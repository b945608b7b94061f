// The Message Center: per-component mailboxes plus publish/subscribe.
//
// Delivery runs through the shared discrete-event simulator with a
// configurable latency, so agent coordination interleaves realistically
// with monitoring and load dynamics.  Ports either attach a handler
// (push delivery) or poll their mailbox (pull delivery).
//
// The channel is perfect by default.  An optional ChannelFaults model
// turns it into a lossy network: messages may be dropped, duplicated,
// delayed by random jitter, or blocked by a reachability predicate (the
// embedding runtime ties the predicate to cluster node state, so a dead
// or partitioned node's agents go silent).  All randomness flows through
// an explicitly seeded util::Rng, and the default (fault-free) path draws
// nothing, so existing seeded runs replay bit-identically.
#pragma once

#include <deque>
#include <functional>
#include <map>
#include <vector>

#include "pragma/agents/message.hpp"
#include "pragma/util/rng.hpp"
#include "pragma/util/status.hpp"

namespace pragma::agents {

/// The random part of the channel fault model.
struct ChannelNoise {
  /// Probability an accepted message is silently lost in transit.
  double drop_probability = 0.0;
  /// Probability an accepted message is delivered twice.
  double duplicate_probability = 0.0;
  /// Extra delivery latency, uniform in [0, jitter_s] per copy; values
  /// larger than the base latency reorder concurrent messages.
  double jitter_s = 0.0;
};

/// Fault model for the control channel.  Default-constructed = perfect
/// channel (no random draws, identical behavior to the original center).
struct ChannelFaults : ChannelNoise {
  /// When set, a message is dropped unless reachable(from, to) — used to
  /// model node death and network partitions.  Unreachability is charged
  /// to partition_dropped, not to the random-loss counter.
  std::function<bool(const PortId& from, const PortId& to)> reachable;

  [[nodiscard]] bool any() const {
    return drop_probability > 0.0 || duplicate_probability > 0.0 ||
           jitter_s > 0.0 || static_cast<bool>(reachable);
  }
};

class MessageCenter {
 public:
  using Handler = std::function<void(const Message&)>;
  /// Pre-delivery hook (reliable-protocol layer).  Returns true when the
  /// message was consumed (ack, suppressed duplicate) and must not reach
  /// the port's handler or mailbox.
  using Interceptor = std::function<bool(const Message&)>;

  MessageCenter(sim::Simulator& simulator, double delivery_latency_s = 1e-3);

  /// Create a port.  A null handler makes it poll-only.  Attaching a
  /// handler to an existing poll-only port is allowed and preserves the
  /// queued mailbox: messages received while the port was poll-only are
  /// handed to the new handler in FIFO order.  Registering over a port
  /// that already has a handler returns failed-precondition and leaves the
  /// existing registration untouched — with several runs multiplexed over
  /// one center, a name collision must surface instead of silently
  /// stealing another run's traffic.
  util::Status register_port(const PortId& port, Handler handler = nullptr);

  /// Remove a port.  Messages still queued in its mailbox are counted as
  /// dropped; in-flight messages addressed to it will also drop on
  /// delivery.  Topic subscriptions are left in place (publishes to the
  /// gone port count against dropped_ like any unknown-port send).
  void unregister_port(const PortId& port);

  [[nodiscard]] bool has_port(const PortId& port) const;

  /// Install a pre-delivery interceptor for a port (see Interceptor).
  /// The port must exist.
  void set_interceptor(const PortId& port, Interceptor interceptor);

  /// Activate a channel fault model.  `rng` must be an explicitly seeded
  /// stream so faulty runs stay reproducible.
  void set_faults(ChannelFaults faults, util::Rng rng);
  [[nodiscard]] const ChannelFaults& faults() const { return faults_; }

  /// Send to a port's mailbox.  Returns false if the port does not exist
  /// (the message is dropped and counted).  Random channel loss still
  /// returns true: an unreliable sender cannot observe the loss.
  bool send(Message message);

  /// Publish to a topic: delivered to every subscriber's mailbox with
  /// message.to rewritten to the subscriber port.
  void publish(const std::string& topic, Message message);
  void subscribe(const std::string& topic, const PortId& port);

  /// Drain a poll-only mailbox (also works for handler ports, which will
  /// normally be empty).
  [[nodiscard]] std::vector<Message> drain(const PortId& port);

  [[nodiscard]] std::size_t sent_count() const { return sent_; }
  [[nodiscard]] std::size_t delivered_count() const { return delivered_; }
  [[nodiscard]] std::size_t dropped_count() const { return dropped_; }
  /// Messages lost to random channel faults (drop_probability).
  [[nodiscard]] std::size_t fault_dropped_count() const {
    return fault_dropped_;
  }
  /// Messages blocked because the reachability predicate said no.
  [[nodiscard]] std::size_t partition_dropped_count() const {
    return partition_dropped_;
  }
  /// Extra copies injected by the duplication fault.
  [[nodiscard]] std::size_t duplicated_count() const { return duplicated_; }

 private:
  struct Port {
    Handler handler;
    Interceptor interceptor;
    std::deque<Message> mailbox;
  };
  void deliver(const PortId& port, Message message);
  void schedule_delivery(Message message);

  sim::Simulator& simulator_;
  double latency_;
  std::map<PortId, Port> ports_;
  std::map<std::string, std::vector<PortId>> topics_;
  ChannelFaults faults_;
  util::Rng fault_rng_;
  bool faults_active_ = false;
  std::size_t sent_ = 0;
  std::size_t delivered_ = 0;
  std::size_t dropped_ = 0;
  std::size_t fault_dropped_ = 0;
  std::size_t partition_dropped_ = 0;
  std::size_t duplicated_ = 0;
};

}  // namespace pragma::agents
