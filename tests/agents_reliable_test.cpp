// Tests for the reliable request/reply protocol and the heartbeat
// failure detector — the two protocol layers the fault-tolerant control
// plane stacks on the lossy Message Center.
#include "pragma/agents/reliable.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "pragma/agents/heartbeat.hpp"

namespace pragma::agents {
namespace {

Message make(const PortId& from, const PortId& to,
             const std::string& type = "directive") {
  Message message;
  message.from = from;
  message.to = to;
  message.type = type;
  return message;
}

class ReliableChannelTest : public ::testing::Test {
 protected:
  void SetUp() override {
    center_.register_port("adm", [&](const Message& m) {
      adm_received_.push_back(m);
    });
    center_.register_port("agent", [&](const Message& m) {
      agent_received_.push_back(m);
    });
    channel_.make_endpoint("adm");
    channel_.make_endpoint("agent");
  }

  sim::Simulator simulator_;
  MessageCenter center_{simulator_, 1e-3};
  // timeout 0.5 s, backoff x2, at most 4 attempts.
  ReliableChannel channel_{simulator_, center_, ReliableConfig{0.5, 2.0, 4}};
  std::vector<Message> adm_received_;
  std::vector<Message> agent_received_;
};

TEST_F(ReliableChannelTest, DeliversAndAcksOnPerfectChannel) {
  const std::uint64_t seq = channel_.send(make("adm", "agent"));
  EXPECT_GT(seq, 0u);
  simulator_.run(5.0);
  ASSERT_EQ(agent_received_.size(), 1u);
  EXPECT_EQ(agent_received_[0].seq, seq);
  EXPECT_EQ(channel_.acked(), 1u);
  EXPECT_EQ(channel_.acks_sent(), 1u);
  EXPECT_EQ(channel_.retries(), 0u);
  EXPECT_EQ(channel_.in_flight(), 0u);
  EXPECT_TRUE(adm_received_.empty());  // the ack is protocol, not payload
}

TEST_F(ReliableChannelTest, RetriesWithBackoffUntilChannelHeals) {
  ChannelFaults lossy;
  lossy.drop_probability = 1.0;
  center_.set_faults(lossy, util::Rng(7));
  int acked_attempts = 0;
  channel_.set_ack_handler(
      [&](const Message&, int attempts) { acked_attempts = attempts; });
  channel_.send(make("adm", "agent"));
  // Attempts go out at t = 0, 0.5, 1.5, 3.5; heal the channel at t = 2 so
  // the fourth transmission is the one that lands.
  simulator_.schedule(2.0, [this] {
    center_.set_faults(ChannelFaults{}, util::Rng(7));
  });
  simulator_.run(10.0);
  ASSERT_EQ(agent_received_.size(), 1u);
  EXPECT_EQ(channel_.retries(), 3u);
  EXPECT_EQ(channel_.acked(), 1u);
  EXPECT_EQ(acked_attempts, 4);
  EXPECT_EQ(channel_.failed(), 0u);
  EXPECT_EQ(channel_.in_flight(), 0u);
}

TEST_F(ReliableChannelTest, FailsAfterMaxAttempts) {
  ChannelFaults dead;
  dead.drop_probability = 1.0;
  center_.set_faults(dead, util::Rng(7));
  Message failed_message;
  int failed_attempts = 0;
  channel_.set_failure_handler([&](const Message& m, int attempts) {
    failed_message = m;
    failed_attempts = attempts;
  });
  channel_.send(make("adm", "agent", "doomed"));
  simulator_.run(60.0);
  EXPECT_EQ(channel_.failed(), 1u);
  EXPECT_EQ(failed_attempts, 4);  // max_attempts transmissions, then give up
  EXPECT_EQ(failed_message.type, "doomed");
  EXPECT_EQ(channel_.acked(), 0u);
  EXPECT_EQ(channel_.in_flight(), 0u);
}

TEST_F(ReliableChannelTest, AbandonDestinationSkipsFailureHandler) {
  ChannelFaults dead;
  dead.drop_probability = 1.0;
  center_.set_faults(dead, util::Rng(7));
  int failures = 0;
  channel_.set_failure_handler([&](const Message&, int) { ++failures; });
  channel_.send(make("adm", "agent"));
  channel_.send(make("adm", "agent"));
  EXPECT_EQ(channel_.in_flight(), 2u);
  channel_.abandon_destination("agent");  // confirmed dead by the detector
  simulator_.run(60.0);
  EXPECT_EQ(channel_.abandoned(), 2u);
  EXPECT_EQ(channel_.failed(), 0u);
  EXPECT_EQ(failures, 0);
  EXPECT_EQ(channel_.in_flight(), 0u);
}

TEST_F(ReliableChannelTest, DuplicatesAckedButSuppressed) {
  ChannelFaults chatty;
  chatty.duplicate_probability = 1.0;  // every message arrives twice
  center_.set_faults(chatty, util::Rng(7));
  channel_.send(make("adm", "agent"));
  simulator_.run(10.0);
  ASSERT_EQ(agent_received_.size(), 1u);  // exactly-once to the application
  EXPECT_GE(channel_.duplicates_suppressed(), 1u);
  EXPECT_GE(channel_.acks_sent(), 2u);  // re-deliveries are re-acked
  EXPECT_EQ(channel_.acked(), 1u);
}

TEST_F(ReliableChannelTest, PlainTrafficPassesThroughEndpoints) {
  center_.send(make("adm", "agent", "gossip"));  // seq 0: not protocol
  simulator_.run(1.0);
  ASSERT_EQ(agent_received_.size(), 1u);
  EXPECT_EQ(agent_received_[0].type, "gossip");
  EXPECT_EQ(channel_.acks_sent(), 0u);
  EXPECT_EQ(channel_.duplicates_suppressed(), 0u);
}

class HeartbeatDetectorTest : public ::testing::Test {
 protected:
  static HeartbeatConfig config() {
    HeartbeatConfig config;
    config.period_s = 1.0;
    config.suspect_missed = 3;
    config.confirm_missed = 6;
    return config;
  }

  void beat(const PortId& member) {
    Message message;
    message.from = member;
    message.type = "heartbeat";
    center_.publish("hb", std::move(message));
  }

  sim::Simulator simulator_;
  MessageCenter center_{simulator_, 1e-3};
  HeartbeatDetector detector_{simulator_, center_, "hb", config()};
};

TEST_F(HeartbeatDetectorTest, SilenceEscalatesToSuspectThenConfirm) {
  double suspected_at = -1.0;
  double confirmed_at = -1.0;
  detector_.set_on_suspect(
      [&](const PortId&, double now) { suspected_at = now; });
  detector_.set_on_confirm(
      [&](const PortId&, double now) { confirmed_at = now; });
  detector_.watch("m");
  detector_.start();
  simulator_.run(20.0);
  EXPECT_EQ(detector_.liveness("m"), Liveness::kConfirmedDead);
  EXPECT_DOUBLE_EQ(suspected_at, 3.0);  // suspect_missed periods of silence
  EXPECT_DOUBLE_EQ(confirmed_at, 6.0);  // confirm_missed periods
  EXPECT_EQ(detector_.suspects_raised(), 1u);
  EXPECT_EQ(detector_.confirms(), 1u);
  EXPECT_EQ(detector_.unsuspects(), 0u);
}

TEST_F(HeartbeatDetectorTest, SteadyBeatsStayAlive) {
  detector_.watch("m");
  detector_.start();
  simulator_.schedule_periodic(1.0, [this] { beat("m"); });
  simulator_.run(20.0);
  EXPECT_EQ(detector_.liveness("m"), Liveness::kAlive);
  EXPECT_EQ(detector_.suspects_raised(), 0u);
  EXPECT_GE(detector_.beats_received(), 18u);
}

TEST_F(HeartbeatDetectorTest, ResumedBeatUnsuspects) {
  detector_.watch("m");
  detector_.start();
  simulator_.run(3.5);  // suspected at t = 3, not yet confirmed
  EXPECT_EQ(detector_.liveness("m"), Liveness::kSuspected);
  beat("m");
  simulator_.run(5.5);
  EXPECT_EQ(detector_.liveness("m"), Liveness::kAlive);
  EXPECT_EQ(detector_.unsuspects(), 1u);
  EXPECT_EQ(detector_.confirms(), 0u);
}

TEST_F(HeartbeatDetectorTest, BeatAfterConfirmCountsAsRecovery) {
  PortId recovered;
  detector_.set_on_recover(
      [&](const PortId& member, double) { recovered = member; });
  detector_.watch("m");
  detector_.start();
  simulator_.run(7.0);  // confirmed dead at t = 6
  EXPECT_EQ(detector_.liveness("m"), Liveness::kConfirmedDead);
  beat("m");
  simulator_.run(8.0);
  EXPECT_EQ(detector_.liveness("m"), Liveness::kAlive);
  EXPECT_EQ(detector_.recoveries(), 1u);
  EXPECT_EQ(recovered, "m");
}

TEST_F(HeartbeatDetectorTest, UnwatchedBeatsIgnored) {
  detector_.watch("m");
  detector_.start();
  beat("stranger");
  simulator_.run(1.0);
  EXPECT_EQ(detector_.beats_received(), 0u);
  EXPECT_EQ(detector_.liveness("stranger"), Liveness::kAlive);
}

TEST_F(HeartbeatDetectorTest, StopHaltsSweeps) {
  detector_.watch("m");
  detector_.start();
  simulator_.run(1.5);
  detector_.stop();
  simulator_.run(30.0);  // silence forever, but nobody is sweeping
  EXPECT_EQ(detector_.liveness("m"), Liveness::kAlive);
  EXPECT_EQ(detector_.suspects_raised(), 0u);
}

}  // namespace
}  // namespace pragma::agents
