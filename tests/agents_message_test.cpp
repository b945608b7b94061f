#include "pragma/agents/message_center.hpp"

#include <gtest/gtest.h>

namespace pragma::agents {
namespace {

Message make(const PortId& from, const PortId& to,
             const std::string& type = "ping") {
  Message message;
  message.from = from;
  message.to = to;
  message.type = type;
  return message;
}

class MessageCenterTest : public ::testing::Test {
 protected:
  sim::Simulator simulator_;
  MessageCenter center_{simulator_, 1e-3};
};

TEST_F(MessageCenterTest, RegisterAndQueryPorts) {
  EXPECT_FALSE(center_.has_port("a"));
  center_.register_port("a");
  EXPECT_TRUE(center_.has_port("a"));
}

TEST_F(MessageCenterTest, HandlerReceivesMessage) {
  std::vector<Message> received;
  center_.register_port("a", [&](const Message& m) { received.push_back(m); });
  center_.register_port("b");
  EXPECT_TRUE(center_.send(make("b", "a", "hello")));
  simulator_.run();
  ASSERT_EQ(received.size(), 1u);
  EXPECT_EQ(received[0].type, "hello");
  EXPECT_EQ(received[0].from, "b");
}

TEST_F(MessageCenterTest, DeliveryHasLatency) {
  double delivered_at = -1.0;
  center_.register_port("a", [&](const Message&) {
    delivered_at = simulator_.now();
  });
  center_.send(make("x", "a"));
  simulator_.run();
  EXPECT_DOUBLE_EQ(delivered_at, 1e-3);
}

TEST_F(MessageCenterTest, UnknownPortDropsAndCounts) {
  EXPECT_FALSE(center_.send(make("a", "nowhere")));
  EXPECT_EQ(center_.dropped_count(), 1u);
  EXPECT_EQ(center_.delivered_count(), 0u);
}

TEST_F(MessageCenterTest, PollPortQueuesUntilDrained) {
  center_.register_port("mailbox");
  center_.send(make("x", "mailbox", "m1"));
  center_.send(make("x", "mailbox", "m2"));
  simulator_.run();
  auto messages = center_.drain("mailbox");
  ASSERT_EQ(messages.size(), 2u);
  EXPECT_EQ(messages[0].type, "m1");  // FIFO order
  EXPECT_EQ(messages[1].type, "m2");
  EXPECT_TRUE(center_.drain("mailbox").empty());
}

TEST_F(MessageCenterTest, FifoPerPortUnderInterleaving) {
  center_.register_port("mailbox");
  for (int i = 0; i < 20; ++i)
    center_.send(
        make("x", "mailbox", std::string("m").append(std::to_string(i))));
  simulator_.run();
  const auto messages = center_.drain("mailbox");
  ASSERT_EQ(messages.size(), 20u);
  for (int i = 0; i < 20; ++i)
    EXPECT_EQ(messages[i].type, std::string("m").append(std::to_string(i)));
}

TEST_F(MessageCenterTest, PublishReachesAllSubscribers) {
  int a_count = 0;
  int b_count = 0;
  center_.register_port("a", [&](const Message&) { ++a_count; });
  center_.register_port("b", [&](const Message&) { ++b_count; });
  center_.subscribe("events", "a");
  center_.subscribe("events", "b");
  center_.publish("events", make("x", "", "event"));
  simulator_.run();
  EXPECT_EQ(a_count, 1);
  EXPECT_EQ(b_count, 1);
}

TEST_F(MessageCenterTest, PublishRewritesDestination) {
  Message seen;
  center_.register_port("a", [&](const Message& m) { seen = m; });
  center_.subscribe("topic", "a");
  center_.publish("topic", make("x", "", "e"));
  simulator_.run();
  EXPECT_EQ(seen.to, "a");
}

TEST_F(MessageCenterTest, DuplicateSubscriptionIgnored) {
  int count = 0;
  center_.register_port("a", [&](const Message&) { ++count; });
  center_.subscribe("topic", "a");
  center_.subscribe("topic", "a");
  center_.publish("topic", make("x", "", "e"));
  simulator_.run();
  EXPECT_EQ(count, 1);
}

TEST_F(MessageCenterTest, PublishToUnknownTopicIsNoop) {
  center_.publish("ghost-topic", make("x", "", "e"));
  simulator_.run();
  EXPECT_EQ(center_.sent_count(), 0u);
}

TEST_F(MessageCenterTest, CountsConsistent) {
  center_.register_port("a");
  center_.send(make("x", "a"));
  center_.send(make("x", "missing"));
  simulator_.run();
  EXPECT_EQ(center_.sent_count(), 2u);
  EXPECT_EQ(center_.delivered_count(), 1u);
  EXPECT_EQ(center_.dropped_count(), 1u);
}

TEST_F(MessageCenterTest, SentAtStampsSimTime) {
  center_.register_port("a");
  simulator_.schedule(5.0, [this] { center_.send(make("x", "a")); });
  simulator_.run();
  const auto messages = center_.drain("a");
  ASSERT_EQ(messages.size(), 1u);
  EXPECT_DOUBLE_EQ(messages[0].sent_at, 5.0);
}

// Regression: re-registering a poll-only port with a handler used to
// default-construct a fresh Port and strand the queued mailbox.
TEST_F(MessageCenterTest, ReregistrationFlushesQueuedMailbox) {
  center_.register_port("a");  // poll-only
  center_.send(make("x", "a", "m1"));
  center_.send(make("x", "a", "m2"));
  simulator_.run();
  std::vector<std::string> seen;
  center_.register_port("a", [&](const Message& m) { seen.push_back(m.type); });
  ASSERT_EQ(seen.size(), 2u);  // flushed immediately, FIFO
  EXPECT_EQ(seen[0], "m1");
  EXPECT_EQ(seen[1], "m2");
  EXPECT_TRUE(center_.drain("a").empty());
  // New traffic goes straight to the handler.
  center_.send(make("x", "a", "m3"));
  simulator_.run();
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen[2], "m3");
}

TEST_F(MessageCenterTest, ReregistrationAsPollOnlyKeepsMailbox) {
  center_.register_port("a");
  center_.send(make("x", "a", "m1"));
  simulator_.run();
  center_.register_port("a");  // still poll-only: nothing to flush to
  const auto messages = center_.drain("a");
  ASSERT_EQ(messages.size(), 1u);
  EXPECT_EQ(messages[0].type, "m1");
}

TEST_F(MessageCenterTest, UnregisterCountsQueuedAndInFlightAsDropped) {
  center_.register_port("a");
  center_.send(make("x", "a", "queued"));
  simulator_.run();  // lands in the mailbox
  center_.send(make("x", "a", "in-flight"));
  center_.unregister_port("a");
  EXPECT_FALSE(center_.has_port("a"));
  EXPECT_EQ(center_.dropped_count(), 1u);  // queued message lost with port
  simulator_.run();                        // in-flight copy now delivers...
  EXPECT_EQ(center_.dropped_count(), 2u);  // ...to a gone port
  EXPECT_EQ(center_.delivered_count(), 1u);
}

TEST_F(MessageCenterTest, UnregisterUnknownPortIsNoop) {
  center_.unregister_port("ghost");
  EXPECT_EQ(center_.dropped_count(), 0u);
}

TEST_F(MessageCenterTest, PublishToUnregisteredSubscriberCountsDropped) {
  int received = 0;
  center_.register_port("a", [&](const Message&) { ++received; });
  center_.register_port("b", [&](const Message&) { ++received; });
  center_.subscribe("topic", "a");
  center_.subscribe("topic", "b");
  center_.unregister_port("b");  // subscription left in place
  center_.publish("topic", make("x", "", "e"));
  simulator_.run();
  EXPECT_EQ(received, 1);  // only "a"
  EXPECT_EQ(center_.dropped_count(), 1u);
  EXPECT_EQ(center_.sent_count(), 2u);
}

TEST_F(MessageCenterTest, DrainOnHandlerPortIsEmpty) {
  int handled = 0;
  center_.register_port("a", [&](const Message&) { ++handled; });
  center_.send(make("x", "a"));
  simulator_.run();
  EXPECT_EQ(handled, 1);
  EXPECT_TRUE(center_.drain("a").empty());  // handler consumed it
  EXPECT_TRUE(center_.drain("missing").empty());
}

TEST_F(MessageCenterTest, DefaultFaultsAreInert) {
  EXPECT_FALSE(ChannelFaults{}.any());
  EXPECT_FALSE(center_.faults().any());
}

TEST_F(MessageCenterTest, DropFaultLosesMessagesSilently) {
  ChannelFaults faults;
  faults.drop_probability = 1.0;
  center_.set_faults(faults, util::Rng(7));
  int received = 0;
  center_.register_port("a", [&](const Message&) { ++received; });
  for (int i = 0; i < 5; ++i)
    EXPECT_TRUE(center_.send(make("x", "a")));  // sender cannot observe loss
  simulator_.run();
  EXPECT_EQ(received, 0);
  EXPECT_EQ(center_.fault_dropped_count(), 5u);
  EXPECT_EQ(center_.delivered_count(), 0u);
  EXPECT_EQ(center_.dropped_count(), 0u);  // not an addressing failure
}

TEST_F(MessageCenterTest, DuplicateFaultDeliversExtraCopies) {
  ChannelFaults faults;
  faults.duplicate_probability = 1.0;
  center_.set_faults(faults, util::Rng(7));
  int received = 0;
  center_.register_port("a", [&](const Message&) { ++received; });
  center_.send(make("x", "a"));
  simulator_.run();
  EXPECT_EQ(received, 2);
  EXPECT_EQ(center_.duplicated_count(), 1u);
  EXPECT_EQ(center_.delivered_count(), 2u);
}

TEST_F(MessageCenterTest, JitterDelaysDelivery) {
  ChannelFaults faults;
  faults.jitter_s = 0.5;
  center_.set_faults(faults, util::Rng(7));
  double delivered_at = -1.0;
  center_.register_port("a", [&](const Message&) {
    delivered_at = simulator_.now();
  });
  center_.send(make("x", "a"));
  simulator_.run();
  EXPECT_GE(delivered_at, 1e-3);          // never earlier than base latency
  EXPECT_LE(delivered_at, 1e-3 + 0.5);    // bounded by the jitter window
}

TEST_F(MessageCenterTest, PartitionPredicateBlocksTraffic) {
  ChannelFaults faults;
  faults.reachable = [](const PortId&, const PortId& to) {
    return to != "island";
  };
  center_.set_faults(faults, util::Rng(7));
  int island = 0;
  int mainland = 0;
  center_.register_port("island", [&](const Message&) { ++island; });
  center_.register_port("mainland", [&](const Message&) { ++mainland; });
  EXPECT_TRUE(center_.send(make("x", "island")));  // partition looks like lag
  EXPECT_TRUE(center_.send(make("x", "mainland")));
  simulator_.run();
  EXPECT_EQ(island, 0);
  EXPECT_EQ(mainland, 1);
  EXPECT_EQ(center_.partition_dropped_count(), 1u);
  EXPECT_EQ(center_.fault_dropped_count(), 0u);
}

TEST_F(MessageCenterTest, InterceptorConsumesBeforeHandler) {
  int handled = 0;
  int intercepted = 0;
  center_.register_port("a", [&](const Message&) { ++handled; });
  center_.set_interceptor("a", [&](const Message& m) {
    ++intercepted;
    return m.type == "protocol";  // consume protocol traffic only
  });
  center_.send(make("x", "a", "protocol"));
  center_.send(make("x", "a", "app"));
  simulator_.run();
  EXPECT_EQ(intercepted, 2);
  EXPECT_EQ(handled, 1);  // only the non-consumed message got through
  EXPECT_EQ(center_.delivered_count(), 2u);
}

}  // namespace
}  // namespace pragma::agents
