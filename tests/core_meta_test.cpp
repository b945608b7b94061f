#include "pragma/core/meta_partitioner.hpp"

#include <gtest/gtest.h>

// EXPECT_THROW intentionally discards nodiscard results.
#pragma GCC diagnostic ignored "-Wunused-result"

#include "pragma/amr/synthetic.hpp"
#include "pragma/policy/builtin.hpp"

namespace pragma::core {
namespace {

amr::AdaptationTrace synthetic_trace(int box_count, double move_fraction,
                                     int snapshots = 12) {
  amr::SyntheticConfig config;
  config.box_count = box_count;
  config.move_fraction = move_fraction;
  config.seed = 23;
  amr::SyntheticAppGenerator generator(config);
  return generator.generate(snapshots);
}

TEST(MetaPartitioner, SelectsFromSuiteByName) {
  const policy::PolicyBase policies = policy::standard_policy_base();
  MetaPartitioner meta(policies);
  EXPECT_EQ(meta.by_name("SP-ISP").name(), "SP-ISP");
  EXPECT_THROW(meta.by_name("bogus"), std::invalid_argument);
}

TEST(MetaPartitioner, StaticComputeTraceSelectsGMispSp) {
  // Localized, static, computation-dominated -> octant VII -> G-MISP+SP.
  const policy::PolicyBase policies = policy::standard_policy_base();
  amr::SyntheticConfig config;
  config.box_count = 1;
  config.box_edge = 16;
  config.move_fraction = 0.0;
  amr::SyntheticAppGenerator generator(config);
  const amr::AdaptationTrace trace = generator.generate(8);
  MetaPartitioner meta(policies);
  const partition::Partitioner& selected =
      meta.select(trace, trace.size() - 1);
  const octant::OctantState state = meta.history().back().state;
  if (!state.communication) {
    EXPECT_EQ(selected.name(), "G-MISP+SP");
  }
}

TEST(MetaPartitioner, SelectionFollowsTable2) {
  const policy::PolicyBase policies = policy::standard_policy_base();
  const amr::AdaptationTrace trace = synthetic_trace(16, 0.6);
  MetaPartitioner meta(policies);
  for (std::size_t i = 0; i < trace.size(); ++i) {
    meta.select(trace, i);
    const Selection& selection = meta.history().back();
    EXPECT_EQ(selection.partitioner,
              octant::select_partitioner(selection.state.octant()));
  }
}

TEST(MetaPartitioner, HistoryRecordsEverySelection) {
  const policy::PolicyBase policies = policy::standard_policy_base();
  const amr::AdaptationTrace trace = synthetic_trace(8, 0.3);
  MetaPartitioner meta(policies);
  for (std::size_t i = 0; i < trace.size(); ++i) meta.select(trace, i);
  EXPECT_EQ(meta.history().size(), trace.size());
  for (std::size_t i = 0; i < trace.size(); ++i)
    EXPECT_EQ(meta.history()[i].snapshot, i);
}

TEST(MetaPartitioner, NoSwitchOnStableState) {
  const policy::PolicyBase policies = policy::standard_policy_base();
  const amr::AdaptationTrace trace = synthetic_trace(8, 0.0);
  MetaPartitioner meta(policies);
  for (std::size_t i = 0; i < trace.size(); ++i) meta.select(trace, i);
  EXPECT_EQ(meta.switch_count(), 0u);
}

TEST(MetaPartitioner, HysteresisDelaysSwitch) {
  const policy::PolicyBase policies = policy::standard_policy_base();
  // A trace whose dynamics flip the octant along the way.
  amr::SyntheticConfig config;
  config.box_count = 12;
  config.move_fraction = 0.0;
  amr::SyntheticAppGenerator quiet(config);
  amr::AdaptationTrace trace = quiet.generate(6);
  config.move_fraction = 1.0;
  config.seed = 29;
  amr::SyntheticAppGenerator busy(config);
  const amr::AdaptationTrace tail = busy.generate(6);
  for (std::size_t i = 1; i < tail.size(); ++i) {
    amr::Snapshot snapshot = tail.at(i);
    snapshot.step = trace.at(trace.size() - 1).step + 4;
    trace.add(std::move(snapshot));
  }

  MetaPartitionerConfig eager;
  eager.hysteresis = 1;
  MetaPartitionerConfig cautious;
  cautious.hysteresis = 3;
  MetaPartitioner meta_eager(policies, eager);
  MetaPartitioner meta_cautious(policies, cautious);
  for (std::size_t i = 0; i < trace.size(); ++i) {
    meta_eager.select(trace, i);
    meta_cautious.select(trace, i);
  }
  EXPECT_GE(meta_eager.switch_count(), meta_cautious.switch_count());
}

TEST(MetaPartitioner, FallsBackWithoutPolicies) {
  const policy::PolicyBase empty;  // no octant rules installed
  const amr::AdaptationTrace trace = synthetic_trace(8, 0.2);
  MetaPartitioner meta(empty);
  const partition::Partitioner& selected = meta.select(trace, 0);
  // Table 2 fallback still applies.
  EXPECT_EQ(selected.name(),
            octant::select_partitioner(meta.history()[0].state.octant()));
}

TEST(MetaPartitioner, CustomPolicyOverridesTable2) {
  policy::PolicyBase policies;
  policy::Policy rule;
  rule.name = "always_sfc";
  rule.action["partitioner"] = policy::Value{std::string("SFC")};
  policies.add(rule);
  const amr::AdaptationTrace trace = synthetic_trace(8, 0.2);
  MetaPartitioner meta(policies);
  EXPECT_EQ(meta.select(trace, 0).name(), "SFC");
}


TEST(MetaPartitioner, PolicyGrainConfigurationApplied) {
  // "configured with appropriate parameters such as partitioning
  //  granularity": a policy may attach a grain to its action.
  policy::PolicyBase policies;
  policy::Policy rule;
  rule.name = "custom_grain";
  rule.action["partitioner"] = policy::Value{std::string("ISP")};
  rule.action["grain"] = policy::Value{8.0};
  policies.add(rule);
  const amr::AdaptationTrace trace = synthetic_trace(8, 0.2);
  MetaPartitioner meta(policies);
  meta.select(trace, 0);
  EXPECT_EQ(meta.current(), "ISP");
  EXPECT_EQ(meta.current_grain(), 8);
  EXPECT_EQ(meta.history().back().grain, 8);
}

TEST(MetaPartitioner, NoGrainPolicyMeansPartitionerDefault) {
  const policy::PolicyBase policies = policy::standard_policy_base();
  const amr::AdaptationTrace trace = synthetic_trace(8, 0.2);
  MetaPartitioner meta(policies);
  meta.select(trace, 0);
  EXPECT_EQ(meta.current_grain(), 0);
}

}  // namespace
}  // namespace pragma::core
