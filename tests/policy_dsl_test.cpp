#include "pragma/policy/dsl.hpp"

#include <gtest/gtest.h>

namespace pragma::policy {
namespace {

TEST(ParseRule, SimpleStringRule) {
  const Policy policy =
      parse_rule("if octant = VI then partitioner = pBD-ISP");
  ASSERT_EQ(policy.conditions.size(), 1u);
  EXPECT_EQ(policy.conditions[0].attribute, "octant");
  EXPECT_EQ(policy.conditions[0].op, Op::kEq);
  EXPECT_EQ(to_string(policy.conditions[0].target), "VI");
  EXPECT_EQ(to_string(policy.action.at("partitioner")), "pBD-ISP");
  EXPECT_DOUBLE_EQ(policy.priority, 1.0);
}

TEST(ParseRule, NumericConditionAndPriority) {
  const Policy policy =
      parse_rule("if load >= 0.8 then action = repartition priority 2");
  EXPECT_EQ(policy.conditions[0].op, Op::kGe);
  EXPECT_DOUBLE_EQ(std::get<double>(policy.conditions[0].target), 0.8);
  EXPECT_DOUBLE_EQ(policy.priority, 2.0);
}

TEST(ParseRule, MultipleConditionsAndActions) {
  const Policy policy = parse_rule(
      "if arch = cluster and octant = VI then comm = latency-tolerant,"
      " partitioner = pBD-ISP");
  EXPECT_EQ(policy.conditions.size(), 2u);
  EXPECT_EQ(policy.action.size(), 2u);
}

TEST(ParseRule, ToleranceAnnotation) {
  const Policy policy =
      parse_rule("if bandwidth ~= 100 tol 20 then comm = tolerant");
  EXPECT_EQ(policy.conditions[0].op, Op::kApprox);
  EXPECT_DOUBLE_EQ(policy.conditions[0].tol, 20.0);
}

TEST(ParseRule, AllOperators) {
  EXPECT_EQ(parse_rule("if x < 1 then a = b").conditions[0].op, Op::kLt);
  EXPECT_EQ(parse_rule("if x <= 1 then a = b").conditions[0].op, Op::kLe);
  EXPECT_EQ(parse_rule("if x > 1 then a = b").conditions[0].op, Op::kGt);
  EXPECT_EQ(parse_rule("if x >= 1 then a = b").conditions[0].op, Op::kGe);
  EXPECT_EQ(parse_rule("if x ~= 1 then a = b").conditions[0].op,
            Op::kApprox);
}

TEST(ParseRule, ExplicitNameUsed) {
  const Policy policy = parse_rule("if a = b then c = d", "my_rule");
  EXPECT_EQ(policy.name, "my_rule");
}

TEST(ParseRule, MalformedInputsThrow) {
  EXPECT_THROW(parse_rule("octant = VI then x = y"), std::invalid_argument);
  EXPECT_THROW(parse_rule("if octant VI then x = y"),
               std::invalid_argument);
  EXPECT_THROW(parse_rule("if octant = VI"), std::invalid_argument);
  EXPECT_THROW(parse_rule("if octant = VI then"), std::invalid_argument);
  EXPECT_THROW(parse_rule("if octant = VI then x = y priority abc"),
               std::invalid_argument);
  EXPECT_THROW(parse_rule("if octant = VI then x = y junk"),
               std::invalid_argument);
}

TEST(ParseRules, SkipsCommentsAndBlankLines) {
  const auto parsed = try_parse_rules(R"(
# a comment
if a = 1 then x = 1

if b = 2 then x = 2  # trailing comment
)");
  ASSERT_TRUE(parsed) << parsed.status().to_string();
  const std::vector<Policy>& policies = parsed.value();
  ASSERT_EQ(policies.size(), 2u);
  EXPECT_EQ(policies[0].name, "rule_3");
  EXPECT_EQ(policies[1].name, "rule_5");
}

TEST(FormatRule, RoundTripsThroughParser) {
  const Policy original = parse_rule(
      "if load >= 0.8 tol 0.05 and arch = cluster then"
      " action = repartition, comm = lazy priority 3");
  const std::string formatted = format_rule(original);
  const Policy reparsed = parse_rule(formatted);
  EXPECT_EQ(reparsed.conditions.size(), original.conditions.size());
  EXPECT_EQ(reparsed.action.size(), original.action.size());
  EXPECT_DOUBLE_EQ(reparsed.priority, original.priority);
  for (std::size_t i = 0; i < original.conditions.size(); ++i) {
    EXPECT_EQ(reparsed.conditions[i].attribute,
              original.conditions[i].attribute);
    EXPECT_EQ(reparsed.conditions[i].op, original.conditions[i].op);
  }
}

TEST(ParseRule, ErrorReportsLineColumnAndSnippet) {
  try {
    (void)parse_rule("if load > 0.8 foo = bar");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("line 1"), std::string::npos) << message;
    EXPECT_NE(message.find("column 15"), std::string::npos) << message;
    EXPECT_NE(message.find("got 'foo'"), std::string::npos) << message;
    // The source line and a caret under the offending token.
    EXPECT_NE(message.find("if load > 0.8 foo = bar"), std::string::npos)
        << message;
    EXPECT_NE(message.find('^'), std::string::npos) << message;
  }
}

TEST(ParseRules, ErrorReportsFailingFileLine) {
  const auto parsed = try_parse_rules(
      "# comment\nif a = 1 then x = 1\nif load > 0.8 foo = bar\n");
  ASSERT_FALSE(parsed);
  EXPECT_EQ(parsed.status().code(), util::StatusCode::kInvalidArgument);
  const std::string& message = parsed.status().message();
  EXPECT_NE(message.find("line 3"), std::string::npos) << message;
  EXPECT_NE(message.find("got 'foo'"), std::string::npos) << message;
}

TEST(TryParseRules, ReturnsRulesOnValidInput) {
  const auto rules =
      try_parse_rules("if a = 1 then x = 1\nif b = 2 then x = 2\n");
  ASSERT_TRUE(rules);
  EXPECT_EQ(rules.value().size(), 2u);
}

TEST(TryParseRules, ReturnsStatusWithDiagnosticsOnMalformedInput) {
  const auto rules = try_parse_rules("if a = 1 then x = 1\nnonsense\n");
  ASSERT_FALSE(rules);
  EXPECT_EQ(rules.status().code(), util::StatusCode::kInvalidArgument);
  EXPECT_NE(rules.status().message().find("line 2"), std::string::npos)
      << rules.status().message();
}

TEST(TryParseRules, HostileTokenEchoIsClipped) {
  const std::string huge(10000, 'z');
  const auto rules = try_parse_rules("if a = 1 " + huge + " then x = 1");
  ASSERT_FALSE(rules);
  // The 10k-character token must not be echoed wholesale; Status
  // additionally truncates messages at its own bound.
  EXPECT_LE(rules.status().message().size(), 512u + 64u);
}

TEST(ParsedRule, BehavesInPolicyBase) {
  PolicyBase base;
  base.add(parse_rule("if octant = II then partitioner = pBD-ISP"));
  const AttributeSet query{{"octant", Value{std::string("II")}}};
  EXPECT_EQ(to_string(*base.decide(query, "partitioner")), "pBD-ISP");
}

}  // namespace
}  // namespace pragma::policy
