#include "pragma/policy/policy.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace pragma::policy {

std::string to_string(const Value& value) {
  if (const auto* s = std::get_if<std::string>(&value)) return *s;
  std::ostringstream os;
  os << std::get<double>(value);
  return os.str();
}

std::string to_string(Op op) {
  switch (op) {
    case Op::kEq:
      return "=";
    case Op::kApprox:
      return "~=";
    case Op::kLt:
      return "<";
    case Op::kLe:
      return "<=";
    case Op::kGt:
      return ">";
    case Op::kGe:
      return ">=";
  }
  return "?";
}

namespace {
/// Smooth step from 1 (well inside) to 0 (well outside) across a boundary
/// at 0 with softness `tol`; crisp when tol == 0.
double soft_below(double distance, double tol) {
  if (tol <= 0.0) return distance <= 0.0 ? 1.0 : 0.0;
  // Logistic membership centered at the boundary.
  return 1.0 / (1.0 + std::exp(distance / (tol / 4.0)));
}
}  // namespace

double Condition::membership(const Value& value) const {
  const bool value_is_str = std::holds_alternative<std::string>(value);
  const bool target_is_str = std::holds_alternative<std::string>(target);
  if (value_is_str != target_is_str) return 0.0;

  if (value_is_str) {
    const bool equal =
        std::get<std::string>(value) == std::get<std::string>(target);
    switch (op) {
      case Op::kEq:
      case Op::kApprox:
        return equal ? 1.0 : 0.0;
      default:
        return 0.0;  // ordering undefined on strings
    }
  }

  const double v = std::get<double>(value);
  const double t = std::get<double>(target);
  switch (op) {
    case Op::kEq:
      if (tol <= 0.0) return v == t ? 1.0 : 0.0;
      [[fallthrough]];
    case Op::kApprox: {
      const double width = tol > 0.0 ? tol : std::max(1e-9, 0.05 * std::abs(t));
      const double d = (v - t) / width;
      return std::exp(-d * d);
    }
    case Op::kLt:
      return soft_below(v - t, tol);
    case Op::kLe:
      return soft_below(v - t, tol);
    case Op::kGt:
      return soft_below(t - v, tol);
    case Op::kGe:
      return soft_below(t - v, tol);
  }
  return 0.0;
}

double Policy::match(const AttributeSet& query, double missing_factor) const {
  double score = 1.0;
  for (const Condition& condition : conditions) {
    const auto it = query.find(condition.attribute);
    if (it == query.end()) {
      score *= missing_factor;
      continue;
    }
    score *= condition.membership(it->second);
    if (score <= 0.0) return 0.0;
  }
  return score;
}

void PolicyBase::add(Policy policy) {
  for (Policy& existing : policies_) {
    if (existing.name == policy.name) {
      existing = std::move(policy);
      return;
    }
  }
  policies_.push_back(std::move(policy));
}

bool PolicyBase::remove(const std::string& name) {
  const auto it =
      std::remove_if(policies_.begin(), policies_.end(),
                     [&](const Policy& p) { return p.name == name; });
  const bool found = it != policies_.end();
  policies_.erase(it, policies_.end());
  return found;
}

const Policy* PolicyBase::find(const std::string& name) const {
  for (const Policy& policy : policies_)
    if (policy.name == name) return &policy;
  return nullptr;
}

std::vector<Match> PolicyBase::query(const AttributeSet& attributes,
                                     double min_score) const {
  std::vector<Match> matches;
  for (const Policy& policy : policies_) {
    const double score = policy.match(attributes) * policy.priority;
    if (score >= min_score) matches.push_back(Match{&policy, score});
  }
  std::stable_sort(matches.begin(), matches.end(),
                   [](const Match& a, const Match& b) {
                     return a.score > b.score;
                   });
  return matches;
}

std::optional<Value> PolicyBase::decide(const AttributeSet& attributes,
                                        const std::string& key) const {
  for (const Match& match : query(attributes)) {
    const auto it = match.policy->action.find(key);
    if (it != match.policy->action.end()) return it->second;
  }
  return std::nullopt;
}

}  // namespace pragma::policy
