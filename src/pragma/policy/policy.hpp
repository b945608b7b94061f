// The adaptation "policy" knowledge base (Section 3.5).
//
// "Policies encode rules, heuristics and experiences that relate system and
//  application state abstraction to system/application configurations,
//  algorithms and mechanisms. [...] the policy knowledge base will present
//  an associative interface that allows the agents to formulate partial
//  queries and use fuzzy reasoning."
//
// A Policy is a set of fuzzy conditions over named attributes plus an
// action (a set of attribute assignments, e.g. partitioner=pBD-ISP).  A
// query is a partial attribute set; each policy scores by the combined
// membership of its conditions, and the base returns policies ranked by
// score x priority.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <variant>
#include <vector>

namespace pragma::policy {

/// Attribute values are strings or numbers.
using Value = std::variant<std::string, double>;

[[nodiscard]] std::string to_string(const Value& value);

/// A named attribute map ("octant" -> "VI", "load" -> 0.8, ...).
using AttributeSet = std::map<std::string, Value>;

/// Comparison operators supported by conditions.
enum class Op {
  kEq,      ///< exact equality (crisp for strings, tolerant for numbers)
  kApprox,  ///< fuzzy equality with a Gaussian membership of width `tol`
  kLt,
  kLe,
  kGt,
  kGe,
};

[[nodiscard]] std::string to_string(Op op);

/// A single fuzzy condition over one attribute.
struct Condition {
  std::string attribute;
  Op op = Op::kEq;
  Value target;
  /// Fuzziness scale for numeric comparisons (absolute units).  For the
  /// ordering operators it softens the boundary; for kApprox it is the
  /// Gaussian width.
  double tol = 0.0;

  /// Membership of `value` in this condition, in [0, 1].
  [[nodiscard]] double membership(const Value& value) const;
};

/// A rule: conditions -> action, with a priority used to break ties.
struct Policy {
  std::string name;
  std::vector<Condition> conditions;
  AttributeSet action;
  double priority = 1.0;

  /// Match score against a (possibly partial) query: the product of the
  /// memberships of all conditions whose attribute appears in the query;
  /// conditions on missing attributes contribute the penalty factor
  /// `missing_factor` (allowing partial queries while keeping rules whose
  /// conditions were actually confirmed ranked above speculative ones).
  [[nodiscard]] double match(const AttributeSet& query,
                             double missing_factor = 0.25) const;
};

/// A ranked query hit.
struct Match {
  const Policy* policy = nullptr;
  double score = 0.0;
};

/// The programmable policy store.
class PolicyBase {
 public:
  /// Add a policy (replaces any policy with the same name).
  void add(Policy policy);
  /// Remove by name; returns true if found.
  bool remove(const std::string& name);
  [[nodiscard]] std::size_t size() const { return policies_.size(); }
  [[nodiscard]] const Policy* find(const std::string& name) const;

  /// Associative query: all policies with score >= min_score, ranked by
  /// score * priority descending.
  [[nodiscard]] std::vector<Match> query(const AttributeSet& attributes,
                                         double min_score = 0.05) const;

  /// Convenience: the value a best-matching policy assigns to `key`.
  [[nodiscard]] std::optional<Value> decide(const AttributeSet& attributes,
                                            const std::string& key) const;

 private:
  std::vector<Policy> policies_;
};

}  // namespace pragma::policy
