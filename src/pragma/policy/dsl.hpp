// A small rule language for the programmable policy base.
//
// "Programmability of the knowledge base will allow rules to be modified,
//  adapted and extended."  Rules read like the paper's examples:
//
//   if octant = VI and arch = cluster then partitioner = pBD-ISP
//   if load > 0.8 then action = repartition priority 2
//   if bandwidth ~= 100 tol 20 then comm = latency-tolerant
//
// Grammar (one rule per line; '#' starts a comment):
//   rule      := "if" cond ("and" cond)* "then" assign ("," assign)*
//                ["priority" NUMBER]
//   cond      := IDENT op VALUE ["tol" NUMBER]
//   op        := "=" | "~=" | "<" | "<=" | ">" | ">="
//   assign    := IDENT "=" VALUE
//   VALUE     := NUMBER | bareword
#pragma once

#include <string>
#include <vector>

#include "pragma/policy/policy.hpp"
#include "pragma/util/status.hpp"

namespace pragma::policy {

/// Parse a single rule.  `name` becomes the policy name (auto-generated
/// from the text if empty).  Throws std::invalid_argument on malformed
/// input; the message carries the line number (when known), the column,
/// a source snippet and a caret marking the offending position:
///
///   policy rule parse error at line 3, column 14: expected 'and' or
///   'then', got 'foo'
///     if load > 0.8 foo = bar
///                   ^
[[nodiscard]] Policy parse_rule(const std::string& text,
                                const std::string& name = {});

/// Parse a newline-separated rule set, skipping blank lines and comments.
/// Returns the parsed rule set or a Status whose message has the same
/// line/column/snippet diagnostics as parse_rule, with the failing line
/// number — untrusted policy files never see a throw.
[[nodiscard]] util::Expected<std::vector<Policy>> try_parse_rules(
    const std::string& text);

/// Render a policy back into rule syntax (round-trips through parse_rule).
[[nodiscard]] std::string format_rule(const Policy& policy);

}  // namespace pragma::policy
