#include "pragma/policy/dsl.hpp"

#include <cctype>
#include <cstdlib>
#include <sstream>
#include <stdexcept>

namespace pragma::policy {

namespace {

/// Clip a token echoed into an error message so hostile input cannot
/// balloon diagnostics.
std::string clip(const std::string& token) {
  constexpr std::size_t kMaxEcho = 40;
  if (token.size() <= kMaxEcho) return token;
  return token.substr(0, kMaxEcho) + "...";
}

/// Build "line N, column C" diagnostics with a source snippet and caret.
/// `line_base` is the 1-based number of the first line of `text` within
/// the enclosing document (try_parse_rules passes the file line).
[[noreturn]] void throw_parse_error(const std::string& text, std::size_t pos,
                                    int line_base,
                                    const std::string& message) {
  if (pos > text.size()) pos = text.size();
  std::size_t line_start = 0;
  int line = line_base;
  for (std::size_t i = 0; i < pos; ++i)
    if (text[i] == '\n') {
      ++line;
      line_start = i + 1;
    }
  std::size_t line_end = text.find('\n', line_start);
  if (line_end == std::string::npos) line_end = text.size();
  const std::size_t column = pos - line_start + 1;

  // Window the snippet around the column so long lines stay readable.
  constexpr std::size_t kWindow = 72;
  std::size_t snippet_start = line_start;
  if (column > kWindow - 8)
    snippet_start = line_start + column - (kWindow - 8);
  std::string snippet =
      text.substr(snippet_start, std::min(line_end - snippet_start, kWindow));
  for (char& c : snippet)
    if (!std::isprint(static_cast<unsigned char>(c))) c = '?';
  std::string caret(pos >= snippet_start ? pos - snippet_start : 0, ' ');
  caret += '^';

  std::ostringstream os;
  os << "policy rule parse error at line " << line << ", column " << column
     << ": " << message << '\n'
     << "  " << snippet << '\n'
     << "  " << caret;
  throw std::invalid_argument(os.str());
}

struct Tokenizer {
  Tokenizer(const std::string& text, int line_base)
      : text_(text), line_base_(line_base) {}

  [[nodiscard]] bool done() {
    skip_space();
    return pos_ >= text_.size();
  }

  [[nodiscard]] std::string peek() {
    const std::size_t saved = pos_;
    std::string token = next();
    pos_ = saved;
    return token;
  }

  std::string next() {
    skip_space();
    if (pos_ >= text_.size()) return {};
    const char c = text_[pos_];
    // Operators.
    if (c == '=' || c == ',') {
      ++pos_;
      return std::string(1, c);
    }
    if (c == '~' || c == '<' || c == '>') {
      std::string op(1, c);
      ++pos_;
      if (pos_ < text_.size() && text_[pos_] == '=') {
        op += '=';
        ++pos_;
      }
      return op;
    }
    // Barewords / numbers: everything until whitespace or an operator char.
    std::size_t start = pos_;
    while (pos_ < text_.size() && !std::isspace(static_cast<unsigned char>(
                                      text_[pos_])) &&
           text_[pos_] != '=' && text_[pos_] != ',' && text_[pos_] != '<' &&
           text_[pos_] != '>' && text_[pos_] != '~')
      ++pos_;
    last_token_start_ = start;
    return text_.substr(start, pos_ - start);
  }

  [[noreturn]] void fail(const std::string& message) const {
    throw_parse_error(text_, pos_, line_base_, message);
  }

  /// Fail pointing at the start of the most recent bareword token rather
  /// than the cursor (reads better for "got 'foo'" messages).
  [[noreturn]] void fail_at_token(const std::string& message) const {
    throw_parse_error(text_, last_token_start_, line_base_, message);
  }

 private:
  void skip_space() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])))
      ++pos_;
  }
  const std::string& text_;
  int line_base_ = 1;
  std::size_t pos_ = 0;
  std::size_t last_token_start_ = 0;
};

bool is_number(const std::string& token, double* out) {
  if (token.empty()) return false;
  char* end = nullptr;
  const double value = std::strtod(token.c_str(), &end);
  if (end != token.c_str() + token.size()) return false;
  if (out) *out = value;
  return true;
}

Value parse_value(const std::string& token) {
  double number = 0.0;
  if (is_number(token, &number)) return Value{number};
  return Value{token};
}

Op parse_op(Tokenizer& tok, const std::string& token) {
  if (token == "=") return Op::kEq;
  if (token == "~=") return Op::kApprox;
  if (token == "<") return Op::kLt;
  if (token == "<=") return Op::kLe;
  if (token == ">") return Op::kGt;
  if (token == ">=") return Op::kGe;
  tok.fail("expected an operator, got '" + clip(token) + "'");
}

Policy parse_rule_at(const std::string& text, const std::string& name,
                     int line_base) {
  Tokenizer tok(text, line_base);
  Policy policy;
  policy.name = name.empty() ? text : name;

  if (tok.next() != "if") tok.fail_at_token("rule must start with 'if'");

  // Conditions.
  while (true) {
    Condition condition;
    condition.attribute = tok.next();
    if (condition.attribute.empty()) tok.fail("expected attribute name");
    condition.op = parse_op(tok, tok.next());
    const std::string value = tok.next();
    if (value.empty()) tok.fail("expected condition value");
    condition.target = parse_value(value);
    if (tok.peek() == "tol") {
      tok.next();
      double tol = 0.0;
      if (!is_number(tok.next(), &tol)) tok.fail("expected tol number");
      condition.tol = tol;
    }
    policy.conditions.push_back(std::move(condition));
    const std::string keyword = tok.next();
    if (keyword == "and") continue;
    if (keyword == "then") break;
    tok.fail_at_token("expected 'and' or 'then', got '" + clip(keyword) +
                      "'");
  }

  // Action assignments.
  while (true) {
    const std::string key = tok.next();
    if (key.empty()) tok.fail("expected action assignment");
    if (tok.next() != "=") tok.fail("expected '=' in action");
    const std::string value = tok.next();
    if (value.empty()) tok.fail("expected action value");
    policy.action[key] = parse_value(value);
    if (tok.done()) break;
    const std::string keyword = tok.peek();
    if (keyword == ",") {
      tok.next();
      continue;
    }
    if (keyword == "priority") {
      tok.next();
      double priority = 1.0;
      if (!is_number(tok.next(), &priority))
        tok.fail("expected priority number");
      policy.priority = priority;
      break;
    }
    tok.fail("expected ',' or 'priority', got '" + clip(keyword) + "'");
  }
  if (!tok.done()) tok.fail("trailing tokens after rule");
  return policy;
}

}  // namespace

Policy parse_rule(const std::string& text, const std::string& name) {
  return parse_rule_at(text, name, 1);
}

util::Expected<std::vector<Policy>> try_parse_rules(const std::string& text) {
  std::vector<Policy> policies;
  std::istringstream stream(text);
  std::string line;
  int line_number = 0;
  // The recursive-descent parser reports through one internal exception
  // type; this boundary converts it into a Status so callers handling
  // untrusted policy files never see a throw.
  try {
    while (std::getline(stream, line)) {
      ++line_number;
      const auto hash = line.find('#');
      if (hash != std::string::npos) line = line.substr(0, hash);
      bool blank = true;
      for (char c : line)
        if (!std::isspace(static_cast<unsigned char>(c))) blank = false;
      if (blank) continue;
      policies.push_back(parse_rule_at(line, "rule_" +
                                       std::to_string(line_number),
                                       line_number));
    }
  } catch (const std::invalid_argument& error) {
    return util::Status::invalid(error.what());
  }
  return policies;
}

std::string format_rule(const Policy& policy) {
  std::ostringstream os;
  os << "if ";
  for (std::size_t i = 0; i < policy.conditions.size(); ++i) {
    const Condition& c = policy.conditions[i];
    if (i > 0) os << " and ";
    os << c.attribute << ' ' << to_string(c.op) << ' ' << to_string(c.target);
    if (c.tol > 0.0) os << " tol " << c.tol;
  }
  os << " then ";
  bool first = true;
  for (const auto& [key, value] : policy.action) {
    if (!first) os << ", ";
    os << key << " = " << to_string(value);
    first = false;
  }
  if (policy.priority != 1.0) os << " priority " << policy.priority;
  return os.str();
}

}  // namespace pragma::policy
