// Tiny command-line flag parser shared by the examples and benches.
//
// Supports "--name=value", "--name value" and boolean "--name" forms plus
// automatic --help text.  No external dependencies.
#pragma once

#include <cstddef>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace pragma::util {

/// Declarative flag set.  Register flags with defaults, parse argv, then
/// query typed values.  Unknown flags raise an error in parse().
class CliFlags {
 public:
  explicit CliFlags(std::string program_description = {});

  void add_int(const std::string& name, long long default_value,
               const std::string& help);
  void add_double(const std::string& name, double default_value,
                  const std::string& help);
  void add_bool(const std::string& name, bool default_value,
                const std::string& help);
  void add_string(const std::string& name, const std::string& default_value,
                  const std::string& help);

  /// Parse arguments.  Returns false (after printing usage) when --help was
  /// requested; throws std::invalid_argument on malformed input.
  bool parse(int argc, const char* const* argv);

  /// Overlay environment variables onto the registered defaults: for every
  /// flag `some-name`, the variable `<prefix>_SOME_NAME` (dashes become
  /// underscores, letters upper-cased), when set and non-empty, replaces
  /// the flag's current value.  Call before parse() so explicit CLI
  /// arguments still win — this is the one env/CLI merge path shared by
  /// every binary.  Returns the number of flags overridden.
  std::size_t merge_env(const std::string& prefix);

  [[nodiscard]] long long get_int(const std::string& name) const;
  [[nodiscard]] double get_double(const std::string& name) const;
  [[nodiscard]] bool get_bool(const std::string& name) const;
  [[nodiscard]] const std::string& get_string(const std::string& name) const;

  /// True when `name` was set explicitly (CLI argument or environment
  /// override) rather than left at its registered default.  Lets
  /// validators distinguish "--budget-cpu-s 0" (reject loudly) from the
  /// 0-means-unlimited default.
  [[nodiscard]] bool explicitly_set(const std::string& name) const;
  /// The verbatim token that set `name` — "--flag=value", "--flag value",
  /// or "PRAGMA_FLAG=value" — for caret diagnostics; empty when the flag
  /// is still at its default.
  [[nodiscard]] const std::string& provenance(const std::string& name) const;

  /// Positional (non-flag) arguments in order of appearance.
  [[nodiscard]] const std::vector<std::string>& positional() const {
    return positional_;
  }

  [[nodiscard]] std::string usage(const std::string& program) const;

 private:
  enum class Type { kInt, kDouble, kBool, kString };
  struct Flag {
    Type type;
    std::string help;
    std::string value;  // canonical string form
    bool set = false;   // explicitly set (CLI or env), not defaulted
    std::string raw{};  // verbatim token that set it (diagnostics)
  };
  const Flag& find(const std::string& name, Type type) const;
  const Flag& find_any(const std::string& name) const;

  std::string description_;
  std::map<std::string, Flag> flags_;
  std::vector<std::string> positional_;
};

}  // namespace pragma::util
