// Plain-text table rendering for the benchmark harness.
//
// Every bench binary regenerates one of the paper's tables/figures; this
// helper renders aligned ASCII tables that mirror the paper's layout.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

namespace pragma::util {

/// Column alignment within a rendered table.
enum class Align { kLeft, kRight };

/// A simple text table: set headers, append rows of strings (use the
/// cell() helpers to format numbers), then render.
class TextTable {
 public:
  TextTable() = default;
  explicit TextTable(std::vector<std::string> headers);

  void set_headers(std::vector<std::string> headers);
  void set_alignment(std::size_t column, Align align);
  void add_row(std::vector<std::string> cells);
  /// Insert a horizontal rule before the next added row.
  void add_rule();

  [[nodiscard]] std::string render() const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
  std::vector<std::size_t> rules_;  // row indices preceded by a rule
  std::vector<Align> alignment_;
};

/// Format a double with fixed precision.
[[nodiscard]] std::string cell(double value, int precision = 3);
/// Format an integer.
[[nodiscard]] std::string cell(long long value);
[[nodiscard]] std::string cell(std::size_t value);
[[nodiscard]] std::string cell(int value);
/// Format a percentage ("12.3%").
[[nodiscard]] std::string percent_cell(double fraction, int precision = 1);
/// Format in scientific notation (matches the paper's Table 1 style).
[[nodiscard]] std::string sci_cell(double value, int precision = 4);

/// Print a titled section header for bench output.
void print_section(std::ostream& os, const std::string& title);

/// Shared emitter for the BENCH_*.json files: a JSON array of flat objects,
/// each with a "name" field followed by numeric fields, one object per
/// line.  Every bench harness uses this so the files share one schema and
/// can be diffed mechanically across runs.
class BenchJsonWriter {
 public:
  /// Start a new entry.  Fields added afterwards belong to it.
  BenchJsonWriter& entry(const std::string& name);
  /// Append a numeric field to the current entry.  Doubles render with
  /// fixed precision (default matches the ns/op convention, 1 digit);
  /// non-finite values (NaN/Inf) serialize as JSON null.
  BenchJsonWriter& field(const std::string& key, double value,
                         int precision = 1);
  BenchJsonWriter& field(const std::string& key, std::size_t value);
  BenchJsonWriter& field(const std::string& key, int value);

  [[nodiscard]] std::size_t entry_count() const { return entries_.size(); }
  /// Render the whole array (trailing newline included).
  [[nodiscard]] std::string render() const;
  /// Write to `path`; false when the file cannot be opened.
  bool write(const std::string& path) const;

 private:
  struct Entry {
    std::string name;
    std::vector<std::pair<std::string, std::string>> fields;
  };
  std::vector<Entry> entries_;
};

}  // namespace pragma::util
