// Shared pieces of the perfbench binary: run options, the result every
// workload returns, timing summaries, and the traced-run ledger that folds
// obs::Tracer spans and obs counters into per-layer metrics.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "pragma/obs/tracer.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point from) {
  return std::chrono::duration<double>(Clock::now() - from).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Per-process scratch directory (journals, checkpoints); must exist.
  std::string scratch;
  /// Traced mode: where the span trace JSON is written for trace_check.
  std::string trace_out;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run reports.  `failed` counts failed, shed and
/// output-check-failed operations; any failed check also clears `correct`.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;

  /// Record an output check; a failing one is reported on stderr.
  void check(bool ok, const std::string& what);
  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
};

/// Median and the highest percentile that still has at least ten samples
/// beyond it (absent below 11 samples), with the sample count.
struct Summary {
  std::size_t n = 0;
  double p50 = 0.0;
  double tail = 0.0;
  double tail_pct = 0.0;  ///< 0 when n < 11
};
[[nodiscard]] Summary summarize(std::vector<double> xs);
[[nodiscard]] double median(std::vector<double> xs);
/// Linear-interpolated percentile, p in [0, 100].
[[nodiscard]] double percentile(std::vector<double> xs, double p);

/// Human-readable report line: name, value, unit (and, for timings, the
/// tail and sample count).  Printed before the final JSON line.
void print_line(const std::string& name, double value, const std::string& unit);
void print_timing(const std::string& name, const Summary& s,
                  const std::string& unit);

/// Peak resident set size of this process, MiB.
[[nodiscard]] double peak_rss_mb();

/// Spans of one traced run, aggregated.  Self time of a span is its
/// duration minus the part covered by its direct children on the same
/// thread.  Events that start inside [t0_us, t1_us] form the timed window;
/// events outside it (the bench's post-phase probes) are kept separately.
class Ledger {
 public:
  Ledger(const std::vector<pragma::obs::TraceEvent>& events, double t0_us,
         double t1_us);

  /// Summed self time of `name` inside the window, ms.
  [[nodiscard]] double self_ms(const std::string& name) const;
  /// Summed duration of `name` anywhere in the trace, ms.
  [[nodiscard]] double total_ms(const std::string& name) const;
  /// Number of `name` events anywhere in the trace.
  [[nodiscard]] double count(const std::string& name) const;
  /// Sum of a numeric annotation over `name` events anywhere, e.g. the
  /// payload_bytes of CheckpointStore.write.
  [[nodiscard]] double arg_sum(const std::string& name,
                               const std::string& key) const;
  /// Share of the window's wall time covered by no span outside the
  /// "bench" category (the harness's own wrappers).
  [[nodiscard]] double unattributed_frac() const;
  /// Self time inside the window summed per category, ms.
  [[nodiscard]] const std::map<std::string, double>& category_self_ms() const {
    return category_self_ms_;
  }

 private:
  struct Totals {
    double self_window_us = 0.0;
    double dur_us = 0.0;
    double count = 0.0;
    std::map<std::string, double> args;
  };
  std::map<std::string, Totals> by_name_;
  std::map<std::string, double> category_self_ms_;
  double window_us_ = 0.0;
  double covered_us_ = 0.0;
};

/// Turn span + counter collection on (through obs::ObsConfig) or off.
void set_tracing(bool on);

/// Per-layer metrics, keyed by name.  emit_layers() reports every metric
/// of the fixed per-layer list in order (0 where the workload leaves one
/// unset) so all workloads print the same keys.
using LayerValues = std::map<std::string, double>;
/// Spans and counters every workload shares (partition, core, agents, io),
/// normalized per timed operation.
void fill_common_layers(const Ledger& ledger, double ops, LayerValues& out);
void emit_layers(const LayerValues& values, Result& result);
/// Prints each layer's self time in the timed phase and its share of the
/// phase's wall time.
void print_layer_shares(const std::map<std::string, double>& layer_ms,
                        double wall_ms);

Result run_managed_rm3d(const Options& options);
Result run_trace_replay(const Options& options);
Result run_service_burst(const Options& options);

}  // namespace perfbench
