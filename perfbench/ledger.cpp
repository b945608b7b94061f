#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <string>
#include <utility>

#include "perfbench.hpp"
#include "pragma/obs/obs.hpp"

namespace perfbench {

void Result::check(bool ok, const std::string& what) {
  if (ok) return;
  correct = false;
  ++failed;
  std::cerr << "perfbench: check failed: " << what << "\n";
}

double percentile(std::vector<double> xs, double p) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double rank = p / 100.0 * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  return xs[lo] + (rank - static_cast<double>(lo)) * (xs[hi] - xs[lo]);
}

double median(std::vector<double> xs) { return percentile(std::move(xs), 50.0); }

Summary summarize(std::vector<double> xs) {
  Summary s;
  s.n = xs.size();
  s.p50 = percentile(xs, 50.0);
  if (s.n >= 11) {
    // The highest percentile with at least ten samples above it.
    s.tail_pct = 100.0 * (1.0 - 10.0 / static_cast<double>(s.n));
    s.tail = percentile(std::move(xs), s.tail_pct);
  }
  return s;
}

void print_line(const std::string& name, double value,
                const std::string& unit) {
  std::printf("  %-34s %14.6g  %s\n", name.c_str(), value, unit.c_str());
}

void print_timing(const std::string& name, const Summary& s,
                  const std::string& unit) {
  if (s.tail_pct > 0.0) {
    std::printf("  %-34s %14.6g  %s  (p%.1f = %.6g, n = %zu)\n", name.c_str(),
                s.p50, unit.c_str(), s.tail_pct, s.tail, s.n);
  } else {
    std::printf("  %-34s %14.6g  %s  (n = %zu, too few for a tail)\n",
                name.c_str(), s.p50, unit.c_str(), s.n);
  }
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

Ledger::Ledger(const std::vector<pragma::obs::TraceEvent>& events,
               double t0_us, double t1_us)
    : window_us_(t1_us - t0_us) {
  // Nest per thread by containment: sort by start, longer first on ties,
  // and keep a stack of open ancestors.
  std::map<std::uint32_t, std::vector<const pragma::obs::TraceEvent*>> by_tid;
  for (const pragma::obs::TraceEvent& e : events) by_tid[e.tid].push_back(&e);

  std::vector<std::pair<double, double>> covered;
  for (auto& [tid, list] : by_tid) {
    std::sort(list.begin(), list.end(), [](const auto* a, const auto* b) {
      return a->ts_us != b->ts_us ? a->ts_us < b->ts_us : a->dur_us > b->dur_us;
    });
    std::vector<double> child_us(list.size(), 0.0);
    std::vector<std::size_t> stack;
    for (std::size_t i = 0; i < list.size(); ++i) {
      const pragma::obs::TraceEvent& e = *list[i];
      while (!stack.empty() && list[stack.back()]->ts_us +
                                       list[stack.back()]->dur_us <=
                                   e.ts_us)
        stack.pop_back();
      if (!stack.empty()) child_us[stack.back()] += e.dur_us;
      stack.push_back(i);
    }
    for (std::size_t i = 0; i < list.size(); ++i) {
      const pragma::obs::TraceEvent& e = *list[i];
      Totals& totals = by_name_[e.name];
      totals.dur_us += e.dur_us;
      totals.count += 1.0;
      for (const auto& [key, value] : e.args) {
        char* end = nullptr;
        const double number = std::strtod(value.c_str(), &end);
        if (end != value.c_str()) totals.args[key] += number;
      }
      const bool in_window = e.ts_us >= t0_us && e.ts_us <= t1_us;
      if (!in_window) continue;
      const double self_us = std::max(0.0, e.dur_us - child_us[i]);
      totals.self_window_us += self_us;
      category_self_ms_[e.category] += self_us / 1000.0;
      if (std::string(e.category) != "bench")
        covered.emplace_back(e.ts_us, std::min(t1_us, e.ts_us + e.dur_us));
    }
  }
  std::sort(covered.begin(), covered.end());
  double end = t0_us;
  for (const auto& [lo, hi] : covered) {
    const double from = std::max(lo, end);
    if (hi > from) covered_us_ += hi - from;
    end = std::max(end, hi);
  }
}

double Ledger::self_ms(const std::string& name) const {
  const auto it = by_name_.find(name);
  return it == by_name_.end() ? 0.0 : it->second.self_window_us / 1000.0;
}

double Ledger::total_ms(const std::string& name) const {
  const auto it = by_name_.find(name);
  return it == by_name_.end() ? 0.0 : it->second.dur_us / 1000.0;
}

double Ledger::count(const std::string& name) const {
  const auto it = by_name_.find(name);
  return it == by_name_.end() ? 0.0 : it->second.count;
}

double Ledger::arg_sum(const std::string& name, const std::string& key) const {
  const auto it = by_name_.find(name);
  if (it == by_name_.end()) return 0.0;
  const auto arg = it->second.args.find(key);
  return arg == it->second.args.end() ? 0.0 : arg->second;
}

double Ledger::unattributed_frac() const {
  return window_us_ > 0.0 ? std::max(0.0, 1.0 - covered_us_ / window_us_)
                          : 0.0;
}

void set_tracing(bool on) {
  if (on) {
    pragma::obs::metrics().reset();
    pragma::obs::apply({.tracing = true, .metrics = true});
  } else {
    pragma::obs::Tracer::instance().set_enabled(false);
    pragma::obs::metrics().set_enabled(false);
  }
}

namespace {

double counter(const char* name) {
  return static_cast<double>(pragma::obs::metrics().counter(name).value());
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// The per-layer metric list, in report order (BENCHMARK.json's per_layer
/// names the same metrics).  `_ms` and count metrics are per timed
/// operation: one managed run, one Table 4 repetition, or one submitted
/// spec; octant.classify_us is per classified snapshot.
const std::vector<std::pair<const char*, const char*>>& layer_list() {
  static const std::vector<std::pair<const char*, const char*>> list = {
      {"amr.regrid_ms", "ms"},
      {"amr.regrids", "count"},
      {"amr.refined_cells", "cells"},
      {"amr.flag_ms", "ms"},
      {"amr.cluster_ms", "ms"},
      {"amr.flag_density", "ratio"},
      {"partition.workgrid_build_ms", "ms"},
      {"partition.apply_delta_ms", "ms"},
      {"partition.partition_ms", "ms"},
      {"partition.comm_volume_ms", "ms"},
      {"partition.cache_hit_ratio", "ratio"},
      {"partition.incremental_ratio", "ratio"},
      {"core.replay_self_ms", "ms"},
      {"core.meta_select_ms", "ms"},
      {"core.meta_switches", "count"},
      {"core.managed_step_self_ms", "ms"},
      {"core.repartition_ms", "ms"},
      {"core.checkpoint_ms", "ms"},
      {"octant.classify_us", "us"},
      {"agents.sample_ms", "ms"},
      {"agents.adm_ms", "ms"},
      {"agents.messages_sent", "count"},
      {"agents.retry_ratio", "ratio"},
      {"agents.drop_ratio", "ratio"},
      {"io.checkpoint_write_ms", "ms"},
      {"io.checkpoint_writes", "count"},
      {"io.checkpoint_bytes", "bytes"},
      {"service.submit_ms", "ms"},
      {"service.submit_batch_ms_per_spec", "ms"},
      {"service.queue_wait_p50_ms", "ms"},
      {"service.queue_wait_p99_ms", "ms"},
      {"service.exec_p50_ms", "ms"},
      {"service.fsyncs_per_spec", "ratio"},
      {"service.coalesced_ratio", "ratio"},
      {"service.shed", "count"},
      {"unattributed_frac", "ratio"},
      {"trace_overhead_frac", "ratio"},
  };
  return list;
}

}  // namespace

void fill_common_layers(const Ledger& ledger, double ops, LayerValues& out) {
  const auto per_op = [ops](double v) { return ops > 0.0 ? v / ops : 0.0; };
  out["partition.workgrid_build_ms"] = per_op(ledger.self_ms("WorkGrid.build"));
  out["partition.apply_delta_ms"] =
      per_op(ledger.self_ms("WorkGrid.apply_delta"));
  out["partition.partition_ms"] =
      per_op(ledger.self_ms("Partitioner.partition"));
  out["partition.comm_volume_ms"] =
      per_op(ledger.self_ms("communication_volume") +
             ledger.self_ms("communication_volume.incremental"));
  const double hits = counter("partition.workgrid_cache.hits");
  out["partition.cache_hit_ratio"] =
      ratio(hits, hits + counter("partition.workgrid_cache.misses"));
  // WorkGridCache builds (replays) and ManagedRun's own canonical-grid
  // updates are the same incremental-vs-rebuild decision.
  const double incremental =
      counter("partition.workgrid_cache.incremental_builds") +
      counter("core.managed_run.canonical_incremental");
  out["partition.incremental_ratio"] = ratio(
      incremental, incremental +
                       counter("partition.workgrid_cache.full_builds") +
                       counter("core.managed_run.canonical_full"));

  out["core.replay_self_ms"] = per_op(ledger.self_ms("TraceRunner.replay"));
  out["core.meta_select_ms"] = per_op(ledger.self_ms("MetaPartitioner.select"));
  out["core.meta_switches"] = per_op(counter("core.meta.switches"));
  out["core.managed_step_self_ms"] = per_op(ledger.self_ms("ManagedRun.step"));
  out["core.repartition_ms"] = per_op(ledger.self_ms("ManagedRun.repartition"));
  out["core.checkpoint_ms"] =
      per_op(ledger.self_ms("ManagedRun.take_checkpoint"));

  out["agents.sample_ms"] = per_op(ledger.self_ms("ComponentAgent.sample"));
  out["agents.adm_ms"] = per_op(ledger.self_ms("Adm.consolidate"));
  const double sent = counter("agents.messages.sent");
  out["agents.messages_sent"] = per_op(sent);
  out["agents.retry_ratio"] = ratio(counter("agents.reliable.retries"),
                                    counter("agents.reliable.sends"));
  out["agents.drop_ratio"] = ratio(counter("agents.messages.dropped"), sent);

  out["io.checkpoint_write_ms"] =
      per_op(ledger.self_ms("CheckpointStore.write"));
  out["io.checkpoint_writes"] = per_op(counter("io.checkpoint.writes"));
  out["io.checkpoint_bytes"] =
      per_op(ledger.arg_sum("CheckpointStore.write", "payload_bytes"));

  out["unattributed_frac"] = ledger.unattributed_frac();
}

void emit_layers(const LayerValues& values, Result& result) {
  for (const auto& [name, unit] : layer_list()) {
    const auto it = values.find(name);
    result.add(name, it == values.end() ? 0.0 : it->second, unit);
  }
}

void print_layer_shares(const std::map<std::string, double>& layer_ms,
                        double wall_ms) {
  std::printf(
      "  self time per layer in the timed phase (traced; summed over "
      "threads, so shares can pass 100%% when runs overlap):\n");
  for (const auto& [layer, ms] : layer_ms)
    std::printf("    %-12s %12.3f ms  %6.2f%%\n", layer.c_str(), ms,
                wall_ms > 0.0 ? 100.0 * ms / wall_ms : 0.0);
}

}  // namespace perfbench
