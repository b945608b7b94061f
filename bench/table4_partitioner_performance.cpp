// Table 4 — "Partitioner performance for RM3D application on 64
// processors."
//
// Replays the canonical RM3D adaptation trace on a simulated 64-processor
// Blue-Horizon-class cluster under each static partitioner the paper
// reports (SFC, G-MISP+SP, pBD-ISP) and under the octant-driven adaptive
// meta-partitioner, and prints run-time, maximum load imbalance and AMR
// efficiency next to the paper's values.
//
// Absolute times differ (our substrate is a simulator); the shape to check
// is: adaptive is the fastest, SFC the slowest, G-MISP+SP has the best
// imbalance among the statics, AMR efficiency is nearly partitioner-
// independent, and the adaptive improvement over the slowest partitioner
// is a few tens of percent (paper: 27.2%).
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "pragma/core/trace_runner.hpp"
#include "pragma/policy/builtin.hpp"

using namespace pragma;

int main() {
  bench::banner("Table 4", "Partitioner performance for RM3D on 64 processors");

  const amr::AdaptationTrace trace = bench::canonical_rm3d_trace();
  const grid::Cluster cluster = grid::ClusterBuilder::homogeneous(64);
  const policy::PolicyBase policies = policy::standard_policy_base();

  core::TraceRunConfig config;
  core::TraceRunner runner(trace, cluster, config);

  struct PaperRow {
    const char* name;
    double runtime;
    double imbalance;
    double efficiency;
  };
  const PaperRow paper[] = {
      {"SFC", 484.502, 24.878, 98.8207},
      {"G-MISP+SP", 405.062, 11.3178, 98.7778},
      {"pBD-ISP", 414.952, 35.0317, 98.8582},
      {"adaptive", 352.824, 8.11825, 98.7633},
  };

  std::vector<core::RunSummary> runs;
  for (const char* name : {"SFC", "G-MISP+SP", "pBD-ISP"})
    runs.push_back(runner.run_static(name));
  runs.push_back(runner.run_adaptive(policies));

  util::TextTable table({"Partitioner", "Run-time (s)", "Load Imb. (%)",
                         "AMR Eff. (%)", "paper rt (s)", "paper imb (%)",
                         "paper eff (%)"});
  table.set_alignment(0, util::Align::kLeft);
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const core::RunSummary& run = runs[i];
    table.add_row({run.label, util::cell(run.runtime_s, 3),
                   util::cell(run.mean_imbalance * 100.0, 3),
                   util::cell(run.amr_efficiency * 100.0, 4),
                   util::cell(paper[i].runtime, 3),
                   util::cell(paper[i].imbalance, 4),
                   util::cell(paper[i].efficiency, 4)});
  }
  std::cout << table.render();

  double slowest = 0.0;
  for (const core::RunSummary& run : runs)
    slowest = std::max(slowest, run.runtime_s);
  const double adaptive = runs.back().runtime_s;
  std::cout << "\nAdaptive improvement over the slowest partitioner: "
            << util::cell((slowest - adaptive) / slowest * 100.0, 1)
            << "%  (paper: 27.2%)\n"
            << "Adaptive partitioner switches: " << runs.back().switches
            << "\n\nCost breakdown (simulated seconds):\n";

  util::TextTable breakdown({"Partitioner", "compute", "comm", "migration",
                             "partitioning"});
  breakdown.set_alignment(0, util::Align::kLeft);
  for (const core::RunSummary& run : runs)
    breakdown.add_row({run.label, util::cell(run.compute_s, 1),
                       util::cell(run.comm_s, 1),
                       util::cell(run.migration_s, 1),
                       util::cell(run.partition_s, 1)});
  std::cout << breakdown.render();

  util::BenchJsonWriter json;
  for (const core::RunSummary& run : runs)
    json.entry(run.label)
        .field("runtime_s", run.runtime_s, 3)
        .field("mean_imbalance", run.mean_imbalance, 5)
        .field("amr_efficiency", run.amr_efficiency, 5)
        .field("compute_s", run.compute_s, 3)
        .field("comm_s", run.comm_s, 3)
        .field("migration_s", run.migration_s, 3)
        .field("partition_s", run.partition_s, 3)
        .field("switches", run.switches);
  json.entry("adaptive_improvement")
      .field("percent", (slowest - adaptive) / slowest * 100.0, 2);
  bench::write_bench_json(json, "BENCH_table4_partitioner_performance.json");
  return 0;
}
