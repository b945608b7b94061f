// Cross-module integration tests: full trace replays and the
// system-sensitive experiment, at reduced scale for test-suite speed.
#include <gtest/gtest.h>

// EXPECT_THROW intentionally discards nodiscard results.
#pragma GCC diagnostic ignored "-Wunused-result"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "pragma/amr/rm3d.hpp"
#include "pragma/core/system_sensitive.hpp"
#include "pragma/core/trace_runner.hpp"
#include "pragma/obs/tracer.hpp"
#include "pragma/policy/builtin.hpp"

namespace pragma::core {
namespace {

const amr::AdaptationTrace& short_rm3d_trace() {
  static const amr::AdaptationTrace trace = [] {
    amr::Rm3dConfig config;
    config.coarse_steps = 200;  // covers startup, shock and hit phases
    return amr::Rm3dEmulator(config).run();
  }();
  return trace;
}

/// Every RunSummary field and SnapshotRecord of a replay, at %.17g.
std::string summary_text(const RunSummary& s, std::size_t nprocs) {
  std::string out;
  char line[512];
  std::snprintf(line, sizeof(line),
                "run %s nprocs=%zu runtime_s=%.17g compute_s=%.17g "
                "comm_s=%.17g migration_s=%.17g partition_s=%.17g "
                "max_imbalance=%.17g mean_imbalance=%.17g "
                "amr_efficiency=%.17g switches=%zu records=%zu\n",
                s.label.c_str(), nprocs, s.runtime_s, s.compute_s, s.comm_s,
                s.migration_s, s.partition_s, s.max_imbalance,
                s.mean_imbalance, s.amr_efficiency, s.switches,
                s.records.size());
  out += line;
  for (const SnapshotRecord& r : s.records) {
    std::snprintf(line, sizeof(line),
                  "  %d %s %s %.17g %.17g %.17g %.17g %.17g %.17g\n",
                  r.step, r.partitioner.c_str(),
                  r.octant.empty() ? "-" : r.octant.c_str(), r.step_time_s,
                  r.imbalance, r.comm_volume, r.migration_s, r.partition_s,
                  r.amr_efficiency);
    out += line;
  }
  return out;
}

/// The Table 4 strategies on 16 and 64 homogeneous processors, one runner
/// per processor count, with the modeled (deterministic) partitioning cost
/// and the serial pipeline.
std::string replay_reference_text() {
  const policy::PolicyBase policies = policy::standard_policy_base();
  std::string out;
  for (const std::size_t nprocs : {std::size_t{16}, std::size_t{64}}) {
    const grid::Cluster cluster = grid::ClusterBuilder::homogeneous(nprocs);
    TraceRunConfig config;
    config.nprocs = nprocs;
    config.threads = 1;
    config.modeled_partition_s_per_cell = 50e-9;
    const TraceRunner runner(short_rm3d_trace(), cluster, config);
    for (const char* strategy : {"SFC", "G-MISP+SP", "pBD-ISP", "adaptive"})
      out += summary_text(std::string(strategy) == "adaptive"
                              ? runner.run_adaptive(policies)
                              : runner.run_static(strategy),
                          nprocs);
  }
  return out;
}

// Pins replay outputs bit for bit.  On a mismatch the regenerated text is
// written to trace_replay_reference.actual in the working directory; after
// a deliberate change to replay numbers, copy it over the reference.
TEST(TraceRunner, ReplayMatchesCommittedReference) {
  const std::string path =
      std::string(PRAGMA_SOURCE_DIR) + "/ci/trace_replay_reference.out";
  std::ifstream in(path, std::ios::binary);
  std::ostringstream expected;
  expected << in.rdbuf();
  const std::string actual = replay_reference_text();
  if (actual == expected.str()) return;
  std::ofstream("trace_replay_reference.actual", std::ios::binary) << actual;
  std::istringstream a(actual);
  std::istringstream e(expected.str());
  std::string a_line;
  std::string e_line;
  for (int n = 1;; ++n) {
    const bool more_a = static_cast<bool>(std::getline(a, a_line));
    const bool more_e = static_cast<bool>(std::getline(e, e_line));
    if (!more_a && !more_e) break;
    if (!more_a || !more_e || a_line != e_line) {
      ADD_FAILURE() << path << " differs at line " << n << "\n  expected: "
                    << (more_e ? e_line : "<eof>")
                    << "\n  actual:   " << (more_a ? a_line : "<eof>");
      return;
    }
  }
}

TEST(TraceRunner, ValidatesConfiguration) {
  const grid::Cluster cluster = grid::ClusterBuilder::homogeneous(4);
  TraceRunConfig config;
  config.nprocs = 8;  // more than the cluster has
  EXPECT_THROW(TraceRunner(short_rm3d_trace(), cluster, config),
               std::invalid_argument);
  amr::AdaptationTrace empty;
  EXPECT_THROW(TraceRunner(empty, cluster, {}), std::invalid_argument);
}

TEST(TraceRunner, StaticReplayProducesRecordsPerSnapshot) {
  const grid::Cluster cluster = grid::ClusterBuilder::homogeneous(16);
  TraceRunConfig config;
  config.nprocs = 16;
  TraceRunner runner(short_rm3d_trace(), cluster, config);
  const RunSummary summary = runner.run_static("ISP");
  EXPECT_EQ(summary.records.size(), short_rm3d_trace().size());
  EXPECT_GT(summary.runtime_s, 0.0);
  EXPECT_GT(summary.compute_s, 0.0);
  EXPECT_GT(summary.comm_s, 0.0);
  EXPECT_GE(summary.max_imbalance, summary.mean_imbalance);
  EXPECT_GT(summary.amr_efficiency, 0.9);
  EXPECT_EQ(summary.label, "ISP");
}

TEST(TraceRunner, RuntimeDecomposesIntoComponents) {
  const grid::Cluster cluster = grid::ClusterBuilder::homogeneous(16);
  TraceRunConfig config;
  config.nprocs = 16;
  TraceRunner runner(short_rm3d_trace(), cluster, config);
  const RunSummary s = runner.run_static("pBD-ISP");
  EXPECT_NEAR(s.runtime_s,
              s.compute_s + s.comm_s + s.migration_s + s.partition_s,
              0.02 * s.runtime_s);
}

TEST(TraceRunner, OptimalBalancerBeatsBaselineOnImbalance) {
  const grid::Cluster cluster = grid::ClusterBuilder::homogeneous(16);
  TraceRunConfig config;
  config.nprocs = 16;
  TraceRunner runner(short_rm3d_trace(), cluster, config);
  const RunSummary sfc = runner.run_static("SFC");
  const RunSummary gmisp_sp = runner.run_static("G-MISP+SP");
  EXPECT_LT(gmisp_sp.mean_imbalance, sfc.mean_imbalance);
}

TEST(TraceRunner, AdaptiveRunsAndSwitches) {
  const grid::Cluster cluster = grid::ClusterBuilder::homogeneous(16);
  const policy::PolicyBase policies = policy::standard_policy_base();
  TraceRunConfig config;
  config.nprocs = 16;
  TraceRunner runner(short_rm3d_trace(), cluster, config);
  const RunSummary adaptive = runner.run_adaptive(policies);
  EXPECT_EQ(adaptive.label, "adaptive");
  // The 200-step prefix crosses the quiescent -> shock transition, so at
  // least one octant-driven switch must occur.
  EXPECT_GE(adaptive.switches, 1u);
  // Octant recorded on every snapshot.
  for (const SnapshotRecord& record : adaptive.records)
    EXPECT_FALSE(record.octant.empty());
}

TEST(TraceRunner, AdaptiveCompetitiveWithStatics) {
  const grid::Cluster cluster = grid::ClusterBuilder::homogeneous(16);
  const policy::PolicyBase policies = policy::standard_policy_base();
  TraceRunConfig config;
  config.nprocs = 16;
  TraceRunner runner(short_rm3d_trace(), cluster, config);
  const double adaptive = runner.run_adaptive(policies).runtime_s;
  const double sfc = runner.run_static("SFC").runtime_s;
  // The headline claim at reduced scale: adaptive beats the baseline.
  EXPECT_LT(adaptive, sfc);
}

TEST(TraceRunner, LazyRepartitioningReducesMigration) {
  const grid::Cluster cluster = grid::ClusterBuilder::homogeneous(16);
  const policy::PolicyBase policies = policy::standard_policy_base();
  TraceRunConfig eager;
  eager.nprocs = 16;
  eager.repartition_threshold = 0.0;  // repartition every regrid
  TraceRunConfig lazy;
  lazy.nprocs = 16;
  lazy.repartition_threshold = 0.3;
  TraceRunner eager_runner(short_rm3d_trace(), cluster, eager);
  TraceRunner lazy_runner(short_rm3d_trace(), cluster, lazy);
  const RunSummary eager_run = eager_runner.run_adaptive(policies);
  const RunSummary lazy_run = lazy_runner.run_adaptive(policies);
  EXPECT_LT(lazy_run.migration_s, eager_run.migration_s);
}

TEST(TraceRunner, WeightedTargetsShiftLoad) {
  const grid::Cluster cluster = grid::ClusterBuilder::homogeneous(4);
  TraceRunConfig config;
  config.nprocs = 4;
  config.targets = {0.55, 0.15, 0.15, 0.15};
  TraceRunner runner(short_rm3d_trace(), cluster, config);
  const RunSummary summary = runner.run_static("G-MISP+SP");
  // Imbalance is measured against the weighted targets, so a partitioner
  // honoring them stays moderate.
  EXPECT_LT(summary.mean_imbalance, 0.6);
}

// Records and the adaptive reuse check both divide the targets by their
// sum, so doubling every target (exact in binary) must leave the whole
// replay unchanged bit for bit, including which partitions are kept.
TEST(TraceRunner, AdaptiveReuseIsInvariantToTargetScale) {
  const grid::Cluster cluster = grid::ClusterBuilder::homogeneous(4);
  const policy::PolicyBase policies = policy::standard_policy_base();
  const auto replay = [&](double scale) {
    TraceRunConfig config;
    config.nprocs = 4;
    config.threads = 1;
    config.modeled_partition_s_per_cell = 50e-9;
    config.targets = {0.4 * scale, 0.2 * scale, 0.2 * scale, 0.2 * scale};
    return TraceRunner(short_rm3d_trace(), cluster, config)
        .run_adaptive(policies);
  };
  const RunSummary base = replay(1.0);
  std::size_t kept = 0;
  for (const SnapshotRecord& record : base.records)
    kept += record.partition_s == 0.0 ? 1 : 0;
  EXPECT_GT(kept, 0u);
  EXPECT_LT(kept, base.records.size());
  EXPECT_EQ(summary_text(replay(2.0), 4), summary_text(base, 4));
}

// A replay keeps the grids it uses: it asks a shared cache once per
// (snapshot, grain, curve) key, never for a grid it already holds, and the
// cache changes no number.
TEST(TraceRunner, ReplayRequestsEachGridOnce) {
  const grid::Cluster cluster = grid::ClusterBuilder::homogeneous(16);
  const policy::PolicyBase policies = policy::standard_policy_base();
  for (const std::string strategy : {"SFC", "adaptive"}) {
    SCOPED_TRACE(strategy);
    const auto replay = [&](partition::WorkGridCache* cache) {
      TraceRunConfig config;
      config.nprocs = 16;
      config.modeled_partition_s_per_cell = 50e-9;
      config.shared_cache = cache;
      const TraceRunner runner(short_rm3d_trace(), cluster, config);
      return strategy == "adaptive" ? runner.run_adaptive(policies)
                                    : runner.run_static(strategy);
    };
    // Room for every key, so no grid is evicted before a second request.
    partition::WorkGridCache cache(/*max_entries=*/4096);
    const RunSummary shared = replay(&cache);
    const partition::WorkGridCache::Stats stats = cache.stats();
    EXPECT_EQ(stats.hits, 0u);
    EXPECT_EQ(stats.evictions, 0u);
    EXPECT_EQ(stats.misses, cache.size());
    // SFC partitions a (4, Morton) grid, never the canonical one.
    if (strategy == "SFC") {
      EXPECT_EQ(cache.size(), 2 * shared.records.size());
    }
    EXPECT_EQ(summary_text(shared, 16), summary_text(replay(nullptr), 16));
  }
}

// On a federated cluster a replay charges the ghost traffic between sites
// to the shared WAN: the same partitions run slower over a slower WAN, and
// only the communication time changes.
TEST(TraceRunner, FederatedReplayChargesTheWan) {
  amr::Rm3dConfig app;
  app.coarse_steps = 64;
  const amr::AdaptationTrace trace = amr::Rm3dEmulator(app).run();
  TraceRunConfig config;
  config.nprocs = 16;
  config.modeled_partition_s_per_cell = 50e-9;
  std::vector<RunSummary> runs;
  for (const double wan_mbps : {1.0, 20.0, 10000.0}) {
    const grid::Cluster cluster =
        grid::ClusterBuilder::federated(2, 8, 1.0, 1000.0, wan_mbps);
    runs.push_back(TraceRunner(trace, cluster, config).run_static("SFC"));
  }
  EXPECT_GT(runs[0].comm_s, runs[1].comm_s);
  EXPECT_GT(runs[1].comm_s, runs[2].comm_s);
  EXPECT_GT(runs[0].runtime_s, runs[1].runtime_s);
  EXPECT_GT(runs[1].runtime_s, runs[2].runtime_s);
  EXPECT_EQ(runs[0].compute_s, runs[2].compute_s);
  EXPECT_EQ(runs[0].migration_s, runs[2].migration_s);
}

TEST(SystemSensitive, ImprovesOnHeterogeneousCluster) {
  SystemSensitiveConfig config;
  config.nprocs = 12;
  const SystemSensitiveResult result =
      run_system_sensitive_experiment(short_rm3d_trace(), config);
  EXPECT_GT(result.default_runtime_s, 0.0);
  EXPECT_GT(result.improvement, 0.0);
  EXPECT_LT(result.sensitive_imbalance, result.default_imbalance);
  EXPECT_EQ(result.capacities.size(), 12u);
}

TEST(SystemSensitive, CapacitiesSumToOne) {
  SystemSensitiveConfig config;
  config.nprocs = 6;
  const SystemSensitiveResult result =
      run_system_sensitive_experiment(short_rm3d_trace(), config);
  double total = 0.0;
  for (std::size_t i = 0; i < result.capacities.size(); ++i)
    total += result.capacities[i];
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(SystemSensitive, DeterministicForSeed) {
  SystemSensitiveConfig config;
  config.nprocs = 6;
  const SystemSensitiveResult a =
      run_system_sensitive_experiment(short_rm3d_trace(), config);
  const SystemSensitiveResult b =
      run_system_sensitive_experiment(short_rm3d_trace(), config);
  EXPECT_DOUBLE_EQ(a.default_runtime_s, b.default_runtime_s);
  EXPECT_DOUBLE_EQ(a.sensitive_runtime_s, b.sensitive_runtime_s);
}

TEST(SystemSensitive, HomogeneousClusterGainsLittle) {
  SystemSensitiveConfig heterogeneous;
  heterogeneous.nprocs = 8;
  SystemSensitiveConfig homogeneous = heterogeneous;
  homogeneous.capacity_spread = 0.01;
  homogeneous.load.node_bias_spread = 0.0;
  const double gain_hetero =
      run_system_sensitive_experiment(short_rm3d_trace(), heterogeneous)
          .improvement;
  const double gain_homo =
      run_system_sensitive_experiment(short_rm3d_trace(), homogeneous)
          .improvement;
  EXPECT_GT(gain_hetero, gain_homo);
}

// G-MISP+SP partitions at the canonical key (grain 2, Hilbert), so an
// experiment without a shared cache rasterizes each snapshot once.
TEST(SystemSensitive, CanonicalGridDoublesAsNative) {
  const amr::AdaptationTrace& trace = short_rm3d_trace();
  SystemSensitiveConfig config;
  config.nprocs = 6;
  ASSERT_EQ(config.partitioner, "G-MISP+SP");
  ASSERT_EQ(config.workgrid_cache, nullptr);
  obs::Tracer& tracer = obs::Tracer::instance();
  tracer.clear();
  tracer.set_enabled(true);
  (void)run_system_sensitive_experiment(trace, config);
  const std::vector<obs::TraceEvent> events = tracer.events();
  tracer.set_enabled(false);
  tracer.clear();
  const auto builds = std::count_if(
      events.begin(), events.end(), [](const obs::TraceEvent& event) {
        return std::strcmp(event.name, "WorkGrid.build") == 0;
      });
  EXPECT_EQ(static_cast<std::size_t>(builds), trace.size());
}

}  // namespace
}  // namespace pragma::core
