// The three perfbench workloads.  Each one drives pragma through its
// public API, checks every output it times, and reports either the
// end-to-end metrics (untraced) or the per-layer ledger (traced).
//
// End-to-end metrics are shared by all workloads, so every run prints the
// same keys; what one timed operation and one unit of work are differs:
//   managed_rm3d   op = one Runtime::run of the Section 4.7 managed run,
//                  work = coarse steps
//   trace_replay   op = one Table 4 repetition (every strategy x processor
//                  count replayed once), work = snapshots replayed
//   service_burst  op = one submitted replay spec, work = phase-B resolved
//                  handles
// The workload-specific metrics (managed.steps_per_s, burst.e2e_ms, ...)
// are printed in the human-readable report above the JSON line.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "perfbench.hpp"
#include "pragma/amr/cluster_br.hpp"
#include "pragma/amr/flags.hpp"
#include "pragma/amr/rm3d.hpp"
#include "pragma/core/trace_runner.hpp"
#include "pragma/grid/cluster.hpp"
#include "pragma/obs/obs.hpp"
#include "pragma/octant/octant.hpp"
#include "pragma/policy/builtin.hpp"
#include "pragma/service/journal.hpp"
#include "pragma/service/runtime.hpp"
#include "pragma/util/rng.hpp"
#include "pragma/util/table.hpp"

namespace fs = std::filesystem;
using namespace pragma;

namespace perfbench {
namespace {

/// Set-up is repeated this many times per run and its median reported.
constexpr int kSetupRepeats = 3;
/// Deterministic partitioner cost (the --deterministic knob of the
/// examples), so every replay and managed run repeats bitwise.
constexpr double kModeledPartitionSPerCell = 50e-9;

/// service_burst phase A: offered arrival rate, about a quarter of the
/// phase-B drain capacity (140-220 handles/s measured on 4 cores with 3
/// scheduler workers).  At half capacity the phase-A median swung by 40%
/// with host speed alone, because queueing amplifies every slowdown.
constexpr double kBurstRatePerS = 40.0;
/// service_burst: runs slower than this from due time to outcome miss
/// the SLO (sheds and failures miss it too).
constexpr double kBurstSloMs = 250.0;
/// service_burst: phase A must finish its backlog within this long after
/// its last arrival (hundreds of queued runs), or the offered rate was
/// above capacity.
constexpr double kBurstMaxDrainTailS = 5.0;
constexpr int kBurstTenants = 16;
constexpr std::size_t kBurstBatch = 64;
constexpr std::size_t kBurstQueueCapacity = 1 << 16;

const std::vector<std::string> kStrategies = {"SFC", "G-MISP+SP", "pBD-ISP",
                                              "adaptive"};
const std::vector<std::size_t> kProcs = {16, 64};
/// Replay configurations: config c is strategy c / 2 on kProcs[c % 2].
constexpr std::size_t kConfigs = 8;

/// A scratch directory that is empty when created and removed when the
/// owner goes away.
class ScratchDir {
 public:
  explicit ScratchDir(fs::path path) : path_(std::move(path)) {
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~ScratchDir() {
    std::error_code ignored;
    fs::remove_all(path_, ignored);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  [[nodiscard]] std::string sub(const std::string& name) const {
    return (path_ / name).string();
  }

 private:
  fs::path path_;
};

/// Run `make` kSetupRepeats times, keeping the last state; the median
/// time goes to *setup_s.  The previous state is freed before the next
/// one is built so peak memory holds one set-up.
template <class Make>
auto repeat_setup(Make make, double* setup_s) {
  std::vector<double> times;
  decltype(make(0)) state;
  for (int i = 0; i < kSetupRepeats; ++i) {
    state.reset();
    const Clock::time_point t0 = Clock::now();
    state = make(i);
    times.push_back(seconds_since(t0));
  }
  *setup_s = median(times);
  return state;
}

bool same_summary(const core::RunSummary& a, const core::RunSummary& b) {
  if (a.label != b.label || a.runtime_s != b.runtime_s ||
      a.compute_s != b.compute_s || a.comm_s != b.comm_s ||
      a.migration_s != b.migration_s || a.partition_s != b.partition_s ||
      a.max_imbalance != b.max_imbalance ||
      a.mean_imbalance != b.mean_imbalance ||
      a.amr_efficiency != b.amr_efficiency || a.switches != b.switches ||
      a.records.size() != b.records.size())
    return false;
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    const core::SnapshotRecord& x = a.records[i];
    const core::SnapshotRecord& y = b.records[i];
    if (x.step != y.step || x.partitioner != y.partitioner ||
        x.octant != y.octant || x.step_time_s != y.step_time_s ||
        x.imbalance != y.imbalance || x.comm_volume != y.comm_volume ||
        x.migration_s != y.migration_s || x.partition_s != y.partition_s ||
        x.amr_efficiency != y.amr_efficiency)
      return false;
  }
  return true;
}

core::TraceRunConfig replay_config(std::size_t nprocs) {
  core::TraceRunConfig config;
  config.nprocs = nprocs;
  config.threads = 1;
  config.modeled_partition_s_per_cell = kModeledPartitionSPerCell;
  return config;
}

core::RunSummary replay_once(const core::TraceRunner& runner,
                             const std::string& strategy,
                             const policy::PolicyBase& policies) {
  return strategy == "adaptive" ? runner.run_adaptive(policies)
                                : runner.run_static(strategy);
}

/// Fisher-Yates with the repository's seeded generator.
template <class T>
void shuffle(std::vector<T>& items, util::Rng& rng) {
  for (std::size_t i = items.size(); i > 1; --i)
    std::swap(items[i - 1], items[static_cast<std::size_t>(rng.uniform_int(
                                0, static_cast<std::int64_t>(i) - 1))]);
}

/// `n` config ids, each config equally often (up to rounding), shuffled.
std::vector<std::size_t> balanced_configs(std::size_t n, util::Rng& rng) {
  std::vector<std::size_t> configs(n);
  for (std::size_t i = 0; i < n; ++i) configs[i] = i % kConfigs;
  shuffle(configs, rng);
  return configs;
}

/// Run `op` back to back until `budget_s` has passed (at least once);
/// returns the wall time.
double run_for(double budget_s, const std::function<void()>& op) {
  const Clock::time_point t0 = Clock::now();
  do {
    op();
  } while (seconds_since(t0) < budget_s);
  return seconds_since(t0);
}

void print_header(const Options& options, const char* what) {
  std::printf("perfbench %s (seed %llu, %.0f s, %s)\n", what,
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? "traced" : "untraced");
}

/// Untraced tail shared by every workload: print set-up, memory and the
/// failure share, then report the end-to-end metrics.
void report_end_to_end(Result& result, double setup_s, double work_per_s) {
  const double rss_mb = peak_rss_mb();
  print_line("setup_s", setup_s, "s");
  print_line("peak_rss_mb", rss_mb, "MiB");
  print_line("fail_frac",
             static_cast<double>(result.failed) /
                 static_cast<double>(std::max<std::uint64_t>(1, result.attempted)),
             "ratio");
  result.add("setup_s", setup_s, "s");
  result.add("peak_rss_mb", rss_mb, "MiB");
  result.add("work_per_s", work_per_s, "1/s");
}

/// Traced mode tail: write the span trace for trace_check.
void export_trace(const Options& options, Result& result) {
  result.check(obs::Tracer::instance().write(options.trace_out),
               "cannot write trace " + options.trace_out);
}

// ---------------------------------------------------------------------------
// managed_rm3d
// ---------------------------------------------------------------------------

/// The managed_execution example's `--deterministic --ft` run.
service::RunSpec managed_spec(int steps, std::size_t procs) {
  service::RunSpec spec;
  spec.name = "managed-execution";
  spec.app.coarse_steps = steps;
  spec.nprocs = procs;
  spec.capacity_spread = 0.35;
  spec.with_background_load = true;
  spec.system_sensitive = true;
  spec.ft.enabled = true;
  spec.ft.channel.drop_probability = 0.05;
  spec.persist.enabled = true;
  spec.modeled_partition_s_per_cell = kModeledPartitionSPerCell;
  spec.failures.push_back({60.0, 3, 120.0});
  return spec;
}

/// The stdout of `managed_execution --deterministic --ft` for `report`.
std::string render_managed(const service::RunSpec& spec,
                           const core::ManagedRunReport& report) {
  std::ostringstream out;
  out << "Running " << spec.app.coarse_steps << " managed coarse steps on "
      << spec.nprocs << " heterogeneous nodes...\n";
  util::TextTable table({"metric", "value"});
  table.set_alignment(0, util::Align::kLeft);
  table.add_row({"simulated execution time (s)",
                 util::cell(report.total_time_s, 1)});
  table.add_row({"regrids", util::cell(report.regrids)});
  table.add_row({"regrid repartitions", util::cell(report.repartitions)});
  table.add_row({"agent threshold events", util::cell(report.agent_events)});
  table.add_row({"ADM decisions", util::cell(report.adm_decisions)});
  table.add_row({"event-triggered repartitions",
                 util::cell(report.event_repartitions)});
  table.add_row({"failure-driven migrations", util::cell(report.migrations)});
  table.add_row({"partitioner switches",
                 util::cell(report.partitioner_switches)});
  out << table.render();
  out << "\nTimeline excerpt (every 10th regrid):\n";
  util::TextTable timeline({"step", "octant", "partitioner", "live nodes",
                            "imbalance", "step time (s)"});
  for (std::size_t i = 0; i < report.records.size(); i += 10) {
    const core::ManagedStepRecord& r = report.records[i];
    timeline.add_row({util::cell(r.step), r.octant, r.partitioner,
                      util::cell(r.live_nodes), util::percent_cell(r.imbalance),
                      util::cell(r.step_time_s, 3)});
  }
  out << timeline.render()
      << "\nWatch 'live nodes' drop when the failure hits and the"
         " octant/partitioner\ncolumn react as the run passes through"
         " its phases.\n";
  return out.str();
}

/// Every simulated figure of a managed report, exactly.
std::string fingerprint(const core::ManagedRunReport& r) {
  std::ostringstream out;
  out.precision(17);
  out << r.total_time_s << ' ' << r.regrids << ' ' << r.repartitions << ' '
      << r.agent_events << ' ' << r.adm_decisions << ' '
      << r.event_repartitions << ' ' << r.migrations << ' '
      << r.partitioner_switches << ' ' << r.checkpoints << ' '
      << r.checkpoint_time_s << ' ' << r.detected_failures << ' '
      << r.recovery_time_s << ' ' << r.cells_advanced << ' '
      << r.messages_lost << ' ' << r.checkpoints_persisted << '\n';
  for (const core::ManagedStepRecord& s : r.records)
    out << s.step << ' ' << s.octant << ' ' << s.partitioner << ' '
        << s.sim_time_s << ' ' << s.step_time_s << ' ' << s.imbalance << ' '
        << s.live_nodes << ' ' << s.recovery_s << '\n';
  return out.str();
}

/// Bench-side AMR probe: replay the emulator a managed run drives (a pure
/// function of its Rm3dConfig) with spans around advance(), and at every
/// regrid rebuild the flags with FlagField::flag_where + indicator and
/// re-cluster them, requiring the rebuilt boxes to equal the hierarchy's.
void probe_amr(const amr::Rm3dConfig& config, LayerValues& out,
               Result& result) {
  // Pass 1 times advance() alone, so the flag rebuild of pass 2 cannot
  // disturb it (caches, allocator).
  {
    amr::Rm3dEmulator emulator(config);
    while (emulator.step() < config.coarse_steps) {
      obs::Span span("amr", "Rm3dEmulator.advance");
      (void)emulator.advance();
    }
  }
  amr::Rm3dEmulator emulator(config);
  double regrids = 0.0;
  double refined_cells = 0.0;
  double flagged = 0.0;
  double evaluated = 0.0;
  bool boxes_match = true;
  while (emulator.step() < config.coarse_steps) {
    if (!emulator.advance()) continue;
    regrids += 1.0;
    const amr::GridHierarchy& h = emulator.hierarchy();
    for (int l = 1; l < h.num_levels(); ++l)
      refined_cells += static_cast<double>(h.level(l).cell_count());

    const double tau = emulator.normalized_time();
    for (int level = 0; level + 1 < config.max_levels; ++level) {
      std::vector<amr::Box> coverage;
      if (level == 0)
        coverage.push_back(h.level_domain(0));
      else if (level < h.num_levels())
        coverage = h.level(level).boxes;
      const std::vector<amr::Box> expected =
          level + 1 < h.num_levels() ? h.level(level + 1).boxes
                                     : std::vector<amr::Box>{};
      if (coverage.empty()) {
        boxes_match = boxes_match && expected.empty();
        break;
      }
      const auto r = static_cast<double>(h.cumulative_ratio(level));
      const double nx = config.base_dims.x * r;
      const double ny = config.base_dims.y * r;
      const double nz = config.base_dims.z * r;
      const double threshold =
          config.thresholds[static_cast<std::size_t>(level)];
      const amr::Box domain = amr::bounding_box(coverage);
      amr::FlagField flags(domain);
      std::size_t last = 0;  // cells arrive in row order: usually same box
      {
        obs::Span span("amr", "FlagField.flag_where");
        flags.flag_where([&](amr::IntVec3 p) {
          if (!coverage[last].contains(p)) {
            auto it = std::find_if(coverage.begin(), coverage.end(),
                                   [p](const amr::Box& b) {
                                     return b.contains(p);
                                   });
            if (it == coverage.end()) return false;
            last = static_cast<std::size_t>(it - coverage.begin());
          }
          evaluated += 1.0;
          return emulator.indicator((p.x + 0.5) / nx, (p.y + 0.5) / ny,
                                    (p.z + 0.5) / nz, tau) >= threshold;
        });
      }
      flagged += static_cast<double>(flags.count());
      if (!flags.any()) {
        boxes_match = boxes_match && expected.empty();
        break;
      }
      amr::ClusterOptions options = emulator.config().cluster;
      options.max_box_cells = 0;
      std::vector<amr::Box> clustered;
      {
        obs::Span span("amr", "cluster_flags");
        clustered = amr::cluster_flags(flags, domain, options);
      }
      std::vector<amr::Box> refined;
      const std::int64_t max_cells = emulator.config().cluster.max_box_cells;
      for (const amr::Box& box : clustered) {
        const amr::Box fine = box.refine(config.ratio);
        if (max_cells > 0 && fine.volume() > max_cells) {
          for (const amr::Box& piece : fine.chop(max_cells))
            refined.push_back(piece);
        } else {
          refined.push_back(fine);
        }
      }
      boxes_match = boxes_match && refined == expected;
    }
  }
  result.check(boxes_match,
               "amr probe: re-clustered boxes differ from the hierarchy");
  out["amr.regrids"] = regrids;
  out["amr.refined_cells"] = regrids > 0.0 ? refined_cells / regrids : 0.0;
  out["amr.flag_density"] = evaluated > 0.0 ? flagged / evaluated : 0.0;
}

struct ManagedSetup {
  std::unique_ptr<ScratchDir> dir;
  std::unique_ptr<service::Runtime> runtime;
};

}  // namespace

Result run_managed_rm3d(const Options& options) {
  print_header(options, "managed_rm3d");
  Result result;
  // The RM3D problem stays the paper's canonical one; the seed draws the
  // grid environment: node speeds, background load, channel drops.
  util::Rng rng(options.seed, 11);
  service::RunSpec base = managed_spec(200, 16);
  base.seed = static_cast<std::uint64_t>(rng.uniform_int(1, 1 << 30));

  // Set-up: a runtime, fresh checkpoint scratch, and the CI reference run
  // (60 steps on 8 procs, default seeds) whose table must equal the
  // committed ci/managed_execution_reference.out.  It also warms every
  // code path the timed runs take.
  std::string reference;
  {
    std::ifstream file("ci/managed_execution_reference.out",
                       std::ios::binary);
    std::ostringstream text;
    text << file.rdbuf();
    reference = text.str();
  }
  double setup_s = 0.0;
  bool reference_ok = true;
  const std::unique_ptr<ManagedSetup> setup = repeat_setup(
      [&](int i) {
        auto s = std::make_unique<ManagedSetup>();
        s->dir = std::make_unique<ScratchDir>(
            fs::path(options.scratch) / ("managed-" + std::to_string(i)));
        s->runtime = std::unique_ptr<service::Runtime>(
            new service::Runtime(service::Runtime::Builder{}.build()));
        service::RunSpec ref = managed_spec(60, 8);
        ref.persist.dir = s->dir->sub("reference");
        const service::RunOutcome out = s->runtime->run(ref);
        reference_ok = reference_ok &&
                       out.state == service::RunState::kCompleted &&
                       render_managed(ref, out.managed) == reference;
        fs::remove_all(ref.persist.dir);
        return s;
      },
      &setup_s);
  result.check(!reference.empty() && reference_ok,
               "60-step reference run differs from "
               "ci/managed_execution_reference.out");

  std::string first_fingerprint;
  int run_index = 0;
  const auto managed_op = [&](std::vector<double>& run_ms, bool traced) {
    service::RunSpec spec = base;
    spec.persist.dir = setup->dir->sub("run-" + std::to_string(run_index++));
    if (traced) spec.obs = {.tracing = true, .metrics = true};
    const Clock::time_point t0 = Clock::now();
    service::RunOutcome out;
    {
      obs::Span span("bench", "Runtime.run");
      out = setup->runtime->run(spec);
    }
    run_ms.push_back(seconds_since(t0) * 1000.0);
    ++result.attempted;
    const bool completed = out.state == service::RunState::kCompleted;
    const std::string print = completed ? fingerprint(out.managed) : "";
    if (first_fingerprint.empty()) first_fingerprint = print;
    result.check(completed && print == first_fingerprint,
                 "managed run " + spec.persist.dir +
                     " did not repeat the first run's report");
  };

  const double budget = options.trace ? options.seconds / 2.0 : options.seconds;
  std::vector<double> run_ms;
  const double wall_s = run_for(budget, [&] { managed_op(run_ms, false); });
  const double steps = static_cast<double>(run_ms.size()) * 200.0;

  if (!options.trace) {
    print_line("managed.steps_per_s", steps / wall_s, "coarse steps/s");
    print_timing("managed.run_ms", summarize(run_ms), "ms");
    report_end_to_end(result, setup_s, steps / wall_s);
    return result;
  }

  // Traced half: same runs with spans and counters on.
  set_tracing(true);
  obs::Tracer::instance().clear();
  std::vector<double> traced_ms;
  const double t0_us = obs::Tracer::now_us();
  const double traced_wall_s =
      run_for(budget, [&] { managed_op(traced_ms, true); });
  const double t1_us = obs::Tracer::now_us();
  set_tracing(false);

  LayerValues layers;
  obs::Tracer::instance().set_enabled(true);
  probe_amr(base.app, layers, result);
  obs::Tracer::instance().set_enabled(false);

  const Ledger ledger(obs::Tracer::instance().events(), t0_us, t1_us);
  const auto runs = static_cast<double>(traced_ms.size());
  fill_common_layers(ledger, runs, layers);
  const double amr_ms = ledger.total_ms("Rm3dEmulator.advance");
  layers["amr.regrid_ms"] = amr_ms;
  layers["amr.flag_ms"] = ledger.total_ms("FlagField.flag_where");
  layers["amr.cluster_ms"] = ledger.total_ms("cluster_flags");
  // advance() runs inside ManagedRun.step; move its time out of core.
  layers["core.managed_step_self_ms"] =
      std::max(0.0, layers["core.managed_step_self_ms"] - amr_ms);
  layers["trace_overhead_frac"] = median(traced_ms) / median(run_ms) - 1.0;

  std::map<std::string, double> shares = ledger.category_self_ms();
  shares.erase("bench");
  shares["core"] = std::max(0.0, shares["core"] - amr_ms * runs);
  shares["amr"] = amr_ms * runs;
  print_layer_shares(shares, traced_wall_s * 1000.0);
  export_trace(options, result);
  emit_layers(layers, result);
  return result;
}

namespace {

// ---------------------------------------------------------------------------
// trace_replay
// ---------------------------------------------------------------------------

struct ReplaySetup {
  std::unique_ptr<amr::AdaptationTrace> trace;
  std::vector<grid::Cluster> clusters;  ///< one per kProcs entry
};

}  // namespace

Result run_trace_replay(const Options& options) {
  print_header(options, "trace_replay");
  Result result;
  // The trace is the canonical one Table 4 replays; the seed draws the
  // order of the replays within each repetition.
  util::Rng rng(options.seed, 12);
  const amr::Rm3dConfig app;  // 128x32x32, 3 levels, 800 steps
  const policy::PolicyBase policies = policy::standard_policy_base();

  // Set-up: generate the trace, build the clusters, and warm allocators
  // with one replay on a throwaway runner.
  double setup_s = 0.0;
  const std::unique_ptr<ReplaySetup> setup = repeat_setup(
      [&](int) {
        auto s = std::make_unique<ReplaySetup>();
        s->trace = std::make_unique<amr::AdaptationTrace>(
            amr::Rm3dEmulator(app).run());
        for (const std::size_t procs : kProcs)
          s->clusters.push_back(grid::ClusterBuilder::homogeneous(procs));
        const core::TraceRunner warm(*s->trace, s->clusters.front(),
                                     replay_config(kProcs.front()));
        (void)replay_once(warm, "adaptive", policies);
        return s;
      },
      &setup_s);
  const amr::AdaptationTrace& trace = *setup->trace;
  const auto snapshots = static_cast<double>(trace.size());

  // One repetition (the timed operation) is a Table 4: every config once,
  // on fresh runners (cold work-grid caches).  The first repetition's
  // summaries are the reference for all later ones.
  std::vector<std::size_t> order = balanced_configs(kConfigs, rng);
  std::map<std::size_t, core::RunSummary> first;
  const auto repetition = [&](std::vector<double>& rep_ms,
                              std::vector<double>& replay_ms, bool traced) {
    const Clock::time_point rep_start = Clock::now();
    std::vector<std::unique_ptr<core::TraceRunner>> runners;
    for (std::size_t p = 0; p < kProcs.size(); ++p) {
      core::TraceRunConfig config = replay_config(kProcs[p]);
      if (traced) config.obs = {.tracing = true, .metrics = true};
      runners.push_back(std::make_unique<core::TraceRunner>(
          trace, setup->clusters[p], config));
    }
    shuffle(order, rng);
    for (const std::size_t c : order) {
      const std::string& strategy = kStrategies[c / kProcs.size()];
      const Clock::time_point t0 = Clock::now();
      core::RunSummary summary;
      {
        obs::Span span("bench", "TraceRunner.run");
        summary = replay_once(*runners[c % kProcs.size()], strategy, policies);
      }
      replay_ms.push_back(seconds_since(t0) * 1000.0);
      ++result.attempted;
      const auto [it, inserted] = first.emplace(c, summary);
      result.check(inserted || same_summary(summary, it->second),
                   "replay " + strategy + " on " +
                       std::to_string(kProcs[c % kProcs.size()]) +
                       " procs differs from the first repetition");
    }
    rep_ms.push_back(seconds_since(rep_start) * 1000.0);
  };

  const double budget = options.trace ? options.seconds / 2.0 : options.seconds;
  std::vector<double> rep_ms;
  std::vector<double> replay_ms;
  const double wall_s =
      run_for(budget, [&] { repetition(rep_ms, replay_ms, false); });
  const double replayed = static_cast<double>(replay_ms.size()) * snapshots;

  if (!options.trace) {
    print_line("replay.snapshots_per_s", replayed / wall_s, "snapshots/s");
    print_timing("replay.repetition_ms", summarize(rep_ms), "ms");
    print_timing("replay.replay_ms", summarize(replay_ms), "ms");
    report_end_to_end(result, setup_s, replayed / wall_s);
    return result;
  }

  set_tracing(true);
  obs::Tracer::instance().clear();
  std::vector<double> traced_ms;
  std::vector<double> traced_replay_ms;
  const double t0_us = obs::Tracer::now_us();
  const double traced_wall_s = run_for(
      budget, [&] { repetition(traced_ms, traced_replay_ms, true); });
  const double t1_us = obs::Tracer::now_us();
  set_tracing(false);

  // Octant probe: classify the replayed trace, a few times over.
  constexpr int kClassifyPasses = 3;
  obs::Tracer::instance().set_enabled(true);
  const octant::OctantClassifier classifier;
  for (int i = 0; i < kClassifyPasses; ++i) {
    obs::Span span("octant", "OctantClassifier.classify_all");
    result.check(classifier.classify_all(trace).size() == trace.size(),
                 "classify_all dropped snapshots");
  }
  obs::Tracer::instance().set_enabled(false);

  const Ledger ledger(obs::Tracer::instance().events(), t0_us, t1_us);
  LayerValues layers;
  fill_common_layers(ledger, static_cast<double>(traced_ms.size()), layers);
  layers["octant.classify_us"] =
      ledger.total_ms("OctantClassifier.classify_all") * 1000.0 /
      (kClassifyPasses * snapshots);
  layers["trace_overhead_frac"] = median(traced_ms) / median(rep_ms) - 1.0;
  std::map<std::string, double> shares = ledger.category_self_ms();
  shares.erase("bench");
  print_layer_shares(shares, traced_wall_s * 1000.0);
  export_trace(options, result);
  emit_layers(layers, result);
  return result;
}

namespace {

// ---------------------------------------------------------------------------
// service_burst
// ---------------------------------------------------------------------------

struct BurstSetup {
  std::unique_ptr<ScratchDir> dir;
  std::shared_ptr<const amr::AdaptationTrace> trace;
  std::vector<core::RunSummary> refs;  ///< per config, computed directly
  /// Last: destroyed first, before its journal directory goes.
  std::unique_ptr<service::Runtime> runtime;
};

service::RunSpec burst_spec(const BurstSetup& s, std::size_t config,
                            std::string name, std::string tenant) {
  service::RunSpec spec = s.runtime->spec();
  spec.kind = service::WorkloadKind::kTraceReplay;
  spec.trace = s.trace;
  spec.strategy = kStrategies[config / kProcs.size()];
  spec.nprocs = kProcs[config % kProcs.size()];
  spec.threads = 1;
  spec.modeled_partition_s_per_cell = kModeledPartitionSPerCell;
  spec.name = std::move(name);
  spec.tenant = std::move(tenant);
  return spec;
}

std::string tenant_name(std::int64_t i) {
  char name[8];
  std::snprintf(name, sizeof name, "t%02d", static_cast<int>(i));
  return name;
}

/// Wait for a handle and check its replay against the reference.
const service::RunOutcome* await(service::RunHandle& handle,
                                 const core::RunSummary& ref,
                                 Result& result) {
  const service::RunOutcome& out = handle.wait();
  const bool ok = out.state == service::RunState::kCompleted &&
                  same_summary(out.replay, ref);
  result.check(ok, "burst run " + handle.name() +
                       " did not complete with its reference summary");
  return ok ? &out : nullptr;
}

struct PhaseA {
  std::size_t arrivals = 0;
  std::size_t sheds = 0;
  std::size_t slo_misses = 0;
  std::vector<double> e2e_ms, admit_ms, lag_ms, queue_ms, exec_ms;
  double drain_tail_s = 0.0;
};

/// Open loop: seeded Poisson arrivals at kBurstRatePerS over `duration_s`,
/// one Runtime::submit each, timed from the arrival's due time.
PhaseA phase_a(BurstSetup& s, double duration_s, util::Rng& rng,
               Result& result) {
  struct Arrival {
    double due_s = 0.0;
    std::size_t config = 0;
    std::string tenant;
  };
  // A Poisson process conditioned on its count: the offered load is
  // exactly kBurstRatePerS, the gaps are exponential.
  const auto count =
      static_cast<std::size_t>(std::lround(kBurstRatePerS * duration_s));
  std::vector<double> due(count);
  for (double& t : due) t = rng.uniform() * duration_s;
  std::sort(due.begin(), due.end());
  const std::vector<std::size_t> configs = balanced_configs(count, rng);
  std::vector<Arrival> schedule;
  for (std::size_t i = 0; i < count; ++i)
    schedule.push_back(
        {due[i], configs[i], tenant_name(rng.uniform_int(0, kBurstTenants - 1))});

  struct Sent {
    util::Expected<service::RunHandle> handle;
    double returned_s = 0.0;  ///< submit() returned, from phase start
  };
  std::vector<Sent> sent;
  sent.reserve(schedule.size());
  PhaseA a;
  a.arrivals = schedule.size();
  const Clock::time_point start =
      Clock::now() + std::chrono::milliseconds(2);
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    const Arrival& arrival = schedule[i];
    const Clock::time_point due =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(arrival.due_s));
    std::this_thread::sleep_until(due);
    a.lag_ms.push_back(seconds_since(due) * 1000.0);
    service::RunSpec spec = burst_spec(s, arrival.config,
                                       "a" + std::to_string(i), arrival.tenant);
    obs::Span span("service", "Runtime.submit");
    util::Expected<service::RunHandle> handle =
        s.runtime->submit(std::move(spec));
    sent.push_back({std::move(handle), seconds_since(start)});
  }

  double last_done_s = 0.0;
  for (std::size_t i = 0; i < sent.size(); ++i) {
    const double due_s = schedule[i].due_s;
    const double admit_s = sent[i].returned_s - due_s;
    a.admit_ms.push_back(admit_s * 1000.0);
    ++result.attempted;
    if (!sent[i].handle.has_value()) {
      ++a.sheds;
      ++a.slo_misses;
      ++result.failed;
      continue;
    }
    const service::RunOutcome* out = await(
        sent[i].handle.value(), s.refs[schedule[i].config], result);
    if (out == nullptr) {
      ++a.slo_misses;
      continue;
    }
    // The scheduler stamps admission just before submit() returns, so
    // queue_s + exec_s continue the clock from `returned_s`.
    const double e2e_s = admit_s + out->queue_s + out->exec_s;
    a.e2e_ms.push_back(e2e_s * 1000.0);
    a.queue_ms.push_back(out->queue_s * 1000.0);
    a.exec_ms.push_back(out->exec_s * 1000.0);
    if (e2e_s * 1000.0 > kBurstSloMs) ++a.slo_misses;
    last_done_s = std::max(last_done_s, due_s + e2e_s);
  }
  if (!schedule.empty())
    a.drain_tail_s = last_done_s - schedule.back().due_s;
  return a;
}

/// `n` rounded up to whole batches (at least one).
std::size_t batched(std::size_t n) {
  return std::max<std::size_t>(1, (n + kBurstBatch - 1) / kBurstBatch) *
         kBurstBatch;
}

struct PhaseB {
  std::size_t specs = 0;
  double wall_s = 0.0;
  std::vector<double> queue_ms, exec_ms;
};

/// Saturation: `total` specs (a multiple of kBurstBatch) through
/// submit_batch in batches of kBurstBatch, 1/8 of each batch exact
/// duplicates of an earlier spec in it (coalesced by the scheduler), then
/// drained.
PhaseB phase_b(BurstSetup& s, std::size_t total, util::Rng& rng,
               Result& result, std::size_t* name_counter) {
  const std::vector<std::size_t> unique_configs = balanced_configs(total, rng);
  std::size_t next_unique = 0;
  std::vector<std::vector<service::RunSpec>> batches;
  std::vector<std::vector<std::size_t>> configs;
  for (std::size_t made = 0; made < total; made += kBurstBatch) {
    // Exactly kBurstBatch / 8 duplicates, never in the first slot.
    std::vector<char> duplicate(kBurstBatch - 1, 0);
    std::fill_n(duplicate.begin(), kBurstBatch / 8, 1);
    shuffle(duplicate, rng);
    duplicate.insert(duplicate.begin(), 0);
    std::vector<service::RunSpec> batch;
    std::vector<std::size_t> batch_configs;
    for (std::size_t j = 0; j < kBurstBatch; ++j) {
      if (duplicate[j] != 0) {
        const auto k = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(j) - 1));
        batch.push_back(batch[k]);
        batch_configs.push_back(batch_configs[k]);
        continue;
      }
      const std::size_t config = unique_configs[next_unique++];
      batch.push_back(burst_spec(s, config,
                                 "b" + std::to_string((*name_counter)++),
                                 tenant_name(rng.uniform_int(
                                     0, kBurstTenants - 1))));
      batch_configs.push_back(config);
    }
    batches.push_back(std::move(batch));
    configs.push_back(std::move(batch_configs));
  }

  PhaseB b;
  b.specs = total;
  std::vector<std::vector<util::Expected<service::RunHandle>>> handles;
  const Clock::time_point t0 = Clock::now();
  for (std::vector<service::RunSpec>& batch : batches) {
    obs::Span span("service", "Runtime.submit_batch");
    handles.push_back(s.runtime->submit_batch(std::move(batch)));
  }
  std::vector<const service::RunOutcome*> outcomes;
  for (std::size_t i = 0; i < handles.size(); ++i) {
    for (std::size_t j = 0; j < handles[i].size(); ++j) {
      ++result.attempted;
      if (!handles[i][j].has_value()) {
        ++result.failed;
        continue;
      }
      outcomes.push_back(
          await(handles[i][j].value(), s.refs[configs[i][j]], result));
    }
  }
  b.wall_s = seconds_since(t0);
  for (const service::RunOutcome* out : outcomes) {
    if (out == nullptr) continue;
    b.queue_ms.push_back(out->queue_s * 1000.0);
    b.exec_ms.push_back(out->exec_s * 1000.0);
  }
  return b;
}

}  // namespace

Result run_service_burst(const Options& options) {
  print_header(options, "service_burst");
  Result result;
  // The seed draws arrival times, tenants, the config mix and duplicate
  // positions; the trace is the canonical RM3D problem run for 64 steps.
  util::Rng rng(options.seed, 13);
  amr::Rm3dConfig app;
  app.coarse_steps = 64;  // 17 snapshots
  const policy::PolicyBase policies = policy::standard_policy_base();
  // Leave one core to the arrival generator.
  const std::size_t workers =
      std::max(2u, std::thread::hardware_concurrency()) - 1;

  // Set-up: the short trace, one reference summary per config computed
  // directly with TraceRunner, a runtime with a fresh fsync'd admission
  // journal, and a warm-up that sends every config through submit() and
  // submit_batch() (it also fills the runtime's per-trace work-grid cache,
  // as a long-running service would have).
  double setup_s = 0.0;
  bool warm_ok = true;
  const std::unique_ptr<BurstSetup> setup = repeat_setup(
      [&](int i) {
        auto s = std::make_unique<BurstSetup>();
        s->dir = std::make_unique<ScratchDir>(fs::path(options.scratch) /
                                              ("burst-" + std::to_string(i)));
        s->trace = std::make_shared<const amr::AdaptationTrace>(
            amr::Rm3dEmulator(app).run());
        service::JournalConfig journal;
        journal.enabled = true;
        journal.dir = s->dir->sub("journal");
        journal.fsync = true;
        s->runtime = std::unique_ptr<service::Runtime>(
            new service::Runtime(service::Runtime::Builder{}
                                     .workers(workers)
                                     .queue_capacity(kBurstQueueCapacity)
                                     .journal(journal)
                                     .build()));
        warm_ok = warm_ok && s->runtime->journal() != nullptr;
        for (std::size_t c = 0; c < kConfigs; ++c) {
          const service::RunSpec spec = burst_spec(*s, c, "ref", "t00");
          const grid::Cluster cluster = service::build_cluster(spec);
          const core::TraceRunner runner(*s->trace, cluster, spec.to_trace());
          s->refs.push_back(replay_once(runner, spec.strategy, policies));
        }
        std::vector<service::RunSpec> batch;
        std::vector<util::Expected<service::RunHandle>> handles;
        for (std::size_t c = 0; c < kConfigs; ++c) {
          handles.push_back(s->runtime->submit(
              burst_spec(*s, c, "warm-" + std::to_string(c), "t00")));
          batch.push_back(
              burst_spec(*s, c, "warm-batch-" + std::to_string(c), "t01"));
        }
        for (auto& handle : s->runtime->submit_batch(std::move(batch)))
          handles.push_back(std::move(handle));
        for (std::size_t h = 0; h < handles.size(); ++h) {
          warm_ok = warm_ok && handles[h].has_value() &&
                    await(handles[h].value(), s->refs[h % kConfigs],
                          result) != nullptr;
        }
        return s;
      },
      &setup_s);
  result.check(warm_ok, "service warm-up failed");

  // Phase A takes half the budget; phase B sends four times as many specs
  // as phase A did, which drains in about the other half.
  const double budget = options.trace ? options.seconds / 2.0 : options.seconds;
  std::size_t name_counter = 0;
  const PhaseA a = phase_a(*setup, budget / 2.0, rng, result);
  const PhaseB b = phase_b(*setup, batched(4 * a.arrivals), rng,
                           result, &name_counter);
  result.check(a.drain_tail_s <= kBurstMaxDrainTailS,
               "phase A left a growing backlog");
  const double drain_per_s = static_cast<double>(b.specs) / b.wall_s;

  if (!options.trace) {
    print_timing("burst.e2e_ms (phase A)", summarize(a.e2e_ms), "ms");
    print_timing("burst.admit_ms (phase A)", summarize(a.admit_ms), "ms");
    print_timing("burst.queue_ms (phase A)", summarize(a.queue_ms), "ms");
    print_timing("burst.exec_ms (phase A)", summarize(a.exec_ms), "ms");
    print_line("burst.sheds (phase A)", static_cast<double>(a.sheds),
               "count");
    print_line("burst.slo_miss_frac (phase A)",
               static_cast<double>(a.slo_misses) /
                   static_cast<double>(std::max<std::size_t>(1, a.arrivals)),
               "ratio");
    print_line("burst.offered_rate", kBurstRatePerS, "arrivals/s");
    print_line("burst.slo_limit", kBurstSloMs, "ms");
    print_line("burst.drain_tail_s (phase A)", a.drain_tail_s, "s");
    print_timing("burst.gen_lag_ms (phase A)", summarize(a.lag_ms), "ms");
    print_line("burst.drain_runs_per_s (phase B)", drain_per_s, "handles/s");
    report_end_to_end(result, setup_s, drain_per_s);
    return result;
  }

  service::Runtime& runtime = *setup->runtime;
  const service::SchedulerStats sched0 = runtime.stats();
  const service::JournalStats journal0 = runtime.journal()->stats();
  set_tracing(true);
  obs::Tracer::instance().clear();
  const double t0_us = obs::Tracer::now_us();
  const Clock::time_point traced_start = Clock::now();
  const PhaseA ta = phase_a(*setup, budget / 2.0, rng, result);
  const PhaseB tb = phase_b(*setup, batched(4 * ta.arrivals), rng,
                            result, &name_counter);
  const double traced_wall_s = seconds_since(traced_start);
  const double t1_us = obs::Tracer::now_us();
  set_tracing(false);
  const service::SchedulerStats sched1 = runtime.stats();
  const service::JournalStats journal1 = runtime.journal()->stats();

  const Ledger ledger(obs::Tracer::instance().events(), t0_us, t1_us);
  const auto specs = static_cast<double>(ta.arrivals + tb.specs);
  LayerValues layers;
  fill_common_layers(ledger, specs, layers);
  std::vector<double> queue_ms = ta.queue_ms;
  queue_ms.insert(queue_ms.end(), tb.queue_ms.begin(), tb.queue_ms.end());
  std::vector<double> exec_ms = ta.exec_ms;
  exec_ms.insert(exec_ms.end(), tb.exec_ms.begin(), tb.exec_ms.end());
  const auto delta = [](std::size_t after, std::size_t before) {
    return static_cast<double>(after - before);
  };
  layers["service.submit_ms"] =
      ledger.self_ms("Runtime.submit") /
      std::max(1.0, ledger.count("Runtime.submit"));
  layers["service.submit_batch_ms_per_spec"] =
      ledger.self_ms("Runtime.submit_batch") /
      std::max(1.0, static_cast<double>(tb.specs));
  layers["service.queue_wait_p50_ms"] = percentile(queue_ms, 50.0);
  layers["service.queue_wait_p99_ms"] = percentile(queue_ms, 99.0);
  layers["service.exec_p50_ms"] = percentile(exec_ms, 50.0);
  layers["service.fsyncs_per_spec"] =
      static_cast<double>(journal1.fsyncs - journal0.fsyncs) /
      std::max(1.0, static_cast<double>(journal1.appends - journal0.appends));
  layers["service.coalesced_ratio"] =
      delta(sched1.coalesced, sched0.coalesced) /
      std::max(1.0, delta(sched1.batch_specs, sched0.batch_specs));
  layers["service.shed"] = delta(sched1.rejected, sched0.rejected);
  layers["trace_overhead_frac"] =
      drain_per_s / (static_cast<double>(tb.specs) / tb.wall_s) - 1.0;
  std::map<std::string, double> shares = ledger.category_self_ms();
  shares.erase("bench");
  print_layer_shares(shares, traced_wall_s * 1000.0);
  export_trace(options, result);
  emit_layers(layers, result);
  return result;
}

}  // namespace perfbench
