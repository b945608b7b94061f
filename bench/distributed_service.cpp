// Distributed service — the elastic coordinator/worker control plane
// under worker churn.
//
// Sweeps worker count (1/2/4/8/16, capped by --max-workers) against a
// churn rate (0/10/20% of the pool killed mid-burst, each kill followed
// by a replacement join) and pushes a burst of fully managed RM3D runs
// with durable checkpoints through service::DistributedService at every
// point.  Kills land between execution slices, so recovery always goes
// through the real path: heartbeat silence -> suspect -> confirmed dead
// -> failover redispatch resuming from the newest valid checkpoint
// generation on another worker.
//
// Reported per sweep point: wall-clock and simulated-time throughput
// (runs/sec), mean/max kill-to-redispatch recovery latency, failovers,
// steals, and requeues.
//
// The gate — and the reason CI runs this directly — is byte-identity:
// every burst, at every worker count and churn rate, must produce final
// managed reports bitwise equal to uninterrupted single-process
// core::ManagedRun references.  Elasticity is allowed to change *when*
// work happens, never *what* is computed.  Exit code is non-zero when
// any run fails to complete or any report diverges.
//
// Results land in BENCH_distributed_service.json.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "pragma/core/managed_run.hpp"
#include "pragma/core/run_snapshot.hpp"
#include "pragma/service/worker.hpp"
#include "pragma/util/cli.hpp"

using namespace pragma;

namespace {

namespace fs = std::filesystem;

struct BenchConfig {
  int runs = 8;          // managed runs per burst
  int steps = 16;        // coarse steps per run
  std::size_t procs = 8; // modeled processors per run
  std::uint64_t seed = 40;
  int max_workers = 16;
};

service::RunSpec burst_spec(const BenchConfig& config, int index,
                            const std::string& dir) {
  service::RunSpec spec;
  spec.name = "dist-" + std::to_string(index);
  spec.kind = service::WorkloadKind::kManaged;
  spec.app.coarse_steps = config.steps;
  spec.nprocs = config.procs;
  spec.seed = config.seed + 1000ull * static_cast<unsigned>(index);
  spec.persist.enabled = true;
  spec.persist.dir = dir;
  // Checkpoint at every coarse-step boundary so a kill between slices
  // always has a fresh generation behind it.
  spec.checkpoint_interval_s = 1e-6;
  spec.persist.keep_last_n = 4;
  return spec;
}

/// Fast-cadence control plane: suspect after 1.5 s of heartbeat silence,
/// confirm dead after 3 s, so a full kill-to-redispatch cycle fits in a
/// few simulated seconds.
service::DistributedConfig control_plane() {
  service::DistributedConfig config;
  config.heartbeat.period_s = 0.5;
  config.heartbeat.suspect_missed = 3;
  config.heartbeat.confirm_missed = 6;
  config.dispatch_period_s = 0.25;
  config.slice_steps = 6;
  config.slice_sim_s = 1.0;
  return config;
}

/// The bit-identity contract: every persisted report field, minus the
/// ones that describe this process's own lifecycle (resumed and the
/// checkpoint counters).
bool reports_bit_identical(const core::ManagedRunReport& a,
                           const core::ManagedRunReport& b) {
  return core::encode_report(a) == core::encode_report(b);
}

struct SweepPoint {
  std::size_t workers = 0;
  double churn = 0.0;  ///< fraction of the pool killed during the burst
  bool completed = false;
  bool bit_identical = false;
  double wall_s = 0.0;
  double sim_s = 0.0;
  std::size_t kills = 0;
  std::size_t failovers = 0;
  std::size_t steals = 0;
  std::size_t requeued = 0;
  double mean_recovery_s = 0.0;
  double max_recovery_s = 0.0;
};

SweepPoint run_point(const BenchConfig& config, std::size_t workers,
                     double churn, const std::string& root,
                     const std::vector<core::ManagedRunReport>& references) {
  SweepPoint point;
  point.workers = workers;
  point.churn = churn;

  service::DistributedConfig plane = control_plane();
  plane.checkpoint_root = root;
  plane.queue_capacity = static_cast<std::size_t>(config.runs) + 8;
  service::DistributedService service(plane, config.seed);
  for (std::size_t w = 0; w < workers; ++w)
    service.add_worker(std::string("w").append(std::to_string(w)));

  // Kill ceil(workers * churn) workers, staggered through the burst's
  // early-middle phase (slices run at 1 s cadence, so t = 2.0 + 1.5 i
  // lands between slices of an in-flight run), and join a replacement
  // one second after each kill so capacity recovers.
  point.kills = static_cast<std::size_t>(
      std::ceil(static_cast<double>(workers) * churn));
  for (std::size_t k = 0; k < point.kills; ++k) {
    const double at = 2.0 + 1.5 * static_cast<double>(k);
    service.schedule_kill(at, std::string("w").append(std::to_string(k)));
    service.schedule_join(at + 1.0,
                          std::string("r").append(std::to_string(k)));
  }

  std::vector<std::uint64_t> ids;
  for (int i = 0; i < config.runs; ++i) {
    const auto handle = service.submit_run(
        burst_spec(config, i, root + "/run-" + std::to_string(i)));
    if (!handle) {
      std::cerr << "admission rejected: " << handle.status().to_string()
                << "\n";
      return point;
    }
    ids.push_back(handle.value().id());
  }

  const auto start = std::chrono::steady_clock::now();
  const util::Status status = service.run_until_done(3600.0);
  point.wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  point.sim_s = service.simulator().now();
  if (!status.is_ok()) {
    std::cerr << "burst did not drain: " << status.to_string() << "\n";
    return point;
  }

  point.completed = true;
  point.bit_identical = true;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const service::DistRun* run = service.coordinator().find(ids[i]);
    if (run == nullptr || run->state != service::DistRunState::kCompleted) {
      point.completed = false;
      point.bit_identical = false;
      continue;
    }
    if (!reports_bit_identical(run->outcome.managed, references[i]))
      point.bit_identical = false;
  }

  const service::CoordinatorStats& stats = service.coordinator().stats();
  point.failovers = stats.failovers;
  point.steals = stats.steals;
  point.requeued = stats.requeued;
  const std::vector<double> recoveries = service.recovery_latencies();
  for (const double r : recoveries) {
    point.mean_recovery_s += r;
    point.max_recovery_s = std::max(point.max_recovery_s, r);
  }
  if (!recoveries.empty())
    point.mean_recovery_s /= static_cast<double>(recoveries.size());
  return point;
}

}  // namespace

int main(int argc, char** argv) {
  util::CliFlags flags(
      "Elastic coordinator/worker control plane under worker churn.");
  flags.add_int("runs", 8, "managed runs per burst");
  flags.add_int("steps", 16, "coarse steps per run");
  flags.add_int("procs", 8, "modeled processors per run");
  flags.add_int("seed", 40, "base seed (each run derives its own)");
  flags.add_int("max-workers", 16, "cap on the worker-count sweep");
  if (!flags.parse(argc, argv)) return 0;

  BenchConfig config;
  config.runs = flags.get_int("runs");
  config.steps = flags.get_int("steps");
  config.procs = static_cast<std::size_t>(flags.get_int("procs"));
  config.seed = static_cast<std::uint64_t>(flags.get_int("seed"));
  config.max_workers = flags.get_int("max-workers");

  bench::banner("DIST", "Distributed service: failover latency and churn");
  std::printf("config: runs=%d steps=%d procs=%zu seed=%llu max_workers=%d\n",
              config.runs, config.steps, config.procs,
              static_cast<unsigned long long>(config.seed),
              config.max_workers);

  const std::string root =
      (fs::temp_directory_path() / "pragma_bench_dist").string();
  fs::remove_all(root);

  // Uninterrupted single-process references; every sweep point's reports
  // must match these bitwise, churn or no churn.
  std::printf("\nreference reports (single-process, uninterrupted) ...\n");
  std::vector<core::ManagedRunReport> references;
  for (int i = 0; i < config.runs; ++i) {
    service::RunSpec spec =
        burst_spec(config, i, root + "/ref-" + std::to_string(i));
    references.push_back(core::ManagedRun(spec).run());
  }

  util::BenchJsonWriter json;
  util::TextTable table({"workers", "churn", "kills", "sim (s)",
                         "runs/s (sim)", "runs/s (wall)", "failovers",
                         "steals", "recovery mean (s)", "recovery max (s)",
                         "bitwise"});
  table.set_alignment(0, util::Align::kLeft);

  bool all_ok = true;
  int sweep = 0;
  for (const std::size_t workers : {1u, 2u, 4u, 8u, 16u}) {
    if (workers > static_cast<std::size_t>(config.max_workers)) continue;
    for (const double churn : {0.0, 0.10, 0.20}) {
      const std::string point_root =
          root + "/sweep-" + std::to_string(sweep++);
      const SweepPoint point =
          run_point(config, workers, churn, point_root, references);
      all_ok = all_ok && point.completed && point.bit_identical;

      const double sim_rate =
          point.sim_s > 0.0 ? static_cast<double>(config.runs) / point.sim_s
                            : 0.0;
      const double wall_rate =
          point.wall_s > 0.0 ? static_cast<double>(config.runs) / point.wall_s
                             : 0.0;
      table.add_row({util::cell(static_cast<double>(point.workers), 0),
                     util::cell(point.churn, 2),
                     util::cell(point.kills),
                     util::cell(point.sim_s, 1), util::cell(sim_rate, 3),
                     util::cell(wall_rate, 1),
                     util::cell(point.failovers),
                     util::cell(point.steals),
                     util::cell(point.mean_recovery_s, 2),
                     util::cell(point.max_recovery_s, 2),
                     point.bit_identical ? "yes" : "NO"});

      std::string entry = "workers-" + std::to_string(point.workers) +
                          "/churn-" +
                          std::to_string(static_cast<int>(churn * 100.0));
      json.entry(entry)
          .field("workers", point.workers)
          .field("churn_pct", churn * 100.0, 0)
          .field("runs", static_cast<std::size_t>(config.runs))
          .field("kills", point.kills)
          .field("sim_s", point.sim_s, 3)
          .field("wall_s", point.wall_s, 4)
          .field("runs_per_sim_s", sim_rate, 4)
          .field("runs_per_wall_s", wall_rate, 3)
          .field("failovers", point.failovers)
          .field("steals", point.steals)
          .field("requeued", point.requeued)
          .field("recovery_mean_s", point.mean_recovery_s, 3)
          .field("recovery_max_s", point.max_recovery_s, 3)
          .field("completed", point.completed ? 1 : 0)
          .field("bit_identical", point.bit_identical ? 1 : 0);
    }
  }
  std::cout << '\n' << table.render();

  bench::write_bench_json(json, "BENCH_distributed_service.json");
  std::printf("\nwrote BENCH_distributed_service.json\n");
  fs::remove_all(root);

  if (!all_ok) {
    std::cerr << "\nFAIL: a burst failed to complete or diverged from the "
                 "single-process references\n";
    return 1;
  }
  std::printf("every burst completed bitwise-identical to its references\n");
  return 0;
}
