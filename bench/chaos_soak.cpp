// Chaos soak — the fault-tolerant control plane under sustained abuse.
//
// Runs the fully managed RM3D execution (Section 4.7) with every
// robustness feature engaged at once: a lossy, jittery, duplicating
// message channel; random node failures (MTBF >> MTTR) detected by
// heartbeat timeout rather than an oracle; checkpoint/rollback recovery;
// and the synthetic background-load generator.  A fault-free run of the
// same configuration provides the baseline.
//
// The soak asserts the invariants the runtime promises:
//   - work conservation: the chaos run advances exactly the same total
//     cell updates as the fault-free run (every coarse step completes
//     exactly once, failures notwithstanding);
//   - zero lost directives: the request/reply protocol never gives up on
//     a directive addressed to a live component;
//   - no false suspects at the default detection thresholds;
//   - bounded recovery overhead (lost-work fraction and total slowdown);
//   - determinism: two runs at the same seed produce bit-identical
//     reports (all randomness flows through seeded util::Rng streams and
//     the partitioner cost is modeled, not measured).
//
// A second, durability phase exercises the crash-consistent checkpoint
// log under the same chaos (lossy channel, random node failures), saving
// state at every coarse step: the run is killed mid-flight (SIGKILL-style:
// run to a step with run_until, then destroyed), the newest record on
// disk is bit-flipped, a torn partial frame is appended after it and a
// torn ".tmp" orphan is planted, and the resumed run must still recover
// — falling back to the previous valid record — and finish with a final
// report bit-identical to an uninterrupted run at the same seed.
//
// A third, worker-churn phase deploys the elastic coordinator/worker
// control plane (service::DistributedService): a small burst of managed
// runs over a worker pool that loses a member mid-burst (SIGKILL, no
// oracle — the heartbeat detector must confirm the death) and gains a
// late joiner.  The burst must drain with at least one checkpoint
// failover and every final report bit-identical to an uninterrupted
// single-process reference.
//
// A fourth, journal-kill phase attacks the admission journal: a forked
// child admits a burst through a journaled Runtime (recording every
// durable admission in a separately fsynced oracle file) and is
// SIGKILLed mid-burst — a real kill, not a simulated one.  The parent
// then recovers the journal directory and requires zero lost runs:
// every oracle entry is either tombstoned (completed before the kill)
// or recovered and re-executed to a report bit-identical to an
// uninterrupted reference.
//
// A fifth, over-budget-tenant phase exercises resource isolation: a
// greedy tenant submits runs with an impossibly small CPU budget
// alongside an honest tenant's unbudgeted runs, through one scheduler
// with a shared ResourceAccountant.  Every greedy run must be shed with
// Status::resource_exhausted (carrying the retry-after hint) while the
// honest tenant's reports stay bit-identical to references executed with
// no accountant and no greedy traffic at all.
//
// Results land in BENCH_chaos_soak.json using the same name -> numeric
// fields schema as BENCH_partition_pipeline.json.  Exit code is non-zero
// when any invariant fails, so CI can run this directly.
#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "pragma/core/managed_run.hpp"
#include "pragma/core/run_snapshot.hpp"
#include "pragma/io/checkpoint.hpp"
#include "pragma/res/accountant.hpp"
#include "pragma/service/journal.hpp"
#include "pragma/service/runtime.hpp"
#include "pragma/service/worker.hpp"

using namespace pragma;

namespace {

struct SoakConfig {
  int steps = 200;
  std::size_t procs = 16;
  double drop = 0.05;
  double duplicate = 0.01;
  double mtbf_s = 400.0;
  double mttr_s = 60.0;
  double checkpoint_s = 25.0;
  std::uint64_t seed = 40;
};

SoakConfig parse_args(int argc, char** argv) {
  SoakConfig config;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const double value = std::atof(argv[i + 1]);
    if (flag == "--steps") config.steps = static_cast<int>(value);
    else if (flag == "--procs") config.procs = static_cast<std::size_t>(value);
    else if (flag == "--drop") config.drop = value;
    else if (flag == "--mtbf") config.mtbf_s = value;
    else if (flag == "--mttr") config.mttr_s = value;
    else if (flag == "--checkpoint") config.checkpoint_s = value;
    else if (flag == "--seed") config.seed = static_cast<std::uint64_t>(value);
  }
  return config;
}

core::ManagedRunConfig managed_config(const SoakConfig& soak, bool chaos) {
  core::ManagedRunConfig config;
  config.app.coarse_steps = soak.steps;
  config.nprocs = soak.procs;
  config.with_background_load = true;
  config.system_sensitive = true;
  config.seed = soak.seed;
  config.ft.enabled = true;
  config.checkpoint_interval_s = soak.checkpoint_s;
  if (chaos) {
    config.ft.channel.drop_probability = soak.drop;
    config.ft.channel.duplicate_probability = soak.duplicate;
    config.ft.channel.jitter_s = 2.0 * config.exec.message_latency_s;
  }
  return config;
}

core::ManagedRunReport run_one(const SoakConfig& soak, bool chaos) {
  core::ManagedRun managed(managed_config(soak, chaos));
  if (chaos) managed.start_random_failures(soak.mtbf_s, soak.mttr_s);
  return managed.run();
}

/// The chaos configuration, persisted with a save-state at every coarse
/// step boundary so the kill point always has recent records behind it.
core::ManagedRunConfig durable_config(const SoakConfig& soak,
                                      const std::string& dir) {
  core::ManagedRunConfig config = managed_config(soak, /*chaos=*/true);
  config.persist.enabled = true;
  config.persist.dir = dir;
  config.checkpoint_interval_s = 1e-3;
  return config;
}

int failures = 0;
void check(bool ok, const std::string& what) {
  std::printf("  [%s] %s\n", ok ? "PASS" : "FAIL", what.c_str());
  if (!ok) ++failures;
}

/// Bit-exact double comparison (determinism means byte-identical).
bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// Bit-exact comparison of every persisted report field and per-regrid
/// record (the per-process lifecycle fields are left out).
bool reports_bit_identical(const core::ManagedRunReport& a,
                           const core::ManagedRunReport& b) {
  return core::encode_report(a) == core::encode_report(b);
}

}  // namespace

int main(int argc, char** argv) {
  const SoakConfig soak = parse_args(argc, argv);
  bench::banner("Chaos soak",
                "fault-tolerant control plane under loss + failures");
  std::printf(
      "config: steps=%d procs=%zu drop=%.3f dup=%.3f mtbf=%.0fs mttr=%.0fs"
      " checkpoint=%.0fs seed=%llu\n",
      soak.steps, soak.procs, soak.drop, soak.duplicate, soak.mtbf_s,
      soak.mttr_s, soak.checkpoint_s,
      static_cast<unsigned long long>(soak.seed));

  std::printf("\nbaseline (faults disabled) ...\n");
  const core::ManagedRunReport baseline = run_one(soak, /*chaos=*/false);
  std::printf("chaos run 1 ...\n");
  const core::ManagedRunReport chaos = run_one(soak, /*chaos=*/true);
  std::printf("chaos run 2 (determinism replay) ...\n");
  const core::ManagedRunReport replay = run_one(soak, /*chaos=*/true);

  util::TextTable table({"metric", "baseline", "chaos"});
  table.set_alignment(0, util::Align::kLeft);
  table.add_row({"total time (s)", util::cell(baseline.total_time_s, 1),
                 util::cell(chaos.total_time_s, 1)});
  table.add_row({"cells advanced", util::cell(baseline.cells_advanced, 0),
                 util::cell(chaos.cells_advanced, 0)});
  table.add_row({"checkpoints", util::cell(baseline.checkpoints),
                 util::cell(chaos.checkpoints)});
  table.add_row({"detected failures", util::cell(baseline.detected_failures),
                 util::cell(chaos.detected_failures)});
  table.add_row({"migrations", util::cell(baseline.migrations),
                 util::cell(chaos.migrations)});
  table.add_row({"directive retries", util::cell(baseline.directive_retries),
                 util::cell(chaos.directive_retries)});
  table.add_row({"messages dropped", util::cell(baseline.messages_lost),
                 util::cell(chaos.messages_lost)});
  table.add_row({"heartbeats", util::cell(baseline.heartbeats_received),
                 util::cell(chaos.heartbeats_received)});
  std::cout << '\n' << table.render() << '\n';

  const double mean_detection_s =
      chaos.detected_failures > 0
          ? chaos.detection_latency_s /
                static_cast<double>(chaos.detected_failures)
          : 0.0;
  const double lost_work_fraction =
      chaos.cells_advanced > 0.0
          ? chaos.recomputed_cells / chaos.cells_advanced
          : 0.0;
  const double overhead_fraction =
      baseline.total_time_s > 0.0
          ? (chaos.total_time_s - baseline.total_time_s) /
                baseline.total_time_s
          : 0.0;
  const double false_suspect_rate =
      chaos.suspects > 0 ? static_cast<double>(chaos.false_suspects) /
                               static_cast<double>(chaos.suspects)
                         : 0.0;

  std::printf("invariants:\n");
  check(baseline.detected_failures == 0 && baseline.suspects == 0 &&
            baseline.lost_directives == 0,
        "baseline is failure-free");
  check(chaos.cells_advanced > 0.0 &&
            same_bits(chaos.cells_advanced, baseline.cells_advanced),
        "work conservation: chaos advanced the same cell updates");
  check(chaos.lost_directives == 0, "zero directives lost to live targets");
  check(chaos.false_suspects == 0,
        "no false suspects at default detection thresholds");
  check(lost_work_fraction < 0.2, "lost-work fraction bounded (< 20%)");
  check(overhead_fraction < 0.75,
        "recovery overhead bounded (< 75% slowdown)");
  check(reports_bit_identical(chaos, replay),
        "deterministic: replay at the same seed is bit-identical");

  // ---- durability phase: kill-restart with torn-write injection ----
  namespace fs = std::filesystem;
  const std::string ckpt_dir =
      (fs::temp_directory_path() / "pragma_chaos_soak_ckpt").string();
  fs::remove_all(ckpt_dir);
  // Kill somewhere in the middle third of the run, seed-determined.
  const int halt_step =
      soak.steps / 3 +
      static_cast<int>(soak.seed % static_cast<std::uint64_t>(
                                       std::max(1, soak.steps / 3)));

  const auto durable_run = [&soak](core::ManagedRunConfig config) {
    auto run = std::make_unique<core::ManagedRun>(std::move(config));
    run->start_random_failures(soak.mtbf_s, soak.mttr_s);
    return run;
  };
  std::printf("\ndurability reference (persist, uninterrupted) ...\n");
  const core::ManagedRunReport durable_ref =
      durable_run(durable_config(soak, ckpt_dir + "-ref"))->run();
  std::printf("durability kill at step %d ...\n", halt_step);
  // SIGKILL-style: run to the kill step, then destroy the run, which keeps
  // only the records already written.
  const bool halted = [&] {
    const auto killed = durable_run(durable_config(soak, ckpt_dir));
    return killed->run_until(halt_step) &&
           killed->completed_steps() == halt_step;
  }();

  // Inject the failure modes a crash can leave behind: a bit-flipped
  // newest record, a torn partial frame after it (a crash mid-append) and
  // a torn ".tmp" orphan (a crash mid-publish).
  io::CheckpointStoreOptions store_options;
  store_options.dir = ckpt_dir;
  const io::CheckpointStore store(store_options);
  const std::vector<io::CheckpointRecord> records = store.records();
  if (!records.empty()) {
    const io::CheckpointRecord& newest = records.front();
    std::ofstream(store.path_for(newest.generation + 1) + ".tmp")
        << "torn write: crashed before fsync+rename";
    std::fstream file(store.path_for(newest.generation),
                      std::ios::in | std::ios::out | std::ios::binary);
    file.seekp(static_cast<std::streamoff>(newest.offset +
                                           io::kLogFrameHeaderBytes + 5));
    const char garbage = '\x5a';
    file.write(&garbage, 1);
    const std::vector<std::uint8_t> frame = io::encode_log_frame(
        io::kCheckpointRecordType, 0, newest.payload);
    file.seekp(0, std::ios::end);
    file.write(reinterpret_cast<const char*>(frame.data()),
               static_cast<std::streamsize>(frame.size() / 2));
  }

  std::printf("durability resume from last valid record ...\n");
  core::ManagedRunConfig resume = durable_config(soak, ckpt_dir);
  resume.persist.resume = true;
  const core::ManagedRunReport recovered = durable_run(resume)->run();

  std::printf("\ndurability invariants:\n");
  check(halted && !records.empty(),
        "killed run halted after writing durable records");
  check(records.size() >= 2, "more than one checkpoint record on disk");
  check(recovered.resumed, "restart resumed from a checkpoint");
  check(recovered.checkpoint_generations_rejected >= 1,
        "corrupted newest record was detected and skipped");
  check(reports_bit_identical(durable_ref, recovered),
        "resumed run is bit-identical to the uninterrupted run");
  fs::remove_all(ckpt_dir);
  fs::remove_all(ckpt_dir + "-ref");

  // ---- worker-churn phase: elastic control plane under kill + join ----
  const std::string churn_root =
      (fs::temp_directory_path() / "pragma_chaos_soak_churn").string();
  fs::remove_all(churn_root);
  const int churn_runs = 4;
  const int churn_steps = 14;

  auto churn_spec = [&](int index, const std::string& dir) {
    service::RunSpec spec;
    spec.name = "churn-" + std::to_string(index);
    spec.kind = service::WorkloadKind::kManaged;
    spec.app.coarse_steps = churn_steps;
    spec.nprocs = 8;
    spec.seed = soak.seed + 1000ull * static_cast<unsigned>(index);
    spec.persist.enabled = true;
    spec.persist.dir = dir;
    spec.checkpoint_interval_s = 1e-6;
    spec.persist.keep_last_n = 4;
    return spec;
  };

  std::printf("\nworker churn: 3 workers, kill w0 mid-burst, join w3 ...\n");
  service::DistributedConfig plane;
  plane.heartbeat.period_s = 0.5;
  plane.heartbeat.suspect_missed = 3;
  plane.heartbeat.confirm_missed = 6;
  plane.dispatch_period_s = 0.25;
  plane.slice_steps = 6;
  plane.slice_sim_s = 1.0;
  plane.checkpoint_root = churn_root;
  service::DistributedService dist(plane, soak.seed);
  dist.add_worker("w0");
  dist.add_worker("w1");
  dist.add_worker("w2");
  // Kill between slices of whatever w0 is running; a replacement joins
  // while the detector is still walking w0 through suspect -> confirmed.
  dist.schedule_kill(1.7, "w0");
  dist.schedule_join(2.5, "w3");

  std::vector<std::uint64_t> churn_ids;
  bool churn_admitted = true;
  for (int i = 0; i < churn_runs; ++i) {
    const auto handle = dist.submit_run(
        churn_spec(i, churn_root + "/run-" + std::to_string(i)));
    if (!handle) {
      churn_admitted = false;
      break;
    }
    churn_ids.push_back(handle.value().id());
  }
  const bool churn_drained =
      churn_admitted && dist.run_until_done(600.0).is_ok();

  bool churn_identical = churn_drained;
  std::size_t churn_completed = 0;
  if (churn_drained) {
    for (int i = 0; i < churn_runs; ++i) {
      const service::DistRun* run =
          dist.coordinator().find(churn_ids[static_cast<std::size_t>(i)]);
      if (run == nullptr ||
          run->state != service::DistRunState::kCompleted) {
        churn_identical = false;
        continue;
      }
      ++churn_completed;
      const core::ManagedRunReport reference =
          core::ManagedRun(
              churn_spec(i, churn_root + "/ref-" + std::to_string(i)))
              .run();
      if (!reports_bit_identical(run->outcome.managed, reference))
        churn_identical = false;
    }
  }
  const service::CoordinatorStats dist_stats = dist.coordinator().stats();
  const std::vector<double> recoveries = dist.recovery_latencies();
  double mean_recovery_s = 0.0;
  for (const double r : recoveries) mean_recovery_s += r;
  if (!recoveries.empty())
    mean_recovery_s /= static_cast<double>(recoveries.size());

  std::printf("\nworker-churn invariants:\n");
  check(churn_drained, "burst drained despite kill + join");
  check(churn_completed == static_cast<std::size_t>(churn_runs),
        "every run completed exactly once");
  check(dist_stats.failovers >= 1,
        "killed worker's run failed over from durable checkpoints");
  check(dist_stats.confirms >= 1,
        "death was confirmed by heartbeat silence, not an oracle");
  check(churn_identical,
        "churned outcomes bit-identical to single-process references");
  fs::remove_all(churn_root);

  // ---- journal-kill phase: SIGKILL mid-admission-burst, then recover ----
  const std::string journal_dir =
      (fs::temp_directory_path() / "pragma_chaos_soak_journal").string();
  const std::string oracle_path = journal_dir + "-oracle";
  fs::remove_all(journal_dir);
  fs::remove(oracle_path);
  const int journal_runs = 24;

  auto journal_spec = [&](int index) {
    service::RunSpec spec;
    spec.name = "journal-" + std::to_string(index);
    spec.kind = service::WorkloadKind::kManaged;
    spec.app.coarse_steps = 10;
    spec.nprocs = 4;
    spec.capacity_spread = 0.3;
    spec.seed = soak.seed + 77ull * static_cast<unsigned>(index);
    spec.modeled_partition_s_per_cell = core::kModeledPartitionSPerCell;
    return spec;
  };

  std::printf("\njournal kill: admit %d runs, SIGKILL mid-burst ...\n",
              journal_runs);
  service::JournalConfig journal_config;
  journal_config.enabled = true;
  journal_config.dir = journal_dir;

  const pid_t child = fork();
  if (child == 0) {
    // Child: every admission is durable in the journal before submit()
    // returns; the oracle file (its own fsync) records what the caller
    // was promised.  The parent kills us while the burst executes.
    const int oracle_fd =
        ::open(oracle_path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    util::ThreadPool pool(2);
    auto runtime = Runtime::Builder{}
                       .workers(2)
                       .queue_capacity(64)
                       .pool(&pool)
                       .journal(journal_config)
                       .build();
    for (int i = 0; i < journal_runs; ++i) {
      auto handle = runtime.submit(journal_spec(i));
      if (handle.has_value() && oracle_fd >= 0) {
        const std::string line = std::to_string(i) + "\n";
        if (::write(oracle_fd, line.data(), line.size()) ==
            static_cast<ssize_t>(line.size()))
          ::fsync(oracle_fd);
      }
    }
    runtime.drain();
    ::_exit(0);
  }

  // Parent: wait until the whole burst is admitted (the oracle fills),
  // then kill while the workers are still chewing through it.
  std::size_t oracle_count = 0;
  for (int spins = 0; spins < 2000; ++spins) {
    std::ifstream oracle(oracle_path);
    oracle_count = 0;
    std::string line;
    while (std::getline(oracle, line))
      if (!line.empty()) ++oracle_count;
    if (oracle_count >= static_cast<std::size_t>(journal_runs)) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ::kill(child, SIGKILL);
  int wait_status = 0;
  ::waitpid(child, &wait_status, 0);
  const bool was_killed =
      WIFSIGNALED(wait_status) && WTERMSIG(wait_status) == SIGKILL;

  std::vector<int> oracle_indices;
  {
    std::ifstream oracle(oracle_path);
    std::string line;
    while (std::getline(oracle, line))
      if (!line.empty()) oracle_indices.push_back(std::atoi(line.c_str()));
  }

  std::printf("journal recovery: %zu admissions promised, replaying ...\n",
              oracle_indices.size());
  util::ThreadPool recovery_pool(2);
  auto recovered_runtime = Runtime::Builder{}
                               .workers(2)
                               .pool(&recovery_pool)
                               .journal(journal_config)
                               .build();
  const service::JournalRecovery& journal_recovery =
      recovered_runtime.recovered();

  std::set<std::string> resolved;
  for (const std::string& name : journal_recovery.completed)
    resolved.insert(name);
  for (const service::RecoveredRun& run : journal_recovery.pending)
    resolved.insert(run.spec.name);
  std::size_t lost_runs = 0;
  for (const int index : oracle_indices)
    if (resolved.count("journal-" + std::to_string(index)) == 0) ++lost_runs;

  bool journal_identical = true;
  std::size_t journal_recompleted = 0;
  for (service::RunHandle& handle : recovered_runtime.recovered_handles()) {
    const service::RunOutcome& outcome = handle.wait();
    if (outcome.state != service::RunState::kCompleted) {
      journal_identical = false;
      continue;
    }
    ++journal_recompleted;
    const std::string& name = handle.name();
    const int index = std::atoi(name.c_str() + std::strlen("journal-"));
    const core::ManagedRunReport reference =
        core::ManagedRun(journal_spec(index)).run();
    if (!reports_bit_identical(outcome.managed, reference))
      journal_identical = false;
  }
  recovered_runtime.drain();
  const service::JournalStats journal_stats =
      recovered_runtime.journal() != nullptr
          ? recovered_runtime.journal()->stats()
          : service::JournalStats{};

  std::printf("\njournal-kill invariants:\n");
  check(was_killed && oracle_count >= static_cast<std::size_t>(journal_runs),
        "child admitted the full burst and died by SIGKILL");
  check(!journal_recovery.pending.empty(),
        "kill left admitted-but-unfinished runs for recovery");
  check(lost_runs == 0,
        "zero lost runs: every promised admission is completed or pending");
  check(journal_recovery.unrecoverable == 0 && journal_recovery.duplicates == 0,
        "recovery is clean (no undecodable or duplicate records)");
  check(journal_identical,
        "recovered runs re-executed bit-identical to uninterrupted "
        "references");
  check(journal_stats.live_pending == 0,
        "journal drains to empty after the recovered burst completes");
  fs::remove_all(journal_dir);
  fs::remove(oracle_path);

  // ---- over-budget-tenant phase: kills isolate, never contaminate ----
  const int budget_runs = 4;
  auto budget_spec = [&](int index, const std::string& tenant) {
    service::RunSpec spec;
    spec.name = tenant + "-budget-" + std::to_string(index);
    spec.tenant = tenant;
    spec.kind = service::WorkloadKind::kManaged;
    spec.app.coarse_steps = 12;
    spec.nprocs = 4;
    spec.capacity_spread = 0.3;
    spec.seed = soak.seed + 31ull * static_cast<unsigned>(index);
    spec.modeled_partition_s_per_cell = core::kModeledPartitionSPerCell;
    return spec;
  };

  std::printf("\nover-budget tenant: greedy budget-killed alongside honest "
              "runs ...\n");
  // Honest references: executed with no accountant and no greedy traffic.
  std::vector<core::ManagedRunReport> honest_refs;
  for (int i = 0; i < budget_runs; ++i)
    honest_refs.push_back(
        core::ManagedRun(budget_spec(i, "honest")).run());

  res::ResourceAccountant accountant;
  bool budget_admitted = true;
  std::vector<service::RunHandle> honest_handles;
  std::vector<service::RunHandle> greedy_handles;
  {
    util::ThreadPool budget_pool(4);
    service::SchedulerConfig budget_config;
    budget_config.workers = 4;
    budget_config.queue_capacity = 32;
    budget_config.accountant = &accountant;
    service::Scheduler budget_scheduler(budget_config, &budget_pool);
    for (int i = 0; i < budget_runs; ++i) {
      auto honest = budget_scheduler.submit(budget_spec(i, "honest"));
      service::RunSpec greedy = budget_spec(i, "greedy");
      greedy.budget.cpu_s = 1e-6;  // violated on the first coarse step
      auto doomed = budget_scheduler.submit(std::move(greedy));
      if (!honest || !doomed) {
        budget_admitted = false;
        break;
      }
      honest_handles.push_back(std::move(honest).value());
      greedy_handles.push_back(std::move(doomed).value());
    }
    budget_scheduler.drain();
  }

  std::size_t greedy_killed = 0;
  bool greedy_hinted = true;
  for (service::RunHandle& handle : greedy_handles) {
    const service::RunOutcome& outcome = handle.wait();
    if (outcome.state == service::RunState::kFailed &&
        outcome.status.code() == util::StatusCode::kResourceExhausted)
      ++greedy_killed;
    if (service::shed_info(outcome.status).retry_after_ms <= 0)
      greedy_hinted = false;
  }
  bool honest_identical = budget_admitted;
  std::size_t honest_completed = 0;
  for (std::size_t i = 0; i < honest_handles.size(); ++i) {
    const service::RunOutcome& outcome = honest_handles[i].wait();
    if (outcome.state != service::RunState::kCompleted) {
      honest_identical = false;
      continue;
    }
    ++honest_completed;
    if (!reports_bit_identical(outcome.managed, honest_refs[i]))
      honest_identical = false;
  }
  const res::TenantUsage greedy_usage = accountant.tenant_usage("greedy");
  const res::TenantUsage honest_usage = accountant.tenant_usage("honest");

  std::printf("\nover-budget-tenant invariants:\n");
  check(budget_admitted, "both tenants admitted in full");
  check(greedy_killed == static_cast<std::size_t>(budget_runs),
        "every greedy run shed with Status::resource_exhausted");
  check(greedy_hinted, "every budget shed carries a retry-after hint");
  check(accountant.kills() == static_cast<std::size_t>(budget_runs),
        "accountant charged each kill to the greedy tenant");
  check(honest_completed == static_cast<std::size_t>(budget_runs) &&
            honest_identical,
        "honest tenant's runs complete bit-identical to accountant-free "
        "references");
  check(honest_usage.usage.cpu_s > greedy_usage.usage.cpu_s,
        "greedy tenant's CPU was capped below the honest tenant's");

  util::BenchJsonWriter json;
  json.entry("chaos_soak/recovery")
      .field("detected_failures", chaos.detected_failures)
      .field("mean_detection_s", mean_detection_s, 3)
      .field("recovery_time_s", chaos.recovery_time_s, 3)
      .field("lost_work_fraction", lost_work_fraction, 6);
  json.entry("chaos_soak/protocol")
      .field("directive_retries", chaos.directive_retries)
      .field("lost_directives", chaos.lost_directives)
      .field("directives_abandoned", chaos.directives_abandoned)
      .field("duplicates_suppressed", chaos.duplicates_suppressed)
      .field("messages_dropped", chaos.messages_lost);
  json.entry("chaos_soak/detector")
      .field("heartbeats_received", chaos.heartbeats_received)
      .field("suspects", chaos.suspects)
      .field("false_suspects", chaos.false_suspects)
      .field("false_suspect_rate", false_suspect_rate, 6)
      .field("detector_recoveries", chaos.detector_recoveries);
  json.entry("chaos_soak/totals")
      .field("baseline_time_s", baseline.total_time_s, 1)
      .field("chaos_time_s", chaos.total_time_s, 1)
      .field("overhead_fraction", overhead_fraction, 6)
      .field("checkpoints", chaos.checkpoints)
      .field("checkpoint_time_s", chaos.checkpoint_time_s, 2)
      .field("cells_advanced", chaos.cells_advanced, 0)
      .field("recomputed_cells", chaos.recomputed_cells, 0);
  json.entry("chaos_soak/durability")
      .field("halt_step", halt_step)
      .field("records_on_disk", records.size())
      .field("generations_rejected",
             recovered.checkpoint_generations_rejected)
      .field("resumed", recovered.resumed ? 1 : 0)
      .field("bit_identical", reports_bit_identical(durable_ref, recovered)
                                  ? 1
                                  : 0);
  json.entry("chaos_soak/worker_churn")
      .field("runs", static_cast<std::size_t>(churn_runs))
      .field("completed", churn_completed)
      .field("failovers", dist_stats.failovers)
      .field("steals", dist_stats.steals)
      .field("confirms", dist_stats.confirms)
      .field("rejoins", dist_stats.rejoins)
      .field("mean_recovery_s", mean_recovery_s, 3)
      .field("bit_identical", churn_identical ? 1 : 0);
  json.entry("chaos_soak/journal_kill")
      .field("admitted", oracle_indices.size())
      .field("completed_before_kill", journal_recovery.completed.size())
      .field("pending_recovered", journal_recovery.pending.size())
      .field("recompleted", journal_recompleted)
      .field("lost_runs", lost_runs)
      .field("torn_files", journal_recovery.torn_files)
      .field("bit_identical", journal_identical ? 1 : 0);
  json.entry("chaos_soak/budget_isolation")
      .field("runs_per_tenant", static_cast<std::size_t>(budget_runs))
      .field("greedy_killed", greedy_killed)
      .field("greedy_hinted", greedy_hinted ? 1 : 0)
      .field("accountant_kills", accountant.kills())
      .field("greedy_cpu_s", greedy_usage.usage.cpu_s, 3)
      .field("honest_cpu_s", honest_usage.usage.cpu_s, 3)
      .field("honest_completed", honest_completed)
      .field("bystander_bit_identical", honest_identical ? 1 : 0);
  if (json.write("BENCH_chaos_soak.json"))
    std::printf("\nwrote BENCH_chaos_soak.json (%zu entries)\n",
                json.entry_count());
  else
    std::fprintf(stderr, "\ncould not write BENCH_chaos_soak.json\n");

  if (failures > 0) {
    std::fprintf(stderr, "\n%d invariant(s) FAILED\n", failures);
    return 1;
  }
  std::printf("\nall invariants held\n");
  return 0;
}
