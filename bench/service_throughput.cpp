// Service soak — the multi-run scheduler under a grid-shaped job mix.
//
// Two questions, one artifact:
//
//   1. Throughput.  A batch of grid jobs — each one stages its input over
//      the (simulated) wide area, runs a short computation, and stages
//      results back — is pushed through pragma::service::Scheduler at
//      worker counts 1/2/4/8.  Stage-in/stage-out are latency, not CPU,
//      which is exactly the regime the multi-run scheduler exists for:
//      while one run waits on the WAN another computes.  We report
//      aggregate runs/sec, the speedup over the 1-worker serial baseline,
//      and the admission-queue latency percentiles the scheduler tracks.
//
//   2. Determinism.  A 16-run batch of fully managed RM3D executions
//      (background load, system-sensitive partitioning, modeled
//      partitioner cost) is executed once serially through core::ManagedRun
//      and once concurrently through the scheduler, and the two report
//      sets must match bitwise — per-run isolation (derived seeds,
//      per-run RNG streams) is what makes concurrent execution safe.
//
//   3. Journal overhead.  The same admission front door with the
//      crash-durable journal off vs on: concurrent submitters push a
//      large spec backlog (default 100k) into a gated scheduler, and we
//      report per-submit p50/p99 — the price of a durable admission is
//      one group-committed fsync shared across the submitter threads —
//      plus the sustained queue depth.
//
//   4. Batched admission.  The same backlog pushed through
//      submit_batch() at a batch-size sweep, journal on: every batch is
//      one sealed kBatch WAL frame and one fsync, so the per-spec
//      amortized submit latency collapses.  Gated: the best batched
//      journal-on point must reach >= 10x the single-submit journal-on
//      throughput with an amortized p99 under --batch-p99-gate-ms
//      (default 1 ms).
//
// Results land in BENCH_service_throughput.json.  Exit code is non-zero
// when the determinism gate fails, 8 workers do not reach 3x the serial
// aggregate throughput, the journaled scheduler fails to sustain the
// full queued backlog, or the batched-admission gate misses, so CI can
// run this directly.  --admission-only skips the worker sweep and the
// determinism gate (phases 1-2) for a fast perf-smoke run of the
// admission phases.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <future>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "pragma/core/managed_run.hpp"
#include "pragma/service/journal.hpp"
#include "pragma/service/scheduler.hpp"
#include "pragma/util/cli.hpp"
#include "pragma/util/thread_pool.hpp"

using namespace pragma;

namespace {

struct BenchConfig {
  int runs = 24;           // grid jobs per worker-count sweep point
  double stage_ms = 400.0; // simulated WAN stage-in + stage-out, each half
  int batch = 16;          // managed runs in the determinism gate
  int steps = 40;          // coarse steps per managed run
};

/// A grid job: stage in, compute, stage out.  The staging halves are pure
/// latency (the job is off-CPU, as it would be while GridFTP moves its
/// input), the compute part is a short deterministic checksum so the job
/// is not free.
service::RunSpec grid_job(int index, double stage_ms) {
  service::RunSpec spec;
  std::string name = "grid-";
  name += std::to_string(index);
  spec.name = std::move(name);
  spec.tenant = index % 2 == 0 ? "astro" : "climate";
  spec.priority = index % 3;
  spec.kind = service::WorkloadKind::kCustom;
  spec.custom = [stage_ms](service::RunContext& context) {
    const auto half =
        std::chrono::duration<double, std::milli>(stage_ms / 2.0);
    std::this_thread::sleep_for(half);  // stage-in
    if (context.cancel_requested()) return util::Status::ok();
    volatile std::uint64_t checksum = 0;
    for (std::uint64_t i = 0; i < 2'000'000; ++i)
      checksum = checksum * 6364136223846793005ull + i;
    std::this_thread::sleep_for(half);  // stage-out
    return util::Status::ok();
  };
  return spec;
}

/// One sweep point: `runs` grid jobs through a scheduler with `workers`
/// slots.  Returns the wall time; fills the stats out-param.
double sweep_point(std::size_t workers, const BenchConfig& config,
                   service::SchedulerStats* stats) {
  util::ThreadPool pool(workers);
  service::Scheduler scheduler(
      {workers, /*queue_capacity=*/static_cast<std::size_t>(config.runs) + 8},
      &pool);
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < config.runs; ++i) {
    auto handle = scheduler.submit(grid_job(i, config.stage_ms));
    if (!handle.has_value()) {
      std::cerr << "unexpected admission rejection: "
                << handle.status().to_string() << "\n";
      std::exit(1);
    }
  }
  scheduler.drain();
  const std::chrono::duration<double> wall =
      std::chrono::steady_clock::now() - start;
  *stats = scheduler.stats();
  return wall.count();
}

/// Full-precision serialization so managed reports compare bitwise.
std::string fingerprint(const core::ManagedRunReport& report) {
  std::ostringstream os;
  os.precision(17);
  os << report.total_time_s << '|' << report.regrids << '|'
     << report.repartitions << '|' << report.agent_events << '|'
     << report.adm_decisions << '|' << report.event_repartitions << '|'
     << report.migrations << '|' << report.partitioner_switches << '|'
     << report.cells_advanced << '\n';
  for (const core::ManagedStepRecord& record : report.records)
    os << record.step << ';' << record.octant << ';' << record.partitioner
       << ';' << record.sim_time_s << ';' << record.step_time_s << ';'
       << record.imbalance << ';' << record.live_nodes << '\n';
  return os.str();
}

service::RunSpec managed_base(const BenchConfig& config) {
  service::RunSpec spec;
  spec.name = "soak";
  spec.kind = service::WorkloadKind::kManaged;
  spec.app.coarse_steps = config.steps;
  spec.nprocs = 8;
  spec.capacity_spread = 0.3;
  spec.with_background_load = true;
  spec.system_sensitive = true;
  spec.modeled_partition_s_per_cell = 50e-9;
  return spec;
}

/// The determinism gate: N managed runs serial vs concurrent, bitwise.
bool batch_is_bitwise_reproducible(const BenchConfig& config) {
  const service::RunSpec base = managed_base(config);

  std::vector<std::string> serial;
  for (int i = 0; i < config.batch; ++i) {
    core::ManagedRun run(base.derived(i));
    serial.push_back(fingerprint(run.run()));
  }

  util::ThreadPool pool(8);
  service::Scheduler scheduler(
      {/*workers=*/8,
       /*queue_capacity=*/static_cast<std::size_t>(config.batch)},
      &pool);
  std::vector<service::RunHandle> handles;
  for (int i = 0; i < config.batch; ++i)
    handles.push_back(scheduler.submit(base.derived(i)).value());

  bool identical = true;
  for (int i = 0; i < config.batch; ++i) {
    const service::RunOutcome& outcome = handles[static_cast<std::size_t>(i)]
                                             .wait();
    if (outcome.state != service::RunState::kCompleted) {
      std::cerr << "determinism gate: run " << i << " ended "
                << service::to_string(outcome.state) << "\n";
      identical = false;
      continue;
    }
    if (fingerprint(outcome.managed) != serial[static_cast<std::size_t>(i)]) {
      std::cerr << "determinism gate: run " << i
                << " diverged from its serial twin\n";
      identical = false;
    }
  }
  return identical;
}

struct AdmissionResult {
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double wall_s = 0.0;
  double submits_per_sec = 0.0;
  std::size_t queued = 0;
  std::uint64_t fsyncs = 0;
  std::uint64_t compactions = 0;
};

/// Push `total` specs from `threads` concurrent submitters into a
/// scheduler whose single worker is parked on a gate, so every spec
/// lands in the queue and submit latency is pure admission cost (plus
/// the journal append when one is wired in).
AdmissionResult admission_point(int total, int threads,
                                service::Journal* journal) {
  util::ThreadPool pool(1);
  service::SchedulerConfig config;
  config.workers = 1;
  config.queue_capacity = static_cast<std::size_t>(total) + 8;
  config.journal = journal;
  service::Scheduler scheduler(config, &pool);

  std::promise<void> gate;
  std::shared_future<void> release = gate.get_future().share();
  service::RunSpec blocker;
  blocker.name = "blocker";
  blocker.kind = service::WorkloadKind::kCustom;
  blocker.custom = [release](service::RunContext&) {
    release.wait();
    return util::Status::ok();
  };
  if (!scheduler.submit(std::move(blocker)).has_value()) std::exit(1);

  std::vector<std::vector<double>> samples(
      static_cast<std::size_t>(threads));
  std::atomic<int> next{0};
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> submitters;
  submitters.reserve(static_cast<std::size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    submitters.emplace_back([&, t] {
      std::vector<double>& mine = samples[static_cast<std::size_t>(t)];
      mine.reserve(static_cast<std::size_t>(total / threads + 1));
      int index = 0;
      while ((index = next.fetch_add(1)) < total) {
        service::RunSpec spec;
        spec.name = "adm-" + std::to_string(index);
        spec.tenant = index % 2 == 0 ? "astro" : "climate";
        spec.kind = service::WorkloadKind::kCustom;
        spec.seed = static_cast<std::uint64_t>(index);
        spec.custom = [](service::RunContext&) { return util::Status::ok(); };
        const auto t0 = std::chrono::steady_clock::now();
        auto handle = scheduler.submit(std::move(spec));
        const std::chrono::duration<double, std::milli> elapsed =
            std::chrono::steady_clock::now() - t0;
        if (!handle.has_value()) {
          std::cerr << "admission phase: unexpected shed: "
                    << handle.status().to_string() << "\n";
          std::exit(1);
        }
        mine.push_back(elapsed.count());
      }
    });
  }
  for (std::thread& thread : submitters) thread.join();

  AdmissionResult result;
  const std::chrono::duration<double> wall =
      std::chrono::steady_clock::now() - start;
  result.wall_s = wall.count();
  result.submits_per_sec = static_cast<double>(total) / result.wall_s;
  result.queued = scheduler.queue_depth();
  if (journal != nullptr) {
    const service::JournalStats stats = journal->stats();
    result.fsyncs = stats.fsyncs;
    result.compactions = stats.compactions;
  }

  std::vector<double> all;
  all.reserve(static_cast<std::size_t>(total));
  for (const std::vector<double>& mine : samples)
    all.insert(all.end(), mine.begin(), mine.end());
  std::sort(all.begin(), all.end());
  if (!all.empty()) {
    result.p50_ms = all[all.size() / 2];
    result.p99_ms = all[all.size() * 99 / 100];
  }

  gate.set_value();
  // Scheduler teardown resolves the queued backlog as cancelled — with a
  // journal wired in, that is one tombstone per spec plus the compactions
  // they trigger, which is part of the cost being soaked here.
  return result;
}

/// The batched variant of admission_point: submitters carve the backlog
/// into submit_batch() calls of `batch` specs.  Latency samples are
/// per-spec amortized (batch wall / batch size), one sample per batch.
AdmissionResult batched_admission_point(int total, int threads, int batch,
                                        service::Journal* journal) {
  util::ThreadPool pool(1);
  service::SchedulerConfig config;
  config.workers = 1;
  config.queue_capacity = static_cast<std::size_t>(total) + 8;
  config.journal = journal;
  service::Scheduler scheduler(config, &pool);

  std::promise<void> gate;
  std::shared_future<void> release = gate.get_future().share();
  service::RunSpec blocker;
  blocker.name = "blocker";
  blocker.kind = service::WorkloadKind::kCustom;
  blocker.custom = [release](service::RunContext&) {
    release.wait();
    return util::Status::ok();
  };
  if (!scheduler.submit(std::move(blocker)).has_value()) std::exit(1);

  std::vector<std::vector<double>> samples(
      static_cast<std::size_t>(threads));
  std::atomic<int> next{0};
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> submitters;
  submitters.reserve(static_cast<std::size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    submitters.emplace_back([&, t] {
      std::vector<double>& mine = samples[static_cast<std::size_t>(t)];
      mine.reserve(static_cast<std::size_t>(total / batch / threads + 1));
      int first = 0;
      while ((first = next.fetch_add(batch)) < total) {
        const int count = std::min(batch, total - first);
        std::vector<service::RunSpec> specs;
        specs.reserve(static_cast<std::size_t>(count));
        for (int i = 0; i < count; ++i) {
          service::RunSpec spec;
          spec.name = "adm-" + std::to_string(first + i);
          spec.tenant = (first + i) % 2 == 0 ? "astro" : "climate";
          spec.kind = service::WorkloadKind::kCustom;
          spec.seed = static_cast<std::uint64_t>(first + i);
          spec.custom = [](service::RunContext&) {
            return util::Status::ok();
          };
          specs.push_back(std::move(spec));
        }
        const auto t0 = std::chrono::steady_clock::now();
        auto handles = scheduler.submit_batch(std::move(specs));
        const std::chrono::duration<double, std::milli> elapsed =
            std::chrono::steady_clock::now() - t0;
        for (const auto& handle : handles) {
          if (!handle.has_value()) {
            std::cerr << "batched admission: unexpected shed: "
                      << handle.status().to_string() << "\n";
            std::exit(1);
          }
        }
        mine.push_back(elapsed.count() / count);
      }
    });
  }
  for (std::thread& thread : submitters) thread.join();

  AdmissionResult result;
  const std::chrono::duration<double> wall =
      std::chrono::steady_clock::now() - start;
  result.wall_s = wall.count();
  result.submits_per_sec = static_cast<double>(total) / result.wall_s;
  result.queued = scheduler.queue_depth();
  if (journal != nullptr) {
    const service::JournalStats stats = journal->stats();
    result.fsyncs = stats.fsyncs;
    result.compactions = stats.compactions;
  }

  std::vector<double> all;
  for (const std::vector<double>& mine : samples)
    all.insert(all.end(), mine.begin(), mine.end());
  std::sort(all.begin(), all.end());
  if (!all.empty()) {
    result.p50_ms = all[all.size() / 2];
    result.p99_ms = all[all.size() * 99 / 100];
  }

  gate.set_value();
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  util::CliFlags flags("Multi-run scheduler throughput and determinism soak.");
  flags.add_int("runs", 24, "grid jobs per sweep point");
  flags.add_double("stage-ms", 400.0, "simulated stage-in+out latency per job");
  flags.add_int("batch", 16, "managed runs in the determinism gate");
  flags.add_int("steps", 40, "coarse steps per managed run");
  flags.add_int("journal-specs", 100000,
                "specs queued in the journal-overhead phase (0: skip)");
  flags.add_int("journal-threads", 8,
                "concurrent submitters in the journal-overhead phase");
  flags.add_bool("admission-only", false,
                 "skip the worker sweep and determinism gate (perf smoke)");
  flags.add_double("batch-p99-gate-ms", 1.0,
                   "batched amortized-p99 gate (sanitizer jobs relax it)");
  if (!flags.parse(argc, argv)) return 0;

  BenchConfig config;
  config.runs = flags.get_int("runs");
  config.stage_ms = flags.get_double("stage-ms");
  config.batch = flags.get_int("batch");
  config.steps = flags.get_int("steps");

  const bool admission_only = flags.get_bool("admission-only");

  bench::banner("SERVICE", "Multi-run scheduler: throughput and determinism");

  util::BenchJsonWriter json;
  bool reached_3x = true;
  double speedup_at_8 = 0.0;
  bool identical = true;
  if (!admission_only) {
    util::TextTable table({"workers", "wall (s)", "runs/sec", "speedup",
                           "queue p50 (ms)", "queue p99 (ms)"});
    double serial_wall = 0.0;
    for (const std::size_t workers : {1u, 2u, 4u, 8u}) {
      service::SchedulerStats stats;
      const double wall = sweep_point(workers, config, &stats);
      if (workers == 1) serial_wall = wall;
      const double speedup = serial_wall / wall;
      if (workers == 8) {
        speedup_at_8 = speedup;
        reached_3x = speedup >= 3.0;
      }
      const double runs_per_sec = static_cast<double>(config.runs) / wall;
      table.add_row({util::cell(static_cast<double>(workers), 0),
                     util::cell(wall, 3), util::cell(runs_per_sec, 2),
                     util::cell(speedup, 2),
                     util::cell(stats.queue_p50_s * 1e3, 1),
                     util::cell(stats.queue_p99_s * 1e3, 1)});
      std::string entry = "workers-";
      entry += std::to_string(workers);
      json.entry(entry)
          .field("workers", workers)
          .field("runs", static_cast<std::size_t>(config.runs))
          .field("wall_s", wall, 4)
          .field("runs_per_sec", runs_per_sec, 3)
          .field("speedup_vs_serial", speedup, 3)
          .field("queue_p50_ms", stats.queue_p50_s * 1e3, 3)
          .field("queue_p99_ms", stats.queue_p99_s * 1e3, 3);
    }
    std::cout << table.render();

    std::cout << "\nDeterminism gate: " << config.batch
              << " managed runs, concurrent (8 workers) vs serial...\n";
    identical = batch_is_bitwise_reproducible(config);
    std::cout << (identical ? "  bitwise identical\n" : "  DIVERGED\n");
    json.entry("determinism-gate")
        .field("batch", static_cast<std::size_t>(config.batch))
        .field("bitwise_identical", identical ? 1 : 0);
  }

  // ---- journal-overhead phase -------------------------------------------
  const int journal_specs = static_cast<int>(flags.get_int("journal-specs"));
  const int journal_threads =
      std::max(1, static_cast<int>(flags.get_int("journal-threads")));
  bool journal_sustained = true;
  bool batched_gate = true;
  double batched_speedup = 0.0;  ///< best sweep point vs single submit
  double batched_p99 = 0.0;      ///< amortized p99 at that best point
  if (journal_specs > 0) {
    batched_gate = false;  // the sweep below must prove the gate
    std::cout << "\nJournal overhead: " << journal_specs << " specs from "
              << journal_threads << " submitters, journal off vs on...\n";
    const AdmissionResult plain =
        admission_point(journal_specs, journal_threads, nullptr);

    namespace fs = std::filesystem;
    const std::string journal_dir =
        (fs::temp_directory_path() / "pragma_service_throughput_journal")
            .string();
    fs::remove_all(journal_dir);
    service::JournalConfig journal_config;
    journal_config.enabled = true;
    journal_config.dir = journal_dir;
    service::Journal journal(journal_config);
    if (!journal.open().has_value()) {
      std::cerr << "cannot open bench journal in " << journal_dir << "\n";
      return 1;
    }
    const AdmissionResult durable =
        admission_point(journal_specs, journal_threads, &journal);
    fs::remove_all(journal_dir);

    journal_sustained =
        plain.queued == static_cast<std::size_t>(journal_specs) &&
        durable.queued == static_cast<std::size_t>(journal_specs);

    util::TextTable journal_table({"journal", "p50 (ms)", "p99 (ms)",
                                   "submits/sec", "queued", "fsyncs"});
    journal_table.add_row({"off", util::cell(plain.p50_ms, 3),
                           util::cell(plain.p99_ms, 3),
                           util::cell(plain.submits_per_sec, 0),
                           util::cell(plain.queued), util::cell(0)});
    journal_table.add_row({"on", util::cell(durable.p50_ms, 3),
                           util::cell(durable.p99_ms, 3),
                           util::cell(durable.submits_per_sec, 0),
                           util::cell(durable.queued),
                           util::cell(durable.fsyncs)});
    std::cout << journal_table.render();

    json.entry("journal-off")
        .field("specs", static_cast<std::size_t>(journal_specs))
        .field("threads", static_cast<std::size_t>(journal_threads))
        .field("submit_p50_ms", plain.p50_ms, 4)
        .field("submit_p99_ms", plain.p99_ms, 4)
        .field("submits_per_sec", plain.submits_per_sec, 1)
        .field("queued", plain.queued);
    json.entry("journal-on")
        .field("specs", static_cast<std::size_t>(journal_specs))
        .field("threads", static_cast<std::size_t>(journal_threads))
        .field("submit_p50_ms", durable.p50_ms, 4)
        .field("submit_p99_ms", durable.p99_ms, 4)
        .field("submits_per_sec", durable.submits_per_sec, 1)
        .field("queued", durable.queued)
        .field("fsyncs", durable.fsyncs)
        .field("compactions", durable.compactions)
        .field("p99_overhead_ms", durable.p99_ms - plain.p99_ms, 4);

    // ---- batched admission sweep (journal on) ---------------------------
    std::cout << "\nBatched admission (journal on): batch-size sweep over "
                 "the same backlog...\n";
    util::TextTable batch_table({"batch", "p50/spec (ms)", "p99/spec (ms)",
                                 "submits/sec", "vs single", "fsyncs"});
    for (const int batch : {16, 64, 256}) {
      fs::remove_all(journal_dir);
      service::Journal sweep_journal(journal_config);
      if (!sweep_journal.open().has_value()) {
        std::cerr << "cannot open bench journal in " << journal_dir << "\n";
        return 1;
      }
      const AdmissionResult point = batched_admission_point(
          journal_specs, journal_threads, batch, &sweep_journal);
      const double speedup = point.submits_per_sec / durable.submits_per_sec;
      // The gate holds if the best batched configuration clears it —
      // which point wins shifts a little with machine noise, the
      // pipeline's capability is what is being gated.
      if (speedup > batched_speedup) {
        batched_speedup = speedup;
        batched_p99 = point.p99_ms;
        batched_gate = speedup >= 10.0 &&
                       point.p99_ms < flags.get_double("batch-p99-gate-ms");
      }
      batch_table.add_row({util::cell(static_cast<double>(batch), 0),
                           util::cell(point.p50_ms, 4),
                           util::cell(point.p99_ms, 4),
                           util::cell(point.submits_per_sec, 0),
                           util::cell(speedup, 1), util::cell(point.fsyncs)});
      std::string entry = "batch-";
      entry += std::to_string(batch);
      json.entry(entry)
          .field("specs", static_cast<std::size_t>(journal_specs))
          .field("threads", static_cast<std::size_t>(journal_threads))
          .field("batch", static_cast<std::size_t>(batch))
          .field("amortized_p50_ms", point.p50_ms, 4)
          .field("amortized_p99_ms", point.p99_ms, 4)
          .field("submits_per_sec", point.submits_per_sec, 1)
          .field("speedup_vs_single_submit", speedup, 2)
          .field("fsyncs", point.fsyncs);
    }
    fs::remove_all(journal_dir);
    std::cout << batch_table.render();
  }

  bench::write_bench_json(json, "BENCH_service_throughput.json");

  if (!identical) {
    std::cerr << "FAIL: concurrent batch is not bitwise reproducible\n";
    return 1;
  }
  if (!reached_3x) {
    std::cerr << "FAIL: 8 workers reached only " << speedup_at_8
              << "x the serial throughput (need >= 3x)\n";
    return 1;
  }
  if (!journal_sustained) {
    std::cerr << "FAIL: scheduler shed submissions before reaching "
              << journal_specs << " queued specs\n";
    return 1;
  }
  if (!batched_gate) {
    std::cerr << "FAIL: batched journal-on admission reached "
              << batched_speedup << "x the single-submit throughput with "
              << batched_p99 << " ms amortized p99 (need >= 10x and < "
              << flags.get_double("batch-p99-gate-ms") << " ms)\n";
    return 1;
  }
  return 0;
}
