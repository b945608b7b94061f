// pragma::Runtime — the front door of the service layer.
//
// Owns the wiring every example used to duplicate: the scheduler, the
// process-wide obs setup, the default RunSpec (grid shape), and the
// per-trace WorkGridCache map that lets concurrent replays of one
// adaptation trace coalesce their rasterization work.
//
//   auto rt = pragma::Runtime::Builder{}
//                 .grid({.nprocs = 32, .capacity_spread = 0.35})
//                 .obs(obs_config)
//                 .build();
//   RunSpec spec = rt.spec();          // defaults pre-applied
//   spec.trace = trace;
//   spec.kind = WorkloadKind::kTraceReplay;
//   auto handle = rt.submit(spec);     // async; Expected<RunHandle>
//   const RunOutcome& out = handle.value().wait();
#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <optional>

#include "pragma/service/journal.hpp"
#include "pragma/service/run_spec.hpp"
#include "pragma/service/scheduler.hpp"

namespace pragma::service {

/// The machine every run of this runtime targets by default.
struct GridSpec {
  std::size_t nprocs = 16;
  double capacity_spread = 0.0;  ///< 0 = homogeneous
  std::size_t sites = 1;         ///< >1 = federated over a WAN
  double wan_mbps = 20.0;
  std::uint64_t seed = 40;
};

class Runtime {
  struct Options {
    std::optional<GridSpec> grid;
    std::optional<obs::ObsConfig> obs;
    SchedulerConfig scheduler;
    JournalConfig journal;
    util::ThreadPool* pool = nullptr;
  };

 public:
  class Builder {
   public:
    /// Default machine shape for submitted runs.
    Builder& grid(GridSpec grid) {
      options_.grid = grid;
      return *this;
    }
    /// Process-wide observability, applied (merge-enable) at build().
    Builder& obs(obs::ObsConfig config) {
      options_.obs = config;
      return *this;
    }
    /// Concurrent runs in flight (0 = executing pool's size).
    Builder& workers(std::size_t count) {
      options_.scheduler.workers = count;
      return *this;
    }
    Builder& queue_capacity(std::size_t capacity) {
      options_.scheduler.queue_capacity = capacity;
      return *this;
    }
    /// Pool the runs execute on (must outlive the runtime); default
    /// util::shared_pool().
    Builder& pool(util::ThreadPool* pool) {
      options_.pool = pool;
      return *this;
    }
    /// Crash-durable admission journal.  With `config.enabled` every
    /// admitted spec is durably appended before submit() returns, and
    /// build() replays the journal: pending runs from a killed process
    /// are resubmitted (with checkpoint resume forced on, so reruns fast
    /// -forward instead of recomputing) before the first new submission.
    /// Off by default; the off path is byte-identical to a runtime built
    /// without this call.
    Builder& journal(JournalConfig config) {
      options_.journal = std::move(config);
      return *this;
    }
    /// Per-tenant token-bucket admission rate limit (off by default).
    Builder& rate_limit(TenantRateLimit limit) {
      options_.scheduler.rate_limit = limit;
      return *this;
    }
    /// Per-run resource accounting and budget enforcement (off by
    /// default).  Not owned; must outlive the runtime.  Null (the
    /// default) is the byte-identical pre-accounting path.  The
    /// distributed plane takes its own (DistributedConfig::accountant).
    Builder& accountant(res::ResourceAccountant* accountant) {
      options_.scheduler.accountant = accountant;
      return *this;
    }
    [[nodiscard]] Runtime build() { return Runtime(std::move(options_)); }

   private:
    Options options_;
  };

  /// A copy of the runtime's default spec — start here, tweak, submit.
  [[nodiscard]] RunSpec spec() const { return defaults_; }

  /// Admit a run for asynchronous execution.  Replay specs sharing a
  /// trace are pointed at one work-grid cache so their rasterization
  /// coalesces.  Sheds with Status::unavailable under backpressure.
  [[nodiscard]] util::Expected<RunHandle> submit(RunSpec spec);

  /// Admit N runs in one call.  Results come back index-aligned with the
  /// input; each slot is independently a handle or a shed status (see
  /// ShedInfo for the structured retry classification).  On the
  /// scheduler path the batch is journaled as ONE sealed frame with one
  /// fsync and identical derived specs inside the batch coalesce onto a
  /// single execution — submit_batch is the high-throughput front door.
  /// A batch of one is byte-identical to submit().
  [[nodiscard]] std::vector<util::Expected<RunHandle>> submit_batch(
      std::vector<RunSpec> specs);

  /// Submit and join: the synchronous convenience path.  Admission
  /// rejection comes back as a kFailed outcome carrying the status.
  RunOutcome run(RunSpec spec);

  /// Block until every admitted run has finished.
  void drain() { scheduler_.drain(); }

  [[nodiscard]] SchedulerStats stats() const { return scheduler_.stats(); }
  [[nodiscard]] Scheduler& scheduler() { return scheduler_; }

  /// The admission journal (null when journaling is off or its directory
  /// could not be opened — the runtime then serves without durability).
  [[nodiscard]] Journal* journal() { return journal_.get(); }
  /// What startup recovery replayed from the journal.
  [[nodiscard]] const JournalRecovery& recovered() const { return recovery_; }
  /// Handles of the recovered runs resubmitted at build() (in journal
  /// sequence order); wait on them like any other submission.
  [[nodiscard]] std::vector<RunHandle>& recovered_handles() {
    return recovered_handles_;
  }

  /// The default machine, built on first use (examples that model
  /// placement directly, e.g. the federation demo, read it).
  [[nodiscard]] const grid::Cluster& cluster();

 private:
  explicit Runtime(Options options);

  /// Construct + open the journal (null when disabled); recovery results
  /// land in *recovery.  An unopenable journal logs loudly and returns
  /// null — the runtime keeps serving without durability rather than
  /// refusing to start.
  [[nodiscard]] static std::unique_ptr<Journal> make_journal(
      JournalConfig config, JournalRecovery* recovery);

  /// Point replay specs sharing a trace at one WorkGridCache so their
  /// rasterization coalesces (shared by submit and submit_batch).
  void wire_cache(RunSpec& spec);

  /// A work-grid cache and the trace it rasterizes.  The weak_ptr tells a
  /// freed trace from a new one allocated at the same address.
  struct TraceCache {
    std::weak_ptr<const amr::AdaptationTrace> trace;
    std::unique_ptr<partition::WorkGridCache> cache;
  };

  RunSpec defaults_;
  std::optional<grid::Cluster> cluster_;
  // Declared before scheduler_ so caches outlive in-flight runs during
  // destruction (members destroy in reverse order).
  std::mutex caches_mu_;
  std::map<const amr::AdaptationTrace*, TraceCache> caches_;
  // Journal before scheduler_: the scheduler holds a raw pointer and
  // tombstones terminal runs during its own destruction.
  JournalRecovery recovery_;
  std::unique_ptr<Journal> journal_;
  std::vector<RunHandle> recovered_handles_;
  Scheduler scheduler_;
};

}  // namespace pragma::service

namespace pragma {
// The facade names examples and embedders use.
using service::GridSpec;       // NOLINT(misc-unused-using-decls)
using service::RunHandle;      // NOLINT(misc-unused-using-decls)
using service::RunOutcome;     // NOLINT(misc-unused-using-decls)
using service::RunSpec;        // NOLINT(misc-unused-using-decls)
using service::Runtime;        // NOLINT(misc-unused-using-decls)
using service::WorkloadKind;   // NOLINT(misc-unused-using-decls)
}  // namespace pragma
