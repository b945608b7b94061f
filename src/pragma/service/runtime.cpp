#include "pragma/service/runtime.hpp"

#include <utility>

#include "pragma/obs/obs.hpp"
#include "pragma/util/logging.hpp"

namespace pragma::service {

namespace {
/// The scheduler receives the journal pointer through its config.
SchedulerConfig with_journal(SchedulerConfig config, Journal* journal) {
  config.journal = journal;
  return config;
}
}  // namespace

std::unique_ptr<Journal> Runtime::make_journal(JournalConfig config,
                                               JournalRecovery* recovery) {
  if (!config.enabled) return nullptr;
  auto journal = std::make_unique<Journal>(std::move(config));
  util::Expected<JournalRecovery> opened = journal->open();
  if (!opened) {
    util::log_warn("runtime: journal unusable, serving without admission "
                   "durability: ",
                   opened.status().to_string());
    return nullptr;
  }
  *recovery = std::move(opened).value();
  return journal;
}

Runtime::Runtime(Options options)
    : journal_(make_journal(std::move(options.journal), &recovery_)),
      scheduler_(with_journal(options.scheduler, journal_.get()),
                 options.pool) {
  if (options.grid) {
    defaults_.nprocs = options.grid->nprocs;
    defaults_.capacity_spread = options.grid->capacity_spread;
    defaults_.sites = options.grid->sites;
    defaults_.wan_mbps = options.grid->wan_mbps;
    defaults_.seed = options.grid->seed;
  }
  if (options.obs) {
    defaults_.obs = *options.obs;
    obs::apply(defaults_.obs);
  }
  // Replay survivors of a previous process before accepting new work.
  // At-least-once: each run re-executes under its original journal seq;
  // checkpoint resume (forced on for persisting runs) and deterministic
  // seeded execution fence the rerun to an effectively-once outcome.
  if (journal_) {
    for (const RecoveredRun& run : recovery_.pending) {
      RunSpec spec = run.spec;
      if (spec.persist.enabled) spec.persist.resume = true;
      util::Expected<RunHandle> handle =
          scheduler_.resubmit_recovered(std::move(spec), run.seq);
      if (handle) {
        recovered_handles_.push_back(std::move(handle).value());
      } else {
        util::log_warn("runtime: recovered run \"", run.spec.name,
                       "\" shed at resubmission: ",
                       handle.status().to_string());
      }
    }
  }
}

void Runtime::wire_cache(RunSpec& spec) {
  const bool replays = spec.kind == WorkloadKind::kTraceReplay ||
                       spec.kind == WorkloadKind::kSystemSensitive;
  if (replays && spec.trace && spec.workgrid_cache == nullptr) {
    std::lock_guard<std::mutex> lock(caches_mu_);
    // A freed trace's address may be reused by the next one, so its
    // grids must go before the lookup.  No run still uses them: every
    // queued or running spec holds its trace.
    std::erase_if(caches_, [](const auto& entry) {
      return entry.second.trace.expired();
    });
    TraceCache& entry = caches_[spec.trace.get()];
    if (!entry.cache) {
      entry.trace = spec.trace;
      entry.cache = std::make_unique<partition::WorkGridCache>();
    }
    spec.workgrid_cache = entry.cache.get();
  }
}

util::Expected<RunHandle> Runtime::submit(RunSpec spec) {
  wire_cache(spec);
  return scheduler_.submit(std::move(spec));
}

std::vector<util::Expected<RunHandle>> Runtime::submit_batch(
    std::vector<RunSpec> specs) {
  for (RunSpec& spec : specs) wire_cache(spec);
  return scheduler_.submit_batch(std::move(specs));
}

RunOutcome Runtime::run(RunSpec spec) {
  util::Expected<RunHandle> handle = submit(std::move(spec));
  if (!handle) {
    RunOutcome outcome;
    outcome.state = RunState::kFailed;
    outcome.status = handle.status();
    return outcome;
  }
  return handle.value().wait();
}

const grid::Cluster& Runtime::cluster() {
  if (!cluster_) cluster_.emplace(build_cluster(defaults_));
  return *cluster_;
}

}  // namespace pragma::service
