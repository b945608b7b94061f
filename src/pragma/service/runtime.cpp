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
    : distributed_(std::move(options.distributed)),
      journal_(make_journal(std::move(options.journal), &recovery_)),
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
  if (journal_ && journal_->config().auto_resubmit) {
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
    std::unique_ptr<partition::WorkGridCache>& cache =
        caches_[spec.trace.get()];
    if (!cache) cache = std::make_unique<partition::WorkGridCache>();
    spec.workgrid_cache = cache.get();
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

std::vector<RunOutcome> Runtime::run_burst(std::vector<RunSpec> specs) {
  std::vector<RunOutcome> outcomes(specs.size());
  if (!distributed_.enabled) {
    // Scheduler path: one batched admission (one journal frame, one
    // fsync), then join in order.
    std::vector<util::Expected<RunHandle>> handles =
        submit_batch(std::move(specs));
    for (std::size_t i = 0; i < handles.size(); ++i) {
      if (handles[i]) {
        outcomes[i] = handles[i].value().wait();
      } else {
        outcomes[i].state = RunState::kFailed;
        outcomes[i].status = handles[i].status();
      }
    }
    return outcomes;
  }

  DistributedService service(distributed_, defaults_.seed);
  for (std::size_t w = 0; w < distributed_.workers; ++w)
    service.add_worker(std::string("w").append(std::to_string(w)));
  // Same durability contract as the scheduler path: the pending records
  // are on disk (one sealed batch frame, one fsync) before any
  // coordinator lease enqueue returns.  append_batch is all-or-nothing:
  // a saturated journal sheds the whole burst rather than silently
  // running some specs without durability.
  std::vector<std::uint64_t> journal_seqs;
  if (journal_) {
    std::vector<const RunSpec*> pointers;
    pointers.reserve(specs.size());
    for (const RunSpec& spec : specs) pointers.push_back(&spec);
    util::Expected<std::vector<std::uint64_t>> seqs =
        journal_->append_batch(pointers);
    if (!seqs) {
      for (RunOutcome& outcome : outcomes) {
        outcome.state = RunState::kFailed;
        outcome.status = seqs.status();
      }
      return outcomes;
    }
    journal_seqs = std::move(seqs).value();
  }
  std::vector<util::Expected<RunHandle>> handles =
      service.submit_batch(std::move(specs));
  const util::Status status = service.run_until_done();
  // Tickets of runs that never reached a terminal state (run_until_done
  // timed out) resolve as kFailed carrying the reason; with a clean
  // finish this is a no-op because on_result already resolved them all.
  service.coordinator().resolve_pending(
      status.is_ok()
          ? util::Status::internal("run never reached a terminal state")
          : status);
  for (std::size_t i = 0; i < handles.size(); ++i) {
    if (handles[i]) {
      outcomes[i] = handles[i].value().wait();
    } else {
      outcomes[i].state = RunState::kFailed;
      outcomes[i].status = handles[i].status();
    }
  }
  // Every journaled spec has been resolved one way or the other and its
  // outcome reported to the caller; a kill before this point leaves the
  // pending records for the next process to recover.
  if (journal_) {
    for (const std::uint64_t seq : journal_seqs)
      if (seq != 0) journal_->tombstone(seq);
  }
  return outcomes;
}

const grid::Cluster& Runtime::cluster() {
  if (!cluster_) cluster_.emplace(build_cluster(defaults_));
  return *cluster_;
}

}  // namespace pragma::service
