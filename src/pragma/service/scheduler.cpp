#include "pragma/service/scheduler.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "pragma/obs/metrics.hpp"
#include "pragma/service/executor.hpp"
#include "pragma/service/journal.hpp"
#include "pragma/util/logging.hpp"
#include "pragma/util/stats.hpp"

namespace pragma::service {

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

// Service counters; every add() is a no-op while obs metrics are off.
obs::Counter& submitted_counter() {
  static obs::Counter& counter =
      obs::metrics().counter("service.runs.submitted");
  return counter;
}
obs::Counter& rejected_counter() {
  static obs::Counter& counter =
      obs::metrics().counter("service.runs.rejected");
  return counter;
}
obs::Counter& completed_counter() {
  static obs::Counter& counter =
      obs::metrics().counter("service.runs.completed");
  return counter;
}
obs::Counter& failed_counter() {
  static obs::Counter& counter = obs::metrics().counter("service.runs.failed");
  return counter;
}
obs::Counter& cancelled_counter() {
  static obs::Counter& counter =
      obs::metrics().counter("service.runs.cancelled");
  return counter;
}
obs::Counter& shed_queue_full_counter() {
  static obs::Counter& counter =
      obs::metrics().counter("service.sched.shed_queue_full");
  return counter;
}
obs::Counter& shed_rate_limited_counter() {
  static obs::Counter& counter =
      obs::metrics().counter("service.sched.shed_rate_limited");
  return counter;
}
obs::Counter& shed_journal_counter() {
  static obs::Counter& counter =
      obs::metrics().counter("service.sched.shed_journal");
  return counter;
}
obs::Counter& batches_counter() {
  static obs::Counter& counter =
      obs::metrics().counter("service.sched.batches");
  return counter;
}
obs::Counter& batch_specs_counter() {
  static obs::Counter& counter =
      obs::metrics().counter("service.sched.batch_specs");
  return counter;
}
obs::Counter& coalesced_counter() {
  static obs::Counter& counter =
      obs::metrics().counter("service.sched.coalesced");
  return counter;
}
obs::Gauge& queue_depth_gauge() {
  static obs::Gauge& gauge = obs::metrics().gauge("service.sched.queue_depth");
  return gauge;
}
obs::Counter& budget_killed_counter() {
  static obs::Counter& counter =
      obs::metrics().counter("service.runs.budget_killed");
  return counter;
}
obs::Counter& budget_throttled_counter() {
  static obs::Counter& counter =
      obs::metrics().counter("service.runs.budget_throttled");
  return counter;
}

util::Status shutting_down_status() {
  return shed_status(util::StatusCode::kUnavailable, ShedReason::kShuttingDown,
                     "scheduler is shutting down", /*retry_after_ms=*/-1);
}

std::vector<RunSpec> batch_of_one(RunSpec spec) {
  std::vector<RunSpec> batch;
  batch.push_back(std::move(spec));
  return batch;
}

}  // namespace

Scheduler::Scheduler(SchedulerConfig config, util::ThreadPool* pool)
    : config_(config), pool_(pool != nullptr ? pool : &util::shared_pool()) {
  if (config_.queue_capacity == 0) config_.queue_capacity = 1;
}

Scheduler::~Scheduler() {
  std::vector<TicketPtr> doomed;
  std::vector<TicketPtr> running;
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Submitters still appending to the journal observe shutdown_ when
    // they come back to stage, and shed instead.
    shutdown_ = true;
    doomed.assign(queue_.begin(), queue_.end());
    queue_.clear();
    running = inflight_;
  }
  for (const TicketPtr& ticket : running) {
    std::lock_guard<std::mutex> lock(ticket->mu);
    ticket->cancel.store(true, std::memory_order_relaxed);
    if (ticket->active != nullptr) ticket->active->request_cancel();
  }
  for (const TicketPtr& ticket : doomed) {
    {
      std::lock_guard<std::mutex> lock(ticket->mu);
      ticket->state = RunState::kCancelled;
      ticket->outcome.state = RunState::kCancelled;
      ticket->outcome.status =
          util::Status::unavailable("scheduler shut down before dispatch");
    }
    ticket->cv.notify_all();
    // A clean shutdown resolves queued runs as cancelled (their callers
    // were told); tombstone so a restart does not resurrect them.
    if (config_.journal != nullptr && ticket->journal_seq != 0)
      config_.journal->tombstone(ticket->journal_seq);
  }
  drain();
}

std::size_t Scheduler::workers() const {
  if (config_.workers > 0) return config_.workers;
  return std::max<std::size_t>(1, pool_->size());
}

util::Status Scheduler::check_rate_limit(const std::string& tenant_name) {
  if (config_.rate_limit.rate_per_s <= 0.0) return util::Status::ok();
  TokenBucket& bucket = buckets_[tenant_name];
  const auto now = std::chrono::steady_clock::now();
  if (!bucket.primed) {
    bucket.primed = true;
    bucket.tokens = std::max(config_.rate_limit.burst, 1.0);
    bucket.last_refill = now;
  } else {
    const double elapsed =
        std::chrono::duration<double>(now - bucket.last_refill).count();
    bucket.tokens =
        std::min(std::max(config_.rate_limit.burst, 1.0),
                 bucket.tokens + elapsed * config_.rate_limit.rate_per_s);
    bucket.last_refill = now;
  }
  if (bucket.tokens < 1.0) {
    const double wait_s =
        (1.0 - bucket.tokens) / config_.rate_limit.rate_per_s;
    ++stats_.shed_rate_limited;
    ++stats_.rejected;
    rejected_counter().add();
    shed_rate_limited_counter().add();
    return shed_status(util::StatusCode::kUnavailable,
                       ShedReason::kRateLimited,
                       "tenant \"" + tenant_name + "\" rate limited",
                       static_cast<int>(wait_s * 1000.0) + 1);
  }
  bucket.tokens -= 1.0;
  return util::Status::ok();
}

util::Expected<RunHandle> Scheduler::submit(RunSpec spec) {
  return std::move(submit_specs(batch_of_one(std::move(spec)),
                                /*batch=*/false, /*recovered_seq=*/0)
                       .front());
}

util::Expected<RunHandle> Scheduler::resubmit_recovered(
    RunSpec spec, std::uint64_t journal_seq) {
  return std::move(submit_specs(batch_of_one(std::move(spec)),
                                /*batch=*/false, journal_seq)
                       .front());
}

std::vector<util::Expected<RunHandle>> Scheduler::submit_batch(
    std::vector<RunSpec> specs) {
  return submit_specs(std::move(specs), /*batch=*/true,
                      /*recovered_seq=*/0);
}

util::Status Scheduler::reserve_slot(const RunSpec& spec, bool rate_limited) {
  if (shutdown_) {
    ++stats_.rejected;
    rejected_counter().add();
    return shutting_down_status();
  }
  if (rate_limited) {
    if (util::Status limited = check_rate_limit(spec.tenant);
        !limited.is_ok())
      return limited;
  }
  if (queue_.size() + reserved_ >= config_.queue_capacity) {
    ++stats_.rejected;
    ++stats_.shed_queue_full;
    rejected_counter().add();
    shed_queue_full_counter().add();
    return shed_status(util::StatusCode::kUnavailable, ShedReason::kQueueFull,
                       "admission queue full (" +
                           std::to_string(queue_.size()) + "/" +
                           std::to_string(config_.queue_capacity) +
                           "); run \"" + spec.name + "\" shed",
                       config_.shed_retry_after_ms);
  }
  ++reserved_;
  return util::Status::ok();
}

void Scheduler::stage_locked(std::vector<Admitted>& admitted,
                             const util::Status& journaled,
                             std::vector<util::Expected<RunHandle>>& results) {
  if (admitted.empty()) return;
  reserved_ -= admitted.size();
  // Stage in index order so admission sequences match N single submits.
  for (auto& [index, ticket] : admitted) {
    if (!journaled.is_ok()) {
      ++stats_.rejected;
      ++stats_.shed_journal;
      rejected_counter().add();
      shed_journal_counter().add();
      results[index] = journaled;
      continue;
    }
    if (shutdown_) {
      // Shut down while appending: the journal keeps the pending record,
      // so a restart recovers the run instead of losing it silently.
      ++stats_.rejected;
      rejected_counter().add();
      results[index] = shutting_down_status();
      continue;
    }
    ticket->run_id = next_sequence_++;
    ticket->submitted_at = std::chrono::steady_clock::now();
    queue_.push_back(ticket);
    ++stats_.submitted;
    submitted_counter().add();
    stats_.peak_queue_depth = std::max(stats_.peak_queue_depth, queue_.size());
    queue_depth_gauge().set(static_cast<double>(queue_.size()));
    results[index] = RunHandle(std::move(ticket), this);
  }
  maybe_dispatch();
}

std::vector<util::Expected<RunHandle>> Scheduler::submit_specs(
    std::vector<RunSpec> specs, bool batch, std::uint64_t recovered_seq) {
  const std::size_t n = specs.size();
  std::vector<util::Expected<RunHandle>> results;
  results.reserve(n);
  if (n == 0) return results;
  if (batch) {
    batches_counter().add();
    batch_specs_counter().add(n);
  }
  for (std::size_t i = 0; i < n; ++i)
    results.emplace_back(util::Status::unavailable("batch slot unresolved"));

  // Coalesce: duplicates of the same journal_key with bitwise-identical
  // encoded payloads (and the same trace object) attach to the first
  // occurrence's execution.  Custom workloads never coalesce — their
  // callables are not part of the encoding, so two specs could encode
  // equal yet run different code.  Payloads are encoded only on a key
  // collision, so distinct specs cost one key each.
  std::vector<std::size_t> primary(n);
  std::map<std::string, std::size_t> first_by_key;
  std::size_t coalesced = 0;
  for (std::size_t i = 0; i < n; ++i) {
    primary[i] = i;
    if (specs[i].kind == WorkloadKind::kCustom) continue;
    const auto [it, fresh] = first_by_key.emplace(specs[i].journal_key(), i);
    const RunSpec& first = specs[it->second];
    if (!fresh && specs[i].trace == first.trace &&
        encode_run_spec(specs[i]) == encode_run_spec(first)) {
      primary[i] = it->second;
      ++coalesced;
      coalesced_counter().add();
    }
  }

  // Tickets are built outside the lock; a shed primary's ticket is
  // simply dropped.
  std::vector<Admitted> candidates;
  candidates.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (primary[i] != i) continue;  // follower: fans out below
    auto ticket = std::make_shared<detail::Ticket>();
    ticket->spec = std::move(specs[i]);
    ticket->journal_seq = recovered_seq;
    candidates.emplace_back(i, std::move(ticket));
  }

  // Recovered runs keep their original pending record instead of
  // appending again (and were rate-limited when first admitted).
  const bool recovered = recovered_seq != 0;
  const bool append = config_.journal != nullptr && !recovered;
  std::vector<Admitted> admitted;
  admitted.reserve(candidates.size());
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (batch) {
      ++stats_.batches;
      stats_.batch_specs += n;
    }
    stats_.coalesced += coalesced;
    // A shed item's slot carries its own status while the rest of the
    // batch proceeds.
    for (auto& [index, ticket] : candidates) {
      if (util::Status shed = reserve_slot(ticket->spec, !recovered);
          !shed.is_ok()) {
        results[index] = std::move(shed);
        continue;
      }
      admitted.emplace_back(index, std::move(ticket));
    }
    // No append means no disk I/O to keep outside the lock.
    if (!append) stage_locked(admitted, util::Status::ok(), results);
  }

  if (append && !admitted.empty()) {
    // ONE WAL append + ONE group-commit fsync for the whole admitted set,
    // outside the lock: no scheduler lock is ever held across disk I/O.
    // Saturation sheds the set all-or-nothing so no half of a batch is
    // durable while its other half never existed.
    std::vector<const RunSpec*> pointers;
    pointers.reserve(admitted.size());
    for (const auto& [index, ticket] : admitted)
      pointers.push_back(&ticket->spec);
    util::Expected<std::vector<std::uint64_t>> seqs =
        config_.journal->append_batch(pointers);
    if (seqs) {
      for (std::size_t k = 0; k < admitted.size(); ++k)
        admitted[k].second->journal_seq = seqs.value()[k];
    }
    std::lock_guard<std::mutex> lock(mu_);
    stage_locked(admitted, seqs ? util::Status::ok() : seqs.status(),
                 results);
  }

  // Fan each primary's result — handle or shed status — out to its
  // coalesced followers.
  for (std::size_t i = 0; i < n; ++i)
    if (primary[i] != i) results[i] = results[primary[i]];
  return results;
}

void Scheduler::drain() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [&] { return queue_.empty() && running_ == 0; });
}

SchedulerStats Scheduler::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  SchedulerStats out = stats_;
  out.queue_p50_s = util::percentile(queue_latencies_s_, 50.0);
  out.queue_p99_s = util::percentile(queue_latencies_s_, 99.0);
  return out;
}

std::size_t Scheduler::queue_depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

Scheduler::TicketPtr Scheduler::pick_next() {
  // Pass 1: the tenant owed the most service — fewest dispatched runs,
  // ties to the lexicographically smaller name so ordering is
  // deterministic regardless of submission interleaving.
  const std::string* best_tenant = nullptr;
  std::uint64_t best_share = 0;
  for (const TicketPtr& ticket : queue_) {
    const std::uint64_t share = dispatched_[ticket->spec.tenant];
    if (best_tenant == nullptr || share < best_share ||
        (share == best_share && ticket->spec.tenant < *best_tenant)) {
      best_share = share;
      best_tenant = &ticket->spec.tenant;
    }
  }
  // Pass 2: within that tenant, highest priority first, then FIFO.
  auto best = queue_.end();
  for (auto it = queue_.begin(); it != queue_.end(); ++it) {
    if ((*it)->spec.tenant != *best_tenant) continue;
    if (best == queue_.end() ||
        (*it)->spec.priority > (*best)->spec.priority ||
        ((*it)->spec.priority == (*best)->spec.priority &&
         (*it)->run_id < (*best)->run_id))
      best = it;
  }
  TicketPtr picked = *best;
  queue_.erase(best);
  return picked;
}

void Scheduler::maybe_dispatch() {
  while (running_ < workers() && !queue_.empty()) {
    TicketPtr ticket = pick_next();
    queue_depth_gauge().set(static_cast<double>(queue_.size()));
    ++running_;
    stats_.peak_running = std::max(stats_.peak_running, running_);
    const double queued_s = seconds_since(ticket->submitted_at);
    queue_latencies_s_.push_back(queued_s);
    // Pre-dispatch: the executor (and any waiter, via the terminal-state
    // handshake) observes this write through the pool's queue ordering.
    ticket->outcome.queue_s = queued_s;
    dispatched_[ticket->spec.tenant]++;
    inflight_.push_back(ticket);
    pool_->submit([this, ticket] { execute(ticket); });
  }
}

void Scheduler::execute(const TicketPtr& ticket) {
  {
    std::lock_guard<std::mutex> lock(ticket->mu);
    ticket->state = RunState::kRunning;
  }
  RunOutcome outcome;
  outcome.state = RunState::kCancelled;
  if (!ticket->cancel.load(std::memory_order_relaxed)) {
    ExecHooks hooks;
    hooks.accountant = config_.accountant;
    hooks.budget_retry_after_ms = config_.shed_retry_after_ms;
    hooks.cancel = &ticket->cancel;
    // Publish the live ManagedRun so cancel_ticket can reach it.
    hooks.on_active = [&ticket](core::ManagedRun* run) {
      std::lock_guard<std::mutex> lock(ticket->mu);
      ticket->active = run;
    };
    const auto started = std::chrono::steady_clock::now();
    outcome = execute_run(ticket->spec, hooks);
    outcome.exec_s = seconds_since(started);
  }
  outcome.queue_s = ticket->outcome.queue_s;
  finish(ticket, std::move(outcome));
}

void Scheduler::finish(const TicketPtr& ticket, RunOutcome outcome) {
  if (outcome.state == RunState::kFailed)
    util::log_warn("service: run \"", ticket->spec.name,
                   "\" failed: ", outcome.status.to_string());
  switch (outcome.state) {
    case RunState::kCompleted: completed_counter().add(); break;
    case RunState::kFailed: failed_counter().add(); break;
    case RunState::kCancelled: cancelled_counter().add(); break;
    default: break;
  }
  if (outcome.state == RunState::kFailed &&
      outcome.status.code() == util::StatusCode::kResourceExhausted)
    budget_killed_counter().add();
  if (outcome.budget_throttled) budget_throttled_counter().add();
  // Tombstone before taking mu_: the journal may compact (disk I/O) and
  // the scheduler lock must never be held across it.
  if (config_.journal != nullptr && ticket->journal_seq != 0)
    config_.journal->tombstone(ticket->journal_seq);
  std::lock_guard<std::mutex> lock(mu_);
  --running_;
  inflight_.erase(std::find(inflight_.begin(), inflight_.end(), ticket));
  switch (outcome.state) {
    case RunState::kCompleted: ++stats_.completed; break;
    case RunState::kFailed: ++stats_.failed; break;
    case RunState::kCancelled: ++stats_.cancelled; break;
    default: break;
  }
  if (outcome.state == RunState::kFailed &&
      outcome.status.code() == util::StatusCode::kResourceExhausted)
    ++stats_.budget_killed;
  if (outcome.budget_throttled) ++stats_.budget_throttled;
  {
    std::lock_guard<std::mutex> ticket_lock(ticket->mu);
    ticket->state = outcome.state;
    ticket->outcome = std::move(outcome);
  }
  ticket->cv.notify_all();
  maybe_dispatch();
  idle_cv_.notify_all();
}

bool Scheduler::cancel_ticket(const TicketPtr& ticket) {
  bool withdrawn = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = std::find(queue_.begin(), queue_.end(), ticket);
    if (it != queue_.end()) {
      queue_.erase(it);
      queue_depth_gauge().set(static_cast<double>(queue_.size()));
      ++stats_.cancelled;
      {
        std::lock_guard<std::mutex> ticket_lock(ticket->mu);
        ticket->cancel.store(true, std::memory_order_relaxed);
        ticket->state = RunState::kCancelled;
        ticket->outcome.state = RunState::kCancelled;
      }
      ticket->cv.notify_all();
      idle_cv_.notify_all();
      cancelled_counter().add();
      withdrawn = true;
    }
  }
  if (withdrawn) {
    if (config_.journal != nullptr && ticket->journal_seq != 0)
      config_.journal->tombstone(ticket->journal_seq);
    return true;
  }
  std::lock_guard<std::mutex> lock(ticket->mu);
  if (is_terminal(ticket->state)) return false;
  ticket->cancel.store(true, std::memory_order_relaxed);
  if (ticket->active != nullptr) ticket->active->request_cancel();
  return true;
}

}  // namespace pragma::service
