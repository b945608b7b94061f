#include "pragma/service/worker.hpp"

#include <algorithm>
#include <stdexcept>
#include <variant>

#include "pragma/obs/flight_recorder.hpp"
#include "pragma/obs/metrics.hpp"
#include "pragma/obs/tracer.hpp"
#include "pragma/service/executor.hpp"
#include "pragma/util/logging.hpp"

namespace pragma::service {

namespace {

double attr_double(const agents::Message& message, const std::string& key) {
  const auto it = message.payload.find(key);
  if (it == message.payload.end()) return 0.0;
  if (const double* value = std::get_if<double>(&it->second)) return *value;
  return 0.0;
}

/// Retry-after hint on distributed budget sheds (the Scheduler path uses
/// its configurable shed_retry_after_ms; here the default suffices).
constexpr int kBudgetShedRetryAfterMs = 50;

}  // namespace

Worker::Worker(sim::Simulator& simulator, agents::MessageCenter& center,
               agents::ReliableChannel& channel, Coordinator& coordinator,
               std::string name)
    : simulator_(simulator),
      center_(center),
      reliable_(channel),
      coordinator_(coordinator),
      port_(dist::kWorkerPortPrefix + name) {}

Worker::~Worker() {
  if (started_ && !dead_) kill();
}

void Worker::start() {
  if (dead_ || started_) return;
  center_.register_port(port_,
                        [this](const agents::Message& m) { on_message(m); });
  reliable_.make_endpoint(port_);
  started_ = true;
  // Announce, then beat immediately and every period: the coordinator's
  // watch() grants a grace window from registration, and the first beat
  // anchors it.
  send_control(dist::kRegister, 0, 0);
  beat();
  beat_handle_ = simulator_.schedule_periodic(
      coordinator_.config().heartbeat.period_s, [this] { beat(); });
}

void Worker::kill() {
  if (dead_) return;
  dead_ = true;
  simulator_.cancel(beat_handle_);
  simulator_.cancel(slice_handle_);
  center_.unregister_port(port_);
  assigned_.clear();
  active_.reset();
  PRAGMA_FLIGHT(simulator_.now(), "dist.worker", port_, " killed");
}

void Worker::stall(double seconds) {
  if (dead_ || !started_ || seconds <= 0.0) return;
  const double until = simulator_.now() + seconds;
  if (until <= stalled_until_) return;
  stalled_until_ = until;
  PRAGMA_FLIGHT(simulator_.now(), "dist.worker", port_, " stalled for ",
                seconds, "s");
  // First action on waking: beat, so a suspected worker un-suspects at
  // the earliest possible moment (the periodic chain keeps running but
  // its beats are suppressed until then).
  simulator_.schedule(seconds, [this] {
    if (!dead_ && simulator_.now() >= stalled_until_) beat();
  });
}

void Worker::beat() {
  if (dead_ || simulator_.now() < stalled_until_) return;
  center_.publish(coordinator_.config().heartbeat.topic,
                  {port_, coordinator_.config().heartbeat.topic, "heartbeat",
                   {}, simulator_.now()});
}

void Worker::on_message(const agents::Message& message) {
  if (dead_) return;
  if (message.type == dist::kLease) {
    on_lease(message);
  } else if (message.type == dist::kRevoke) {
    on_revoke(message);
  } else if (message.type == dist::kFence) {
    on_fence();
  }
}

void Worker::on_lease(const agents::Message& message) {
  Assignment assignment;
  assignment.id = static_cast<std::uint64_t>(attr_double(message, "run"));
  assignment.attempt = static_cast<int>(attr_double(message, "attempt"));
  assignment.resume = attr_double(message, "resume") > 0.0;
  assignment.steps_hint = static_cast<int>(attr_double(message, "steps"));
  if (active_ && active_->assignment.id == assignment.id) return;
  if (std::any_of(assigned_.begin(), assigned_.end(),
                  [&](const Assignment& queued) {
                    return queued.id == assignment.id;
                  }))
    return;
  assigned_.push_back(assignment);
  ++stats_.leases;
  PRAGMA_FLIGHT(simulator_.now(), "dist.worker", port_, " leased run ",
                assignment.id, " attempt ", assignment.attempt);
  maybe_start();
}

void Worker::on_revoke(const agents::Message& message) {
  const auto id = static_cast<std::uint64_t>(attr_double(message, "run"));
  const int attempt = static_cast<int>(attr_double(message, "attempt"));
  const auto it = std::find_if(assigned_.begin(), assigned_.end(),
                               [&](const Assignment& queued) {
                                 return queued.id == id &&
                                        queued.attempt == attempt;
                               });
  // Only a lease that has not started may be handed back; an active run
  // must refuse, otherwise it would execute twice.
  if (it == assigned_.end()) {
    ++stats_.revoke_refused;
    send_control(dist::kRevokeNack, id, attempt);
    return;
  }
  assigned_.erase(it);
  ++stats_.revoked;
  send_control(dist::kRevokeOk, id, attempt);
}

void Worker::on_fence() {
  // The coordinator has written this worker off: everything local is
  // stale (any lease it held was requeued under a bumped attempt).  Drop
  // it all and re-register as a blank worker.
  ++stats_.fences;
  simulator_.cancel(slice_handle_);
  slice_handle_ = sim::EventHandle();
  active_.reset();
  assigned_.clear();
  PRAGMA_FLIGHT(simulator_.now(), "dist.worker", port_, " fenced");
  send_control(dist::kRegister, 0, 0);
}

void Worker::maybe_start() {
  if (dead_ || !started_ || active_ || assigned_.empty()) return;
  Active active;
  active.assignment = assigned_.front();
  assigned_.pop_front();
  active.steps_done = active.assignment.steps_hint;
  active.resume_next = active.assignment.resume;
  active_ = std::move(active);
  // Claim the run before the first slice lands: a progress report moves
  // it to kRunning on the coordinator, taking it off the steal table.
  agents::Message progress{port_, coordinator_.port(), dist::kProgress, {},
                           simulator_.now()};
  progress.payload["run"] = static_cast<double>(active_->assignment.id);
  progress.payload["attempt"] =
      static_cast<double>(active_->assignment.attempt);
  progress.payload["steps"] = static_cast<double>(active_->steps_done);
  center_.send(std::move(progress));
  ++stats_.progress_sent;
  slice_handle_ = simulator_.schedule(0.0, [this] { run_slice(); });
}

void Worker::run_slice() {
  if (dead_ || !active_) return;
  if (simulator_.now() < stalled_until_) {
    slice_handle_ = simulator_.schedule(stalled_until_ - simulator_.now(),
                                        [this] { run_slice(); });
    return;
  }
  const RunSpec* spec = coordinator_.spec_for(active_->assignment.id);
  if (spec == nullptr) {
    RunOutcome outcome;
    outcome.state = RunState::kFailed;
    outcome.status = util::Status::not_found("spec for leased run missing");
    finish_active(std::move(outcome));
    return;
  }
  ExecHooks hooks;
  hooks.accountant = coordinator_.config().accountant;
  hooks.budget_retry_after_ms = kBudgetShedRetryAfterMs;
  const int slice_steps = coordinator_.config().slice_steps;
  if (spec->kind != WorkloadKind::kManaged || !spec->persist.enabled ||
      slice_steps <= 0) {
    // The coordinator fences instead of cancelling: no cancel hooks.
    finish_active(execute_run(*spec, hooks));
    return;
  }

  Active& active = *active_;
  // Accounts are find-or-create by run name: a run's usage accumulates
  // across slices and across failovers to another worker.
  const std::shared_ptr<res::RunAccount> account = open_account(*spec, hooks);
  core::PersistenceConfig persist = spec->persist;
  const bool resume = active.resume_next || active.steps_done > 0;
  persist.resume = resume;
  const int target = active.steps_done + slice_steps;
  persist.halt_after_steps = target >= spec->app.coarse_steps ? -1 : target;
  if (resume) ++stats_.resumes;

  PRAGMA_SPAN_VAR(span, "service", "Worker.slice");
  span.annotate("run", static_cast<std::int64_t>(active.assignment.id));
  RunOutcome outcome;
  util::Status status = util::Status::ok();
  try {
    const std::unique_ptr<core::ManagedRun> run =
        make_managed_run(*spec, account.get(), persist);
    core::ManagedRunReport report = run->run();
    ++stats_.slices;
    obs::metrics().counter("service.dist.slices").add();
    // A kill-action budget violation stops the run at a step boundary
    // inside this slice: conclude_run sheds it, no further slices.
    const bool killed = account != nullptr && account->should_stop();
    if (report.halted && !killed) {
      active.steps_done = run->completed_steps();
      active.resume_next = true;
      agents::Message progress{port_, coordinator_.port(), dist::kProgress,
                               {}, simulator_.now()};
      progress.payload["run"] = static_cast<double>(active.assignment.id);
      progress.payload["attempt"] =
          static_cast<double>(active.assignment.attempt);
      progress.payload["steps"] = static_cast<double>(active.steps_done);
      center_.send(std::move(progress));
      ++stats_.progress_sent;
      slice_handle_ = simulator_.schedule(coordinator_.config().slice_sim_s,
                                          [this] { run_slice(); });
      return;
    }
    if (!killed) outcome.managed = std::move(report);
  } catch (const std::exception& error) {
    status = run_threw(*spec, error);
  }
  conclude_run(*spec, hooks, account, std::move(status), outcome);
  finish_active(std::move(outcome));
}

void Worker::finish_active(RunOutcome outcome) {
  const std::uint64_t id = active_->assignment.id;
  const int attempt = active_->assignment.attempt;
  const bool failed = outcome.state == RunState::kFailed;
  if (failed) {
    ++stats_.failures;
    util::log_warn("dist worker ", port_, ": run ", id,
                   " failed: ", outcome.status.to_string());
  } else {
    ++stats_.completions;
  }
  // Result blob out of band, completion directive over the reliable
  // channel (see Coordinator's data-plane note).
  coordinator_.deposit_outcome(id, attempt, std::move(outcome));
  send_control(failed ? dist::kFailed : dist::kComplete, id, attempt);
  active_.reset();
  slice_handle_ = sim::EventHandle();
  maybe_start();
}

void Worker::send_control(const std::string& type, std::uint64_t id,
                          int attempt) {
  agents::Message message{port_, coordinator_.port(), type, {},
                          simulator_.now()};
  if (type != dist::kRegister) {
    message.payload["run"] = static_cast<double>(id);
    message.payload["attempt"] = static_cast<double>(attempt);
  }
  reliable_.send(std::move(message));
}

DistributedService::DistributedService(DistributedConfig config,
                                       std::uint64_t seed)
    : config_(std::move(config)),
      center_(simulator_),
      reliable_(simulator_, center_, config_.reliable),
      coordinator_(
          std::make_unique<Coordinator>(simulator_, center_, reliable_,
                                        config_)),
      partitioned_(std::make_shared<std::set<agents::PortId>>()),
      seed_(seed) {
  // Disabled autoscaling constructs nothing and schedules nothing: the
  // event sequence of the fixed-pool service is untouched.
  if (config_.autoscale.enabled) {
    autoscaler_ = std::make_unique<res::PredictiveAutoscaler>(
        config_.autoscale);
    simulator_.schedule_periodic(autoscaler_->config().interval_s,
                                 [this] { autoscale_tick(); });
  }
}

Worker& DistributedService::add_worker(const std::string& name) {
  if (Worker* existing = worker(name); existing && existing->alive())
    return *existing;
  workers_.push_back(std::make_unique<Worker>(simulator_, center_, reliable_,
                                              *coordinator_, name));
  workers_.back()->start();
  return *workers_.back();
}

void DistributedService::schedule_join(double at_s, const std::string& name) {
  simulator_.schedule_at(at_s, [this, name] { add_worker(name); });
}

void DistributedService::schedule_kill(double at_s, const std::string& name) {
  simulator_.schedule_at(at_s, [this, name] {
    Worker* victim = worker(name);
    if (victim == nullptr || !victim->alive()) return;
    kills_.emplace_back(victim->port(), simulator_.now());
    victim->kill();
  });
}

void DistributedService::schedule_stall(double at_s, const std::string& name,
                                        double seconds) {
  simulator_.schedule_at(at_s, [this, name, seconds] {
    Worker* target = worker(name);
    if (target != nullptr && target->alive()) target->stall(seconds);
  });
}

void DistributedService::schedule_partition(double from_s, double until_s,
                                            std::vector<std::string> names) {
  if (!center_.faults().any()) {
    // A pure reachability predicate draws no randomness, so installing it
    // leaves every fault-free run byte-identical; the Rng is only there
    // to satisfy the interface.
    agents::ChannelFaults faults;
    faults.reachable = [cut = partitioned_](const agents::PortId& from,
                                            const agents::PortId& to) {
      // Blocked iff the cut separates the endpoints.
      return (cut->count(from) > 0) == (cut->count(to) > 0);
    };
    center_.set_faults(faults, util::Rng(seed_, 97));
  }
  std::vector<agents::PortId> ports;
  ports.reserve(names.size());
  for (const std::string& name : names) ports.push_back(port_of(name));
  simulator_.schedule_at(from_s, [this, ports] {
    for (const agents::PortId& port : ports) partitioned_->insert(port);
    PRAGMA_FLIGHT(simulator_.now(), "dist", "partition: ", ports.size(),
                  " worker(s) cut off");
  });
  simulator_.schedule_at(until_s, [this, ports] {
    for (const agents::PortId& port : ports) partitioned_->erase(port);
    PRAGMA_FLIGHT(simulator_.now(), "dist", "partition healed");
  });
}

util::Expected<RunHandle> DistributedService::submit_run(RunSpec spec) {
  return coordinator_->submit(std::move(spec));
}

util::Status DistributedService::run_until_done(double max_sim_s) {
  while (!coordinator_->all_done()) {
    if (simulator_.now() >= max_sim_s)
      return util::Status::unavailable(
          "distributed burst incomplete after " +
          std::to_string(simulator_.now()) + " simulated seconds");
    simulator_.run(simulator_.now() + 1.0);
  }
  return util::Status::ok();
}

Worker* DistributedService::worker(const std::string& name) {
  const agents::PortId port = port_of(name);
  // Newest first: a rejoined name refers to the replacement process.
  for (auto it = workers_.rbegin(); it != workers_.rend(); ++it)
    if ((*it)->port() == port) return it->get();
  return nullptr;
}

std::vector<double> DistributedService::recovery_latencies() const {
  std::vector<double> latencies;
  for (const auto& [id, run] : coordinator_->runs()) {
    for (const auto& [victim, redispatch_s] : run.failover_redispatches) {
      // Latest scheduled kill of that port at or before the redispatch.
      double kill_s = -1.0;
      for (const auto& [port, at_s] : kills_)
        if (port == victim && at_s <= redispatch_s) kill_s = std::max(kill_s, at_s);
      if (kill_s >= 0.0) latencies.push_back(redispatch_s - kill_s);
    }
  }
  return latencies;
}

std::size_t DistributedService::alive_workers() const {
  std::size_t alive = 0;
  for (const auto& worker : workers_)
    if (worker->alive()) ++alive;
  return alive;
}

void DistributedService::autoscale_tick() {
  // Demand = non-terminal runs; feeding the series every tick (including
  // zeros) keeps the forecaster's trend honest.
  const double now = simulator_.now();
  double demand = 0.0;
  for (const auto& [id, run] : coordinator_->runs())
    if (!is_terminal(run.state)) demand += 1.0;
  autoscaler_->observe(now, demand);

  const std::size_t alive = alive_workers();
  const std::size_t desired = autoscaler_->desired_workers();
  obs::metrics().gauge("res.autoscale.workers").set(
      static_cast<double>(alive));

  if (desired > alive + pending_joins_) {
    // Scale up ahead of demand: each join pays the modeled spin-up delay,
    // which is exactly the latency the predictive lead time hides.
    const std::size_t add = desired - alive - pending_joins_;
    for (std::size_t i = 0; i < add; ++i) {
      const std::string name = "auto" + std::to_string(++auto_seq_);
      ++pending_joins_;
      simulator_.schedule(config_.autoscale.spinup_s, [this, name] {
        --pending_joins_;
        Worker& joined = add_worker(name);
        auto_ports_.insert(joined.port());
      });
      ++scale_ups_;
      obs::metrics().counter("res.autoscale.scale_ups").add();
    }
    autoscaler_->note_scaled();
    PRAGMA_FLIGHT(now, "dist.autoscale", "scale up: +", add, " (alive ",
                  alive, ", desired ", desired, ")");
  } else if (desired < alive &&
             autoscaler_->scale_down_due(now, alive)) {
    // Retire one idle autoscaler-joined worker per due tick; never touch
    // the base pool or a worker holding leases.
    for (auto it = workers_.rbegin(); it != workers_.rend(); ++it) {
      Worker& candidate = **it;
      if (!candidate.alive() || !candidate.idle()) continue;
      if (auto_ports_.count(candidate.port()) == 0) continue;
      candidate.kill();
      auto_ports_.erase(candidate.port());
      ++scale_downs_;
      obs::metrics().counter("res.autoscale.scale_downs").add();
      autoscaler_->note_scaled();
      PRAGMA_FLIGHT(now, "dist.autoscale", "scale down: retired ",
                    candidate.port());
      break;
    }
  }
}

agents::PortId DistributedService::port_of(const std::string& name) {
  return dist::kWorkerPortPrefix + name;
}

}  // namespace pragma::service
