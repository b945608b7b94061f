#include "pragma/service/coordinator.hpp"

#include <algorithm>
#include <string>
#include <utility>
#include <variant>

#include "pragma/obs/flight_recorder.hpp"
#include "pragma/obs/metrics.hpp"
#include "pragma/obs/tracer.hpp"

namespace pragma::service {

namespace {

/// Checkpoint cadence (simulated seconds) the coordinator forces on managed
/// runs submitted without persistence, unless `ft` sets their cadence.
constexpr double kForcedCheckpointIntervalS = 1.0;

double attr_double(const agents::Message& message, const std::string& key) {
  const auto it = message.payload.find(key);
  if (it == message.payload.end()) return 0.0;
  if (const double* value = std::get_if<double>(&it->second)) return *value;
  return 0.0;
}

obs::Histogram& failover_histogram() {
  // Redispatch latencies range from sub-second (next sweep) to the full
  // confirm window; exponential buckets from 10 ms cover both ends.
  return obs::metrics().histogram(
      "service.dist.failover_redispatch_s",
      obs::HistogramOptions::exponential(0.01, 2.0, 16));
}

}  // namespace

const char* to_string(DistRunState state) {
  switch (state) {
    case DistRunState::kQueued: return "queued";
    case DistRunState::kLeased: return "leased";
    case DistRunState::kRunning: return "running";
    case DistRunState::kCompleted: return "completed";
    case DistRunState::kFailed: return "failed";
  }
  return "?";
}

Coordinator::Coordinator(sim::Simulator& simulator,
                         agents::MessageCenter& center,
                         agents::ReliableChannel& channel,
                         DistributedConfig config)
    : simulator_(simulator),
      center_(center),
      reliable_(channel),
      config_(std::move(config)),
      port_(dist::kCoordinatorPort),
      detector_(simulator, center, config_.heartbeat, "dist.hb.detector") {
  center_.register_port(port_,
                        [this](const agents::Message& m) { on_message(m); });
  reliable_.make_endpoint(port_);
  reliable_.set_failure_handler(
      [this](const agents::Message& message, int attempts) {
        ++stats_.reliable_failures;
        PRAGMA_FLIGHT(simulator_.now(), "dist.coord", "send failed to ",
                      message.to, " type ", message.type, " after ", attempts,
                      " attempts");
      });
  detector_.set_on_suspect([this](const agents::PortId& member, double now) {
    on_suspect(member, now);
  });
  detector_.set_on_confirm([this](const agents::PortId& member, double now) {
    on_confirm(member, now);
  });
  detector_.set_on_recover([this](const agents::PortId& member, double now) {
    on_recover(member, now);
  });
  detector_.start();
  sweep_handle_ = simulator_.schedule_periodic(config_.dispatch_period_s,
                                               [this] { sweep(); });
}

Coordinator::~Coordinator() {
  simulator_.cancel(sweep_handle_);
  detector_.stop();
  // The failure handler captures `this`; make sure a late-settling send
  // cannot call back into the corpse.
  reliable_.set_failure_handler(nullptr);
  // Backstop: no handle may be left blocking on a run that can no longer
  // finish (owners normally call resolve_pending themselves first).
  resolve_pending(util::Status::unavailable(
      "coordinator destroyed before the run finished"));
}

util::Expected<RunHandle> Coordinator::submit(RunSpec spec) {
  if (queue_.size() >= config_.queue_capacity) {
    ++stats_.shed;
    obs::metrics().counter("service.dist.shed").add();
    return shed_status(util::StatusCode::kUnavailable, ShedReason::kQueueFull,
                       "distributed admission queue full (" +
                           std::to_string(queue_.size()) + "/" +
                           std::to_string(config_.queue_capacity) +
                           " queued)",
                       config_.shed_retry_after_ms);
  }
  const std::uint64_t id = next_id_++;
  DistRun run;
  run.id = id;
  run.spec = std::move(spec);
  if (run.spec.kind == WorkloadKind::kManaged &&
      !run.spec.persist.enabled) {
    // Failover needs durable generations to resume from.
    run.spec.persist.enabled = true;
    run.spec.persist.dir =
        config_.checkpoint_root + "/run-" + std::to_string(id);
    if (!run.spec.ft.enabled)
      run.spec.checkpoint_interval_s = kForcedCheckpointIntervalS;
  }
  run.submitted_s = simulator_.now();
  run.last_activity_s = run.submitted_s;

  auto ticket = std::make_shared<detail::Ticket>();
  ticket->spec = run.spec;  // post-persist-forcing copy: what executes
  ticket->run_id = id;
  ticket->submitted_at = std::chrono::steady_clock::now();
  tickets_.emplace(id, ticket);

  runs_.emplace(id, std::move(run));
  queue_.push_back(id);
  ++stats_.submitted;
  obs::metrics().counter("service.dist.submitted").add();
  schedule_sweep_now();
  // No owner: a lease in flight cannot be revoked through the handle.
  return RunHandle(std::move(ticket), nullptr);
}

void Coordinator::resolve_ticket(std::uint64_t id, const RunOutcome& outcome) {
  const auto it = tickets_.find(id);
  if (it == tickets_.end()) return;
  const std::shared_ptr<detail::Ticket> ticket = it->second;
  tickets_.erase(it);
  {
    std::lock_guard<std::mutex> lock(ticket->mu);
    if (is_terminal(ticket->state)) return;
    ticket->state = outcome.state;
    ticket->outcome = outcome;
  }
  ticket->cv.notify_all();
}

void Coordinator::resolve_pending(const util::Status& status) {
  // Drain the map first: resolve_ticket-style publication, but with a
  // synthesized terminal outcome for runs the plane will never finish.
  std::map<std::uint64_t, std::shared_ptr<detail::Ticket>> pending;
  pending.swap(tickets_);
  for (const auto& [id, ticket] : pending) {
    {
      std::lock_guard<std::mutex> lock(ticket->mu);
      if (is_terminal(ticket->state)) continue;
      ticket->state = status.is_ok() ? RunState::kCancelled : RunState::kFailed;
      ticket->outcome.state = ticket->state;
      ticket->outcome.status = status;
    }
    ticket->cv.notify_all();
  }
}

const DistRun* Coordinator::find(std::uint64_t id) const {
  const auto it = runs_.find(id);
  return it == runs_.end() ? nullptr : &it->second;
}

bool Coordinator::all_done() const {
  return std::all_of(runs_.begin(), runs_.end(), [](const auto& entry) {
    return is_terminal(entry.second.state);
  });
}

const RunSpec* Coordinator::spec_for(std::uint64_t id) const {
  const auto it = runs_.find(id);
  return it == runs_.end() ? nullptr : &it->second.spec;
}

void Coordinator::deposit_outcome(std::uint64_t id, int attempt,
                                  RunOutcome outcome) {
  deposits_[{id, attempt}] = std::move(outcome);
}

void Coordinator::on_message(const agents::Message& message) {
  if (message.type == dist::kRegister) {
    on_register(message.from);
  } else if (message.type == dist::kProgress) {
    on_progress(message);
  } else if (message.type == dist::kComplete) {
    on_result(message, /*failed=*/false);
  } else if (message.type == dist::kFailed) {
    on_result(message, /*failed=*/true);
  } else if (message.type == dist::kRevokeOk) {
    on_revoke_reply(message, /*ok=*/true);
  } else if (message.type == dist::kRevokeNack) {
    on_revoke_reply(message, /*ok=*/false);
  }
}

void Coordinator::on_register(const agents::PortId& from) {
  auto [it, inserted] = workers_.try_emplace(from);
  WorkerInfo& worker = it->second;
  if (inserted) {
    worker.port = from;
    worker.registered_s = simulator_.now();
    ++stats_.registrations;
    obs::metrics().counter("service.dist.registrations").add();
  } else if (worker.dead) {
    // A confirmed-dead worker re-registering is a fresh process reusing
    // the name (or the old one back from a partition after its fence).
    // Either way it holds nothing: confirm-time requeue cleared its
    // leases, and the fence reset its local state.
    worker.dead = false;
    worker.leases.clear();
    ++stats_.rejoins;
    obs::metrics().counter("service.dist.rejoins").add();
  }
  PRAGMA_FLIGHT(simulator_.now(), "dist.coord", "worker ", from,
                inserted ? " registered" : " re-registered");
  detector_.watch(from);
  schedule_sweep_now();
}

void Coordinator::on_progress(const agents::Message& message) {
  const auto id = static_cast<std::uint64_t>(attr_double(message, "run"));
  const int attempt = static_cast<int>(attr_double(message, "attempt"));
  const auto it = runs_.find(id);
  if (it == runs_.end()) return;
  DistRun& run = it->second;
  if (run.attempt != attempt || run.assignee != message.from) return;
  if (run.state == DistRunState::kLeased) run.state = DistRunState::kRunning;
  run.steps_done = std::max(
      run.steps_done, static_cast<int>(attr_double(message, "steps")));
  run.last_activity_s = simulator_.now();
}

void Coordinator::on_result(const agents::Message& message, bool failed) {
  const auto id = static_cast<std::uint64_t>(attr_double(message, "run"));
  const int attempt = static_cast<int>(attr_double(message, "attempt"));
  const auto it = runs_.find(id);
  if (it == runs_.end()) return;
  DistRun& run = it->second;
  if (run.attempt != attempt) {
    // A fenced attempt finishing late: the run was already reassigned.
    ++stats_.stale_results_ignored;
    obs::metrics().counter("service.dist.stale_results").add();
    PRAGMA_FLIGHT(simulator_.now(), "dist.coord", "stale result run ", id,
                  " attempt ", attempt, " (current ", run.attempt, ")");
    return;
  }
  if (is_terminal(run.state)) return;
  detach_lease(run.assignee, id);
  const auto deposit = deposits_.find({id, attempt});
  if (deposit != deposits_.end()) {
    run.outcome = std::move(deposit->second);
    deposits_.erase(deposit);
  } else {
    run.outcome.state = failed ? RunState::kFailed : RunState::kCompleted;
    if (failed)
      run.outcome.status = util::Status::internal("worker reported failure");
  }
  run.state = failed ? DistRunState::kFailed : DistRunState::kCompleted;
  run.completed_s = simulator_.now();
  run.outcome.queue_s = run.first_dispatch_s - run.submitted_s;
  run.outcome.exec_s = run.completed_s - run.first_dispatch_s;
  if (failed) {
    ++stats_.failed;
    obs::metrics().counter("service.dist.failed").add();
  } else {
    ++stats_.completed;
    obs::metrics().counter("service.dist.completed").add();
  }
  PRAGMA_FLIGHT(simulator_.now(), "dist.coord", "run ", id,
                failed ? " failed on " : " completed on ",
                std::string(message.from));
  resolve_ticket(id, run.outcome);
  schedule_sweep_now();
}

void Coordinator::on_revoke_reply(const agents::Message& message, bool ok) {
  const auto id = static_cast<std::uint64_t>(attr_double(message, "run"));
  const int attempt = static_cast<int>(attr_double(message, "attempt"));
  const auto it = runs_.find(id);
  if (it == runs_.end()) return;
  DistRun& run = it->second;
  if (run.attempt != attempt || !run.steal_pending) return;
  run.steal_pending = false;
  if (!ok) {
    // The worker had already started it; leave the lease where it is.
    run.last_activity_s = simulator_.now();
    if (run.state == DistRunState::kLeased)
      run.state = DistRunState::kRunning;
    return;
  }
  if (run.state != DistRunState::kLeased) return;
  detach_lease(run.assignee, id);
  ++run.steals;
  ++stats_.steals;
  obs::metrics().counter("service.dist.steals").add();
  PRAGMA_FLIGHT(simulator_.now(), "dist.coord", "stole run ", id, " from ",
                std::string(message.from));
  requeue(run, message.from, /*failover=*/false);
  schedule_sweep_now();
}

void Coordinator::on_suspect(const agents::PortId& member, double now) {
  ++stats_.suspects;
  obs::metrics().counter("service.dist.suspects").add();
  PRAGMA_FLIGHT(now, "dist.coord", "worker ", member, " suspected");
  schedule_sweep_now();  // let the steal pass look at its queued leases
}

void Coordinator::on_confirm(const agents::PortId& member, double now) {
  ++stats_.confirms;
  obs::metrics().counter("service.dist.confirms").add();
  const auto it = workers_.find(member);
  if (it == workers_.end()) return;
  WorkerInfo& worker = it->second;
  worker.dead = true;
  // Retrying directives at a corpse only wastes the channel.
  reliable_.abandon_destination(member);
  // Fence: should the "corpse" actually be partitioned-but-alive, this
  // tells it (when reachable again) to discard local state and
  // re-register; anything it completes meanwhile is fenced by attempt.
  center_.send({port_, member, dist::kFence, {}, now});
  // Requeue every lease, started ones first (front of queue both ways,
  // so recovery preempts fresh work).
  const std::vector<std::uint64_t> leases = worker.leases;
  worker.leases.clear();
  for (auto lease_it = leases.rbegin(); lease_it != leases.rend();
       ++lease_it) {
    const auto run_it = runs_.find(*lease_it);
    if (run_it == runs_.end()) continue;
    DistRun& run = run_it->second;
    if (is_terminal(run.state)) continue;
    const bool started =
        run.state == DistRunState::kRunning || run.steps_done > 0;
    if (started) {
      ++run.failovers;
      ++stats_.failovers;
      obs::metrics().counter("service.dist.failovers").add();
    } else {
      ++stats_.requeued;
    }
    PRAGMA_FLIGHT(now, "dist.coord", started ? "failover run " : "requeue run ",
                  run.id, " from dead ", std::string(member));
    requeue(run, member, started);
  }
  schedule_sweep_now();
}

void Coordinator::on_recover(const agents::PortId& member, double now) {
  // A confirmed-dead worker is beating again (partition healed).  Its
  // leases were already requeued; fence it so it drops stale local state
  // and re-registers before receiving new work.
  PRAGMA_FLIGHT(now, "dist.coord", "worker ", member, " recovered; fencing");
  center_.send({port_, member, dist::kFence, {}, now});
}

void Coordinator::sweep() {
  const double now = simulator_.now();
  // Pass 1: lease expiry.  A lease silent past lease_s on a live worker is
  // fenced and redispatched (the worker may be wedged without being dead).
  for (auto& [id, run] : runs_) {
    if (run.state != DistRunState::kLeased &&
        run.state != DistRunState::kRunning)
      continue;
    if (now - run.last_activity_s < config_.lease_s) continue;
    const auto worker_it = workers_.find(run.assignee);
    if (worker_it == workers_.end() || worker_it->second.dead)
      continue;  // confirm-path handles dead owners
    ++stats_.lease_expiries;
    obs::metrics().counter("service.dist.lease_expiries").add();
    PRAGMA_FLIGHT(now, "dist.coord", "lease expired: run ", id, " on ",
                  run.assignee);
    const bool started =
        run.state == DistRunState::kRunning || run.steps_done > 0;
    detach_lease(run.assignee, id);
    requeue(run, worker_it->first, started);
  }

  // Pass 2: steal queued (never-started) leases from suspected workers,
  // and from backlogged live ones when someone else is idle.  Two-phase:
  // the lease moves only after the victim acks the revoke.
  bool idle_worker = false;
  for (const auto& [port, worker] : workers_) {
    if (!worker.dead && worker.leases.empty() &&
        detector_.liveness(port) == agents::Liveness::kAlive) {
      idle_worker = true;
      break;
    }
  }
  for (auto& [port, worker] : workers_) {
    if (worker.dead) continue;
    const bool suspected =
        detector_.liveness(port) == agents::Liveness::kSuspected;
    if (!suspected && !(idle_worker && worker.leases.size() >= 2)) continue;
    for (const std::uint64_t id : worker.leases) {
      const auto run_it = runs_.find(id);
      if (run_it == runs_.end()) continue;
      DistRun& run = run_it->second;
      if (run.state != DistRunState::kLeased || run.steal_pending) continue;
      run.steal_pending = true;
      agents::Message revoke{port_, port, dist::kRevoke, {}, now};
      revoke.payload["run"] = static_cast<double>(id);
      revoke.payload["attempt"] = static_cast<double>(run.attempt);
      reliable_.send(std::move(revoke));
      break;  // at most one steal per victim per sweep
    }
  }

  // Pass 3: grant queued runs to live workers with spare depth, fewest
  // leases first (port name breaks ties deterministically).
  while (!queue_.empty()) {
    WorkerInfo* best = nullptr;
    for (auto& [port, worker] : workers_) {
      if (worker.dead) continue;
      if (detector_.liveness(port) != agents::Liveness::kAlive) continue;
      if (worker.leases.size() >= config_.worker_queue_depth) continue;
      if (best == nullptr || worker.leases.size() < best->leases.size())
        best = &worker;
    }
    if (best == nullptr) break;  // degraded: stay queued, never lost
    const std::uint64_t id = queue_.front();
    queue_.pop_front();
    const auto run_it = runs_.find(id);
    if (run_it == runs_.end() || run_it->second.state != DistRunState::kQueued)
      continue;
    grant(id, *best);
  }
}

void Coordinator::grant(std::uint64_t id, WorkerInfo& worker) {
  DistRun& run = runs_.at(id);
  const double now = simulator_.now();
  run.state = DistRunState::kLeased;
  run.assignee = worker.port;
  if (run.first_dispatch_s < 0.0) run.first_dispatch_s = now;
  run.last_dispatch_s = now;
  run.last_activity_s = now;
  worker.leases.push_back(id);
  ++worker.leases_granted;
  ++stats_.leases_granted;
  obs::metrics().counter("service.dist.leases").add();
  if (run.pending_confirm_s >= 0.0) {
    const double latency = now - run.pending_confirm_s;
    run.failover_redispatches.emplace_back(run.pending_victim, now);
    stats_.failover_redispatch_s.push_back(latency);
    failover_histogram().observe(latency);
    run.pending_confirm_s = -1.0;
    run.pending_victim.clear();
  }
  agents::Message lease{port_, worker.port, dist::kLease, {}, now};
  lease.payload["run"] = static_cast<double>(id);
  lease.payload["attempt"] = static_cast<double>(run.attempt);
  lease.payload["resume"] = run.resume ? 1.0 : 0.0;
  lease.payload["steps"] = static_cast<double>(run.steps_done);
  reliable_.send(std::move(lease));
  PRAGMA_FLIGHT(now, "dist.coord", "lease run ", id, " attempt ",
                run.attempt, " -> ", worker.port);
}

void Coordinator::requeue(DistRun& run, const agents::PortId& victim,
                          bool failover) {
  ++run.attempt;  // fence: anything the old assignee still says is stale
  run.state = DistRunState::kQueued;
  run.assignee.clear();
  run.steal_pending = false;
  if (failover) {
    // The next assignee must restore from the durable store rather than
    // start over — that is the byte-identical recovery contract.
    run.resume = true;
    run.pending_victim = victim;
    run.pending_confirm_s = simulator_.now();
  }
  queue_.push_front(run.id);
}

void Coordinator::detach_lease(const agents::PortId& worker,
                               std::uint64_t id) {
  const auto it = workers_.find(worker);
  if (it == workers_.end()) return;
  auto& leases = it->second.leases;
  leases.erase(std::remove(leases.begin(), leases.end(), id), leases.end());
}

void Coordinator::schedule_sweep_now() {
  // One-shot sweep right after the triggering event settles; the periodic
  // sweep stays as the heartbeat of the dispatch loop.
  simulator_.schedule(0.0, [this] { sweep(); });
}

}  // namespace pragma::service
