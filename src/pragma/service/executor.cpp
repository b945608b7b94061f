#include "pragma/service/executor.hpp"

#include <string>
#include <utility>

#include "pragma/core/trace_runner.hpp"
#include "pragma/policy/builtin.hpp"

namespace pragma::service {

namespace {

bool cancelled(const ExecHooks& hooks) {
  return hooks.cancel != nullptr &&
         hooks.cancel->load(std::memory_order_relaxed);
}

}  // namespace

std::shared_ptr<res::RunAccount> open_account(const RunSpec& spec,
                                              const ExecHooks& hooks) {
  if (hooks.accountant == nullptr) return nullptr;
  return hooks.accountant->open(spec.name, spec.tenant, spec.budget);
}

std::unique_ptr<core::ManagedRun> make_managed_run(
    const RunSpec& spec, res::RunAccount* account,
    const core::PersistenceConfig& persist) {
  core::ManagedRunConfig config = spec;
  config.persist = persist;
  auto run = std::make_unique<core::ManagedRun>(std::move(config), account);
  for (const FailurePlan& plan : spec.failures)
    run->schedule_failure(plan.at_s, plan.node, plan.downtime_s);
  if (spec.random_mtbf_s > 0.0 && spec.random_mttr_s > 0.0)
    run->start_random_failures(spec.random_mtbf_s, spec.random_mttr_s);
  return run;
}

util::Status run_threw(const RunSpec& spec, const std::exception& error) {
  return util::Status::internal(std::string("run \"") + spec.name +
                                "\" threw: " + error.what());
}

void conclude_run(const RunSpec& spec, const ExecHooks& hooks,
                  const std::shared_ptr<res::RunAccount>& account,
                  util::Status status, RunOutcome& outcome) {
  // Budget classification runs first so a kill-action violation yields
  // exactly one terminal status (resource-exhausted), even when a cancel
  // raced the kill; close() folds the run's usage into the per-tenant
  // aggregate exactly once.
  if (account != nullptr) {
    outcome.usage = account->usage();
    outcome.budget_throttled = account->throttled();
    if (status.is_ok() && account->should_stop())
      status = shed_status(util::StatusCode::kResourceExhausted,
                           ShedReason::kBudgetExhausted,
                           "run \"" + spec.name + "\": " +
                               account->violation(),
                           hooks.budget_retry_after_ms);
    hooks.accountant->close(account);
  }
  if (!status.is_ok()) {
    outcome.state = RunState::kFailed;
  } else if (cancelled(hooks)) {
    outcome.state = RunState::kCancelled;
  } else {
    outcome.state = RunState::kCompleted;
  }
  outcome.status = std::move(status);
}

RunOutcome execute_run(const RunSpec& spec, const ExecHooks& hooks) {
  const std::shared_ptr<res::RunAccount> account = open_account(spec, hooks);
  // The stop probe replays and custom workloads poll: a cancel request or
  // a kill-action budget verdict.
  const auto should_stop = [cancel = hooks.cancel, account] {
    return (cancel != nullptr && cancel->load(std::memory_order_relaxed)) ||
           (account != nullptr && account->should_stop());
  };
  RunOutcome outcome;
  util::Status status = util::Status::ok();
  try {
    switch (spec.kind) {
      case WorkloadKind::kManaged: {
        const std::unique_ptr<core::ManagedRun> run =
            make_managed_run(spec, account.get(), spec.persist);
        if (hooks.on_active) hooks.on_active(run.get());
        if (cancelled(hooks)) run->request_cancel();
        outcome.managed = run->run();
        if (hooks.on_active) hooks.on_active(nullptr);
        break;
      }
      case WorkloadKind::kTraceReplay: {
        if (!spec.trace) {
          status = util::Status::invalid("trace replay without a trace");
          break;
        }
        const grid::Cluster cluster = build_cluster(spec);
        core::TraceRunConfig config = spec.to_trace();
        if (hooks.cancel != nullptr || account != nullptr)
          config.should_abort = should_stop;
        const core::TraceRunner runner(*spec.trace, cluster, config);
        if (spec.strategy == "adaptive") {
          const policy::PolicyBase policies = policy::standard_policy_base();
          outcome.replay = runner.run_adaptive(policies);
        } else {
          outcome.replay = runner.run_static(spec.strategy);
        }
        break;
      }
      case WorkloadKind::kSystemSensitive: {
        if (!spec.trace) {
          status = util::Status::invalid(
              "system-sensitive experiment without a trace");
          break;
        }
        outcome.system_sensitive = core::run_system_sensitive_experiment(
            *spec.trace, spec.to_system_sensitive());
        break;
      }
      case WorkloadKind::kCustom: {
        if (!spec.custom) {
          status =
              util::Status::invalid("custom run without a workload callable");
          break;
        }
        RunContext context{should_stop};
        status = spec.custom(context);
        break;
      }
    }
  } catch (const std::exception& error) {
    status = run_threw(spec, error);
    if (hooks.on_active) hooks.on_active(nullptr);
  }
  conclude_run(spec, hooks, account, std::move(status), outcome);
  return outcome;
}

}  // namespace pragma::service
