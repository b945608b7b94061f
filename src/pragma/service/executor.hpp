// The one execution path of a RunSpec, shared by both backends.
//
// Scheduler::execute (in-process pool) and Worker (distributed plane) run
// a spec through execute_run(): the per-kind dispatch (managed, replay,
// system-sensitive, custom), exception capture, resource accounting and
// the kill-action budget classification all live here once.  A backend
// only lends what differs — its accountant and retry hint, its cancel
// flag (the distributed plane fences instead of cancelling), and a way
// to reach the live core::ManagedRun so a cancel can be forwarded to it.
//
// The worker's sliced managed runs build their core::ManagedRun once per
// attempt through make_managed_run(), advance it slice by slice, and settle
// through conclude_run(), so a sliced and a whole run share the same setup
// and the same terminal classification.
#pragma once

#include <atomic>
#include <exception>
#include <functional>
#include <memory>

#include "pragma/service/admission.hpp"

namespace pragma::service {

/// What a backend lends one execution.
struct ExecHooks {
  /// Charges the run's resource account (null = accounting off).
  res::ResourceAccountant* accountant = nullptr;
  /// Retry-after hint carried by a kill-action budget shed.
  int budget_retry_after_ms = 50;
  /// Cooperative cancel flag, polled at coarse-step and snapshot
  /// boundaries; must outlive the execution (null = the backend never
  /// cancels).
  const std::atomic<bool>* cancel = nullptr;
  /// Managed runs: called with the live run just before run() and with
  /// null once it returns or throws, so the backend can forward cancel
  /// requests to it.
  std::function<void(core::ManagedRun*)> on_active;
};

/// Execute `spec` once on the calling thread.  The outcome's state is
/// kFailed for an error status, a thrown exception, or a kill-action
/// budget violation (Status::resource_exhausted tagged kBudgetExhausted);
/// kCancelled when the cancel flag was raised; kCompleted otherwise.
/// queue_s and exec_s are left to the backend.
[[nodiscard]] RunOutcome execute_run(const RunSpec& spec,
                                     const ExecHooks& hooks);

/// Find-or-create the run's account on hooks.accountant (null when
/// accounting is off).  Accounts are keyed by run name, so a sliced or
/// failed-over run keeps charging one account.
[[nodiscard]] std::shared_ptr<res::RunAccount> open_account(
    const RunSpec& spec, const ExecHooks& hooks);

/// The managed-run setup every executor shares: the spec's managed-run
/// config with `persist` in place of spec.persist and `account` charged,
/// then the spec's failure plans and random-failure process armed.
[[nodiscard]] std::unique_ptr<core::ManagedRun> make_managed_run(
    const RunSpec& spec, res::RunAccount* account,
    const core::PersistenceConfig& persist);

/// The status of a run whose body threw `error`.
[[nodiscard]] util::Status run_threw(const RunSpec& spec,
                                     const std::exception& error);

/// Settle one execution into `outcome`: fold in the account's usage and
/// throttle flag, turn an ok `status` into the budget shed when a
/// kill-action budget was violated, close the account, and classify the
/// terminal state.
void conclude_run(const RunSpec& spec, const ExecHooks& hooks,
                  const std::shared_ptr<res::RunAccount>& account,
                  util::Status status, RunOutcome& outcome);

}  // namespace pragma::service
