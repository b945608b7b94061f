// RunSpec: the one composable description of a Pragma run.
//
// Before the service layer, every entry point carried its own config
// struct — core::ManagedRunConfig for managed executions,
// core::TraceRunConfig for replays, core::SystemSensitiveConfig for the
// Table 5 experiment — and every example re-assembled them from scratch.
// RunSpec collapses those into a single spec with one env/CLI merge path
// (util::CliFlags::merge_env + add_run_flags below).  It *is* a
// core::ManagedRunConfig — every managed-run knob is declared once, there —
// extended with the scheduling, replay and failure-injection knobs; a
// managed run takes the spec itself.  to_trace()/to_system_sensitive()
// produce the replay and Table 5 configs, so a default RunSpec maps onto
// the exact defaults existing seeded runs depend on.
//
// A RunSpec also names *who* is running (tenant) and *how urgently*
// (priority) — the admission and fair-share inputs of service::Scheduler —
// and derived(i) stamps out per-run isolated variants (distinct seed
// stream, checkpoint dir, obs artifact paths) so a batch of concurrent
// runs stays deterministic and collision-free.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "pragma/amr/trace.hpp"
#include "pragma/core/managed_run.hpp"
#include "pragma/core/system_sensitive.hpp"
#include "pragma/core/trace_runner.hpp"
#include "pragma/grid/cluster.hpp"
#include "pragma/res/accountant.hpp"
#include "pragma/util/cli.hpp"
#include "pragma/util/status.hpp"

namespace pragma::service {

/// What a submitted run executes.
enum class WorkloadKind {
  kManaged,          ///< full managed execution (core::ManagedRun)
  kTraceReplay,      ///< partitioning-strategy replay (core::TraceRunner)
  kSystemSensitive,  ///< the Table 5 experiment (core::system_sensitive)
  kCustom,           ///< caller-supplied callable (tests, embeddings)
};

[[nodiscard]] const char* to_string(WorkloadKind kind);

/// A scheduled node failure for managed runs (ManagedRun::schedule_failure).
struct FailurePlan {
  double at_s = 0.0;
  grid::NodeId node = 0;
  double downtime_s = 0.0;  ///< negative = permanent
};

/// Handed to kCustom workloads.  `cancel_requested` is the cooperative
/// cancellation probe; long workloads should poll it between work items.
struct RunContext {
  std::function<bool()> cancel_requested;
};

/// The application, cluster, management-policy, fault-tolerance,
/// persistence and observability knobs are the inherited
/// core::ManagedRunConfig fields.
struct RunSpec : core::ManagedRunConfig {
  // ---- identity & scheduling ------------------------------------------
  std::string name = "run";
  std::string tenant = "default";
  /// Larger runs first within a tenant; ties break FIFO.
  int priority = 0;
  WorkloadKind kind = WorkloadKind::kManaged;

  // ---- cluster ----------------------------------------------------------
  /// Multi-site federation: >1 builds a federated cluster of
  /// nprocs/sites nodes per site joined by a wan_mbps WAN link, whose
  /// cross-site ghost traffic a trace replay charges.  Managed runs and
  /// the system-sensitive experiment build their own cluster and ignore
  /// both fields.
  std::size_t sites = 1;
  double wan_mbps = 20.0;

  // ---- resource limits -------------------------------------------------
  /// Per-run resource limits (0 = unlimited), enforced by the scheduler
  /// or worker when a res::ResourceAccountant is wired in: a kill-action
  /// violator is shed with Status::resource_exhausted (carrying the
  /// ladder's retry-after hint), a throttle-action one finishes slowed.
  /// A default (empty) budget runs byte-identically to pre-budget code.
  res::ResourceBudget budget;

  // ---- replay / system-sensitive workloads ----------------------------
  /// The adaptation trace to replay (kTraceReplay / kSystemSensitive).
  /// Shared so that many concurrent runs replay one trace without copies.
  std::shared_ptr<const amr::AdaptationTrace> trace;
  /// "adaptive" (octant-driven meta-partitioner) or a partitioner name.
  std::string strategy = "adaptive";
  int canonical_grain = 2;
  std::vector<double> targets;  ///< empty = equal shares
  double stale_weight = 0.375;
  double repartition_threshold = 0.20;
  /// Rasterization threads (1 = serial, bitwise-stable path).
  int threads = 1;
  bool dynamic_capacities = false;  ///< kSystemSensitive only
  /// Filled by the service (Runtime) so concurrent replays of the same
  /// trace coalesce their work-grid rasterization; user code normally
  /// leaves it null.
  partition::WorkGridCache* workgrid_cache = nullptr;

  // ---- failure injection (kManaged) -----------------------------------
  std::vector<FailurePlan> failures;
  /// >0 starts the random failure/recovery process (mtbf/mttr seconds).
  double random_mtbf_s = 0.0;
  double random_mttr_s = 0.0;

  // ---- custom workload -------------------------------------------------
  std::function<util::Status(RunContext&)> custom;

  /// The replay and Table 5 configs this spec describes (a default
  /// RunSpec reproduces the historical defaults byte-for-byte).
  [[nodiscard]] core::TraceRunConfig to_trace() const;
  [[nodiscard]] core::SystemSensitiveConfig to_system_sensitive() const;

  /// Logical-run identity for journal recovery dedupe:
  /// "<name>|<tenant>|<kind>|<seed>".  derived(i) specs have distinct
  /// keys (distinct name + seed stream), so a retried admission of the
  /// same logical run collapses to one journal entry while a batch of
  /// derived runs does not.
  [[nodiscard]] std::string journal_key() const;

  /// A per-run isolated variant for concurrent batches: "<name>-<i>", a
  /// distinct deterministic seed stream, its own checkpoint directory and
  /// obs artifact paths.  derived(i) of equal specs are equal — the basis
  /// of the N-concurrent == N-serial reproducibility guarantee.
  [[nodiscard]] RunSpec derived(std::size_t index) const;
};

/// Build the cluster a spec describes: federated when sites > 1,
/// heterogeneous when capacity_spread > 0 (same Rng stream as ManagedRun),
/// homogeneous otherwise.
[[nodiscard]] grid::Cluster build_cluster(const RunSpec& spec);

/// Register the shared run flags (--procs, --steps, --seed, ...) with
/// defaults taken from `defaults`.  Pair with flags.merge_env("PRAGMA")
/// and spec_from_flags for the one env < CLI merge path every binary
/// shares.
void add_run_flags(util::CliFlags& flags, const RunSpec& defaults);

/// Read the shared run flags back over `base`.
[[nodiscard]] RunSpec spec_from_flags(const util::CliFlags& flags,
                                      RunSpec base = {});

}  // namespace pragma::service
