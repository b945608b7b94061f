#include "pragma/service/run_spec.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "pragma/obs/obs.hpp"
#include "pragma/util/rng.hpp"

namespace pragma::service {

namespace {

/// Reject an explicitly-set budget flag with a caret diagnostic pointing
/// at the offending value inside the verbatim CLI token or environment
/// assignment (same shape as the policy-DSL parse errors):
///
///   invalid --budget-cpu-s: budget must be positive, got -3
///     --budget-cpu-s=-3
///                    ^
[[noreturn]] void throw_budget_error(const util::CliFlags& flags,
                                     const std::string& name,
                                     const std::string& value) {
  std::string raw = flags.provenance(name);
  if (raw.empty()) raw = "--" + name + "=" + value;
  // The value starts after the last '=' (both "--x=v" and "ENV_X=v") or
  // after the separating space of the "--x v" form.
  std::size_t pos = raw.rfind('=');
  if (pos == std::string::npos) pos = raw.rfind(' ');
  pos = pos == std::string::npos ? 0 : pos + 1;
  std::ostringstream os;
  os << "invalid --" << name << ": budget must be positive, got " << value
     << '\n'
     << "  " << raw << '\n'
     << "  " << std::string(pos, ' ') << '^';
  throw std::invalid_argument(os.str());
}

/// Budgets are 0-means-unlimited by *default*; an explicit zero or
/// negative value is a contradiction worth failing loudly on.
double checked_budget(const util::CliFlags& flags, const std::string& name) {
  const double value = flags.get_double(name);
  if (flags.explicitly_set(name) && value <= 0.0) {
    std::ostringstream formatted;
    formatted << value;
    throw_budget_error(flags, name, formatted.str());
  }
  return value < 0.0 ? 0.0 : value;
}

/// "pragma-trace.json" + 3 -> "pragma-trace-3.json" (suffix appended when
/// there is no extension).  Keeps per-run obs artifacts from clobbering
/// each other in a concurrent batch.
std::string suffixed_path(const std::string& path, std::size_t index) {
  std::string tag = "-";
  tag += std::to_string(index);
  const std::size_t dot = path.rfind('.');
  const std::size_t slash = path.find_last_of('/');
  if (dot == std::string::npos ||
      (slash != std::string::npos && dot < slash))
    return path + tag;
  return path.substr(0, dot) + tag + path.substr(dot);
}

}  // namespace

const char* to_string(WorkloadKind kind) {
  switch (kind) {
    case WorkloadKind::kManaged: return "managed";
    case WorkloadKind::kTraceReplay: return "trace-replay";
    case WorkloadKind::kSystemSensitive: return "system-sensitive";
    case WorkloadKind::kCustom: return "custom";
  }
  return "?";
}

core::TraceRunConfig RunSpec::to_trace() const {
  core::TraceRunConfig config;
  config.exec = exec;
  config.meta = meta;
  config.nprocs = nprocs;
  config.targets = targets;
  config.stale_weight = stale_weight;
  config.repartition_threshold = repartition_threshold;
  config.threads = threads;
  config.modeled_partition_s_per_cell = modeled_partition_s_per_cell;
  config.obs = obs;
  config.shared_cache = workgrid_cache;
  return config;
}

core::SystemSensitiveConfig RunSpec::to_system_sensitive() const {
  // The Table 5 experiment carries its own curated load/weights/warmup
  // defaults; only the knobs a caller meaningfully varies map through.
  core::SystemSensitiveConfig config;
  config.nprocs = nprocs;
  config.seed = seed;
  config.capacity_spread = capacity_spread;
  config.exec = exec;
  if (strategy != "adaptive" && !strategy.empty())
    config.partitioner = strategy;
  config.dynamic_capacities = dynamic_capacities;
  config.workgrid_cache = workgrid_cache;
  return config;
}

std::string RunSpec::journal_key() const {
  return name + "|" + tenant + "|" + to_string(kind) + "|" +
         std::to_string(seed);
}

RunSpec RunSpec::derived(std::size_t index) const {
  RunSpec spec = *this;
  spec.name = name + "-" + std::to_string(index);
  // A distinct deterministic seed per run: every internal Rng stream of a
  // run is keyed off this value, so shifting it isolates the whole run.
  spec.seed = seed + 1000 * static_cast<std::uint64_t>(index);
  spec.persist.dir = persist.dir + "-" + std::to_string(index);
  if (spec.obs.tracing)
    spec.obs.trace_path = suffixed_path(obs.trace_path, index);
  if (spec.obs.metrics)
    spec.obs.metrics_path = suffixed_path(obs.metrics_path, index);
  return spec;
}

grid::Cluster build_cluster(const RunSpec& spec) {
  if (spec.sites > 1) {
    // Round up so that the federation holds at least nprocs nodes.
    const std::size_t per_site =
        std::max<std::size_t>(1, (spec.nprocs + spec.sites - 1) / spec.sites);
    return grid::ClusterBuilder::federated(spec.sites, per_site, 1.0,
                                           1000.0, spec.wan_mbps);
  }
  // Same stream as ManagedRun, so that a replay and a managed run of one
  // spec see the same machine.
  return grid::ClusterBuilder::for_spread(spec.nprocs, spec.capacity_spread,
                                          util::Rng(spec.seed, 1));
}

void add_run_flags(util::CliFlags& flags, const RunSpec& defaults) {
  flags.add_int("procs", static_cast<long long>(defaults.nprocs),
                "number of processors");
  flags.add_int("steps", defaults.app.coarse_steps, "coarse time-steps");
  flags.add_int("seed", static_cast<long long>(defaults.seed),
                "master RNG seed of the run");
  flags.add_double("spread", defaults.capacity_spread,
                   "node-speed heterogeneity (0 = homogeneous)");
  flags.add_int("threads", defaults.threads,
                "rasterization worker threads (replays)");
  flags.add_bool("background-load", defaults.with_background_load,
                 "run the synthetic background load generator");
  flags.add_bool("system-sensitive", defaults.system_sensitive,
                 "capacity-weighted targets from the monitor");
  flags.add_bool("proactive", defaults.proactive,
                 "use capacity forecasts instead of current readings");
  flags.add_bool("deterministic",
                 defaults.modeled_partition_s_per_cell > 0.0,
                 "model the partitioner cost instead of measuring wall "
                 "clock, making the output reproducible");
  flags.add_bool("ft", defaults.ft.enabled,
                 "fault-tolerant control plane: lossy messaging with "
                 "reliable directives and heartbeat detection");
  flags.add_double("drop", defaults.ft.channel.drop_probability,
                   "control-message drop probability (with --ft)");
  flags.add_double("checkpoint", defaults.checkpoint_interval_s,
                   "save-state interval in seconds (ft or durable "
                   "checkpoints)");
  flags.add_double("reliable-timeout", defaults.ft.reliable.timeout_s,
                   "seconds before the first directive retry");
  flags.add_double("reliable-backoff", defaults.ft.reliable.backoff_factor,
                   "retry backoff multiplier for directives");
  flags.add_int("reliable-attempts", defaults.ft.reliable.max_attempts,
                "directive transmissions before abandoning the send");
  flags.add_string("ft-dir", defaults.persist.dir,
                   "durable checkpoint directory");
  flags.add_string("tenant", defaults.tenant,
                   "fair-share tenant this run is charged to");
  flags.add_int("priority", defaults.priority,
                "scheduling priority within the tenant (higher first)");
  flags.add_double("budget-cpu-s", defaults.budget.cpu_s,
                   "modeled CPU-second budget (0 = unlimited)");
  flags.add_double("budget-mem-mb", static_cast<double>(
                       defaults.budget.mem_bytes) / (1024.0 * 1024.0),
                   "peak modeled memory budget in MiB (0 = unlimited)");
  flags.add_double("budget-io-mb", static_cast<double>(
                       defaults.budget.io_bytes) / (1024.0 * 1024.0),
                   "checkpoint/journal IO budget in MiB (0 = unlimited)");
  flags.add_double("budget-wall-s", defaults.budget.wall_s,
                   "wall-clock budget in seconds (0 = unlimited)");
  flags.add_string("budget-action",
                   defaults.budget.action ==
                           res::ResourceBudget::Action::kThrottle
                       ? "throttle"
                       : "kill",
                   "what happens to a violator: kill | throttle");
  obs::add_cli_flags(flags);
}

RunSpec spec_from_flags(const util::CliFlags& flags, RunSpec base) {
  base.nprocs = static_cast<std::size_t>(flags.get_int("procs"));
  base.app.coarse_steps = static_cast<int>(flags.get_int("steps"));
  base.seed = static_cast<std::uint64_t>(flags.get_int("seed"));
  base.capacity_spread = flags.get_double("spread");
  base.threads = static_cast<int>(flags.get_int("threads"));
  base.with_background_load = flags.get_bool("background-load");
  base.system_sensitive = flags.get_bool("system-sensitive");
  base.proactive = flags.get_bool("proactive");
  if (flags.get_bool("deterministic")) {
    if (base.modeled_partition_s_per_cell <= 0.0)
      base.modeled_partition_s_per_cell = core::kModeledPartitionSPerCell;
  } else {
    base.modeled_partition_s_per_cell = 0.0;
  }
  base.ft.enabled = flags.get_bool("ft");
  base.ft.channel.drop_probability = flags.get_double("drop");
  base.checkpoint_interval_s = flags.get_double("checkpoint");
  base.ft.reliable.timeout_s = flags.get_double("reliable-timeout");
  base.ft.reliable.backoff_factor = flags.get_double("reliable-backoff");
  base.ft.reliable.max_attempts =
      static_cast<int>(flags.get_int("reliable-attempts"));
  base.persist.dir = flags.get_string("ft-dir");
  base.tenant = flags.get_string("tenant");
  base.priority = static_cast<int>(flags.get_int("priority"));
  base.budget.cpu_s = checked_budget(flags, "budget-cpu-s");
  base.budget.mem_bytes = static_cast<std::uint64_t>(
      checked_budget(flags, "budget-mem-mb") * 1024.0 * 1024.0);
  base.budget.io_bytes = static_cast<std::uint64_t>(
      checked_budget(flags, "budget-io-mb") * 1024.0 * 1024.0);
  base.budget.wall_s = checked_budget(flags, "budget-wall-s");
  const std::string& action = flags.get_string("budget-action");
  if (action == "kill") {
    base.budget.action = res::ResourceBudget::Action::kKill;
  } else if (action == "throttle") {
    base.budget.action = res::ResourceBudget::Action::kThrottle;
  } else {
    throw std::invalid_argument("invalid --budget-action \"" + action +
                                "\": must be kill or throttle");
  }
  base.obs = obs::config_from_flags(flags, base.obs);
  return base;
}

}  // namespace pragma::service
