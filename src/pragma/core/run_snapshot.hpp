// Checkpoint payload for a ManagedRun (the save-state actuator's state).
//
// A RunSnapshot captures everything the runtime cannot deterministically
// regenerate at resume time:
//   * application progress: completed steps, the emulator's step counter
//     and its dynamically configured max_box_cells bound;
//   * the adaptation trace (the emulator's current hierarchy is its last
//     snapshot, and the meta-partitioner's state is rebuilt by replaying
//     its recorded select() calls over the trace);
//   * the current owner map (the canonical work grid and mapped load are
//     recomputed from the hierarchy + owners);
//   * the report accumulated so far, including per-regrid records;
//   * the simulator clock, so the periodic control plane (monitor
//     sampling, agent ticks, load generator) can be fast-forwarded to the
//     exact event sequence position it had when the checkpoint was taken.
//
// A config fingerprint over every run-shaping value guards against
// resuming with a different configuration — valid bytes in the wrong
// context are rejected with kFailedPrecondition, not silently blended into
// a mismatched run.
#pragma once

#include <cstdint>
#include <vector>

#include "pragma/core/managed_run.hpp"
#include "pragma/util/status.hpp"

namespace pragma::core {

struct RunSnapshot {
  std::uint64_t config_fingerprint = 0;
  std::int32_t completed_steps = 0;
  std::int32_t emulator_step = 0;
  double sim_clock = 0.0;
  std::int64_t max_box_cells = 0;
  /// Snapshot index passed to each MetaPartitioner::select call so far,
  /// in call order (regrid-driven and event-driven repartitions alike).
  std::vector<std::uint32_t> select_indices;
  /// Current grain-cell owner map and its processor count.
  std::vector<std::int32_t> owners;
  std::int32_t owners_nprocs = 0;
  amr::AdaptationTrace trace;
  ManagedRunReport report;
};

/// Every run-shaping ManagedRunConfig value, once, in wire order and at
/// its wire width: every value but `persist` and `obs`.  io::FieldWriter
/// encodes the list and io::FieldReader decodes it.  The admission
/// journal's RunSpec payload embeds it, and config_fingerprint hashes it.
/// `persist` is left out because a failover, journal recovery and a
/// kill-resume continue the run with `resume` set, and may keep a
/// different number of generations; `obs` because a run with obs on is
/// byte-identical to one with obs off.  A change here changes the journal payload and every
/// checkpoint's fingerprint: bump service::kRunSpecPayloadVersion and
/// regenerate fuzz/corpus/journal and the real-run checkpoint seeds.
template <class Io, class Config>
void run_fields(Io& io, Config& config) {
  const auto each_f64 = [&io](auto& value) { io.f64(value); };

  // application & cluster
  io.i32(config.app.base_dims.x);
  io.i32(config.app.base_dims.y);
  io.i32(config.app.base_dims.z);
  io.i32(config.app.max_levels);
  io.i32(config.app.ratio);
  io.i32(config.app.regrid_interval);
  io.i32(config.app.coarse_steps);
  io.u64(config.app.seed);
  io.list(config.app.thresholds, sizeof(double), 64, each_f64);
  io.f64(config.app.cluster.efficiency);
  io.i32(config.app.cluster.min_width);
  io.i64(config.app.cluster.max_box_cells);
  io.i32(config.app.cluster.max_depth);
  io.str(config.app_name);
  io.u64(config.nprocs);
  io.f64(config.capacity_spread);
  io.flag(config.with_background_load);
  io.f64(config.load.update_period_s);
  io.f64(config.load.mean_cpu_load);
  io.f64(config.load.reversion);
  io.f64(config.load.volatility);
  io.f64(config.load.burst_probability);
  io.f64(config.load.burst_load);
  io.f64(config.load.burst_duration_s);
  io.f64(config.load.mean_link_utilization);
  io.f64(config.load.node_bias_spread);

  // management policy
  io.flag(config.system_sensitive);
  io.flag(config.proactive);
  io.f64(config.weights.cpu);
  io.f64(config.weights.memory);
  io.f64(config.weights.bandwidth);
  io.f64(config.monitor.period_s);
  io.f64(config.monitor.noise);
  io.u64(config.monitor.history);
  io.f64(config.exec.flops_per_cell_update);
  io.f64(config.exec.bytes_per_face_cell);
  io.f64(config.exec.bytes_per_cell);
  io.f64(config.exec.message_latency_s);
  io.f64(config.exec.partition_time_scale);
  io.f64(config.exec.redistribution_overhead);
  io.i32(config.meta.hysteresis);
  io.f64(config.agent_period_s);
  io.f64(config.load_event_threshold);
  io.u64(config.seed);

  // fault tolerance
  io.flag(config.ft.enabled);
  io.f64(config.ft.channel.drop_probability);
  io.f64(config.ft.channel.duplicate_probability);
  io.f64(config.ft.channel.jitter_s);
  io.f64(config.ft.reliable.timeout_s);
  io.f64(config.ft.reliable.backoff_factor);
  io.i32(config.ft.reliable.max_attempts);
  io.f64(config.ft.heartbeat.period_s);
  io.i32(config.ft.heartbeat.suspect_missed);
  io.i32(config.ft.heartbeat.confirm_missed);
  io.f64(config.ft.staleness.fresh_age_s);
  io.f64(config.ft.staleness.decay_tau_s);
  io.f64(config.ft.staleness.prior_fraction);

  // checkpoint cadence and the modeled partitioner cost
  io.f64(config.checkpoint_interval_s);
  io.f64(config.modeled_partition_s_per_cell);
}

/// A 64-bit hash of run_fields' encoding: a checkpoint resumes only into
/// a run whose every run-shaping value equals the checkpointing run's.
[[nodiscard]] std::uint64_t config_fingerprint(const ManagedRunConfig& c);

[[nodiscard]] std::vector<std::uint8_t> encode_run_snapshot(
    const RunSnapshot& snapshot);

/// Every persisted field of a report, encoded as in a checkpoint: two
/// reports agree on all of them exactly when their encodings are equal.
/// The three per-process fields are left out.
[[nodiscard]] std::vector<std::uint8_t> encode_report(
    const ManagedRunReport& report);

/// Decode an untrusted payload.  Every count is bounds-checked before
/// allocation; trailing garbage is rejected.
[[nodiscard]] util::Expected<RunSnapshot> decode_run_snapshot(
    const std::vector<std::uint8_t>& payload);

}  // namespace pragma::core
