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
// A config fingerprint guards against resuming with a different
// configuration — valid bytes in the wrong context are rejected with
// kFailedPrecondition, not silently blended into a mismatched run.
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

/// Deterministic fingerprint over the configuration fields that must match
/// between the checkpointing run and the resuming run.
[[nodiscard]] std::uint64_t config_fingerprint(const ManagedRunConfig& c);

[[nodiscard]] std::vector<std::uint8_t> encode_run_snapshot(
    const RunSnapshot& snapshot);

/// Every persisted field of a report, encoded as in a checkpoint: two
/// reports agree on all of them exactly when their encodings are equal.
/// The four per-process fields are left out.
[[nodiscard]] std::vector<std::uint8_t> encode_report(
    const ManagedRunReport& report);

/// Decode an untrusted payload.  Every count is bounds-checked before
/// allocation; trailing garbage is rejected.
[[nodiscard]] util::Expected<RunSnapshot> decode_run_snapshot(
    const std::vector<std::uint8_t>& payload);

}  // namespace pragma::core
