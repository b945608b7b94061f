#include "pragma/core/run_snapshot.hpp"

#include "pragma/io/serial.hpp"
#include "pragma/io/snapshot.hpp"

namespace pragma::core {

namespace {

/// Payload-internal format tag (the envelope versions the container; this
/// versions the RunSnapshot layout inside it).  Format 2 stores the owner
/// map as runs; format 1 (one i32 per cell) is no longer decoded.
constexpr std::uint32_t kPayloadFormat = 2;

/// Caps on decoded sequence lengths, far above anything a real run emits.
constexpr std::uint32_t kMaxSelectCalls = 1u << 20;
constexpr std::uint32_t kMaxOwners = 1u << 26;
constexpr std::uint32_t kMaxRecords = 1u << 20;

/// Every persisted ManagedStepRecord field, in wire order and at its wire
/// width; io::FieldWriter encodes the list and io::FieldReader decodes it.
template <class Io, class Record>
void record_fields(Io& io, Record& record) {
  io.i32(record.step);
  io.str(record.octant);
  io.str(record.partitioner);
  io.f64(record.sim_time_s);
  io.f64(record.step_time_s);
  io.f64(record.imbalance);
  io.u64(record.live_nodes);
  io.flag(record.repartitioned);
  io.f64(record.recovery_s);
  io.f64(record.lost_cells);
  io.f64(record.detection_s);
}

/// Every persisted ManagedRunReport field.  The per-process fields
/// (checkpoints_persisted, checkpoint_generations_rejected, resumed) are
/// not persisted.
template <class Io, class Report>
void report_fields(Io& io, Report& report) {
  io.f64(report.total_time_s);
  io.u64(report.regrids);
  io.u64(report.repartitions);
  io.u64(report.agent_events);
  io.u64(report.adm_decisions);
  io.u64(report.event_repartitions);
  io.u64(report.migrations);
  io.u64(report.partitioner_switches);
  io.u64(report.checkpoints);
  io.f64(report.checkpoint_time_s);
  io.u64(report.detected_failures);
  io.u64(report.suspects);
  io.u64(report.false_suspects);
  io.u64(report.detector_recoveries);
  io.f64(report.detection_latency_s);
  io.f64(report.recovery_time_s);
  io.f64(report.cells_advanced);
  io.f64(report.recomputed_cells);
  io.u64(report.lost_directives);
  io.u64(report.directive_retries);
  io.u64(report.directives_abandoned);
  io.u64(report.messages_lost);
  io.u64(report.messages_partition_dropped);
  io.u64(report.duplicates_suppressed);
  io.u64(report.heartbeats_received);
  io.list(report.records, 4, kMaxRecords,
          [&io](auto& record) { record_fields(io, record); });
}

/// The snapshot's progress counters, validated as a group on decode.
template <class Io, class Snapshot>
void progress_fields(Io& io, Snapshot& snapshot) {
  io.u64(snapshot.config_fingerprint);
  io.i32(snapshot.completed_steps);
  io.i32(snapshot.emulator_step);
  io.f64(snapshot.sim_clock);
  io.i64(snapshot.max_box_cells);
}

/// A maximal run of equal owners in lattice order.  A canonical owner
/// map of 16,384 cells holds about 1,500 of them.
struct OwnerRun {
  std::int32_t owner = 0;
  std::uint32_t length = 0;
};

std::vector<OwnerRun> owner_runs(const std::vector<std::int32_t>& owners) {
  std::vector<OwnerRun> runs;
  for (const std::int32_t owner : owners) {
    if (runs.empty() || runs.back().owner != owner)
      runs.push_back(OwnerRun{owner, 0});
    ++runs.back().length;
  }
  return runs;
}

/// The meta-partitioner's select() history and the owner map, as `runs`
/// (the snapshot's owners run-length encoded).
template <class Io, class Snapshot, class Runs>
void assignment_fields(Io& io, Snapshot& snapshot, Runs& runs) {
  io.list(snapshot.select_indices, sizeof(std::uint32_t), kMaxSelectCalls,
          [&io](auto& index) { io.u32(index); });
  io.list(runs, sizeof(std::int32_t) + sizeof(std::uint32_t), kMaxOwners,
          [&io](auto& run) {
            io.i32(run.owner);
            io.u32(run.length);
          });
  io.i32(snapshot.owners_nprocs);
}

/// Expand decoded runs into `owners`, rejecting empty runs, a total past
/// kMaxOwners (before allocating it) and owners outside [0, nprocs).
util::Status expand_owner_runs(const std::vector<OwnerRun>& runs,
                               std::int32_t nprocs,
                               std::vector<std::int32_t>& owners) {
  std::uint64_t total = 0;
  for (const OwnerRun& run : runs) {
    if (run.length == 0)
      return util::Status::invalid("zero-length owner run");
    total += run.length;
    if (total > kMaxOwners)
      return util::Status::invalid("owner runs cover more than " +
                                   std::to_string(kMaxOwners) + " cells");
    if (run.owner < 0 || run.owner >= nprocs)
      return util::Status::out_of_range(
          "owner id " + std::to_string(run.owner) + " outside [0, " +
          std::to_string(nprocs) + ")");
  }
  owners.clear();
  owners.reserve(static_cast<std::size_t>(total));
  for (const OwnerRun& run : runs)
    owners.insert(owners.end(), run.length, run.owner);
  return util::Status::ok();
}

}  // namespace

std::uint64_t config_fingerprint(const ManagedRunConfig& c) {
  io::FieldWriter io;
  run_fields(io, c);
  // FNV-1a over the encoding: each step is a bijection of the state, so
  // two encodings of one length that differ in a single byte never collide.
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const std::uint8_t byte : io.out.bytes()) {
    hash ^= byte;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

std::vector<std::uint8_t> encode_run_snapshot(const RunSnapshot& snapshot) {
  io::FieldWriter io;
  io.out.u32(kPayloadFormat);
  progress_fields(io, snapshot);
  const std::vector<OwnerRun> runs = owner_runs(snapshot.owners);
  assignment_fields(io, snapshot, runs);
  io::encode_trace(io.out, snapshot.trace);
  report_fields(io, snapshot.report);
  return io.out.take();
}

std::vector<std::uint8_t> encode_report(const ManagedRunReport& report) {
  io::FieldWriter io;
  report_fields(io, report);
  return io.out.take();
}

util::Expected<RunSnapshot> decode_run_snapshot(
    const std::vector<std::uint8_t>& payload) {
  io::FieldReader io(payload);
  io::ByteReader& r = io.in;
  const std::uint32_t format = r.u32();
  if (r.ok() && format != kPayloadFormat)
    return util::Status::unimplemented("run snapshot payload format " +
                                       std::to_string(format));
  RunSnapshot snapshot;
  progress_fields(io, snapshot);
  if (!r.ok()) return r.status();
  if (snapshot.completed_steps < 0 || snapshot.emulator_step < 0 ||
      !(snapshot.sim_clock >= 0.0))
    return util::Status::invalid("negative progress counters in snapshot");

  std::vector<OwnerRun> runs;
  assignment_fields(io, snapshot, runs);
  if (!r.ok()) return r.status();
  if (snapshot.owners_nprocs < 0)
    return util::Status::invalid("negative owner processor count");
  if (util::Status status =
          expand_owner_runs(runs, snapshot.owners_nprocs, snapshot.owners);
      !status.is_ok())
    return status;

  util::Expected<amr::AdaptationTrace> trace = io::decode_trace(r);
  if (!trace) return trace.status();
  snapshot.trace = std::move(trace).value();
  // Every select index must address a snapshot that exists in the trace.
  for (const std::uint32_t index : snapshot.select_indices)
    if (index >= snapshot.trace.size())
      return util::Status::out_of_range(
          "select index " + std::to_string(index) +
          " beyond trace of " + std::to_string(snapshot.trace.size()));

  report_fields(io, snapshot.report);
  if (!r.ok()) return r.status();
  if (!r.at_end())
    return util::Status::invalid("trailing bytes after run snapshot");
  return snapshot;
}

}  // namespace pragma::core
