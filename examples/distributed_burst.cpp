// Elastic distributed execution: a burst of managed runs over the
// coordinator/worker control plane, surviving a mid-burst crash.
//
// A DistributedService deploys a coordinator and a small worker pool on
// one deterministic control network.  Workers register, prove liveness
// with heartbeats, and execute leased runs in checkpointed slices.  One
// worker is killed mid-burst (SIGKILL — no oracle tells the coordinator;
// the heartbeat detector must walk it through suspect -> confirmed dead)
// and a fresh worker joins while the detector is still deciding.  The
// victim's run fails over: another worker resumes it from the newest
// valid checkpoint generation and the final report is byte-identical to
// an uninterrupted run.
//
// The reliable-channel knobs ride the same flag/env path as every other
// run parameter:
//
//   $ ./distributed_burst [--workers 3] [--burst 4] [--steps 14]
//                         [--kill-at 1.7] [--join-at 2.5]
//                         [--reliable-timeout 0.5] [--reliable-attempts 8]
//   $ PRAGMA_RELIABLE_TIMEOUT=0.25 ./distributed_burst
#include <algorithm>
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "pragma/service/admission.hpp"
#include "pragma/service/worker.hpp"
#include "pragma/util/cli.hpp"
#include "pragma/util/table.hpp"

using namespace pragma;

int main(int argc, char** argv) {
  service::RunSpec base;
  base.name = "distributed-burst";
  base.app.coarse_steps = 14;
  base.nprocs = 8;

  util::CliFlags flags("Elastic coordinator/worker burst with failover.");
  service::add_run_flags(flags, base);
  flags.add_int("workers", 3, "initial worker pool size");
  flags.add_int("burst", 4, "managed runs in the burst");
  flags.add_double("kill-at", 1.7,
                   "simulated seconds until w0 is killed (<0: no kill)");
  flags.add_double("join-at", 2.5,
                   "simulated seconds until a fresh worker joins");
  flags.merge_env("PRAGMA");
  if (!flags.parse(argc, argv)) return 0;

  const service::RunSpec spec = service::spec_from_flags(flags, base);
  const int workers = static_cast<int>(flags.get_int("workers"));
  const int burst = static_cast<int>(flags.get_int("burst"));

  namespace fs = std::filesystem;
  const std::string root =
      (fs::temp_directory_path() / "pragma_distributed_burst").string();
  fs::remove_all(root);

  // Fast-cadence control plane: suspect after 1.5 s of silence, confirm
  // dead after 3 s.  The reliable-channel parameters parsed above drive
  // every coordinator directive (leases, revokes, fences).
  service::DistributedConfig plane;
  plane.heartbeat.period_s = 0.5;
  plane.heartbeat.suspect_missed = 3;
  plane.heartbeat.confirm_missed = 6;
  plane.dispatch_period_s = 0.25;
  plane.slice_steps = 6;
  plane.slice_sim_s = 1.0;
  plane.reliable = spec.ft.reliable;
  plane.checkpoint_root = root;

  service::DistributedService service(plane, spec.seed);
  for (int w = 0; w < workers; ++w)
    service.add_worker(std::string("w").append(std::to_string(w)));
  if (flags.get_double("kill-at") >= 0.0) {
    service.schedule_kill(flags.get_double("kill-at"), "w0");
    service.schedule_join(flags.get_double("join-at"),
                          "w" + std::to_string(workers));
  }

  std::cout << "Bursting " << burst << " managed runs ("
            << spec.app.coarse_steps << " steps each) over " << workers
            << " workers; killing w0 at t=" << flags.get_double("kill-at")
            << "s...\n\n";

  std::vector<std::uint64_t> ids;
  for (int i = 0; i < burst; ++i) {
    service::RunSpec one = spec.derived(i);
    one.persist.enabled = true;
    one.persist.dir = root + "/run-" + std::to_string(i);
    // Checkpoint at every step boundary; an --ft run keeps its
    // --checkpoint cadence.
    if (!one.ft.enabled) one.checkpoint_interval_s = 1e-6;
    // Admission backpressure is advisory, not fatal: ShedInfo classifies
    // the rejection (queue-full and friends are retryable, a shutdown is
    // not) and carries the retry-after hint, honored here as a capped
    // exponential backoff in simulated time — leases drain as the
    // simulator advances.
    auto handle = service.submit_run(one);
    int backoff_ms = 10;
    constexpr int kCapMs = 1000;
    for (int attempt = 1; !handle && attempt < 8; ++attempt) {
      if (!service::ShedInfo::retryable(handle.status())) break;
      const service::ShedInfo info = service::shed_info(handle.status());
      const int wait_ms =
          std::min(info.retry_after_ms > 0 ? info.retry_after_ms : backoff_ms,
                   kCapMs);
      service.simulator().run(service.simulator().now() +
                              static_cast<double>(wait_ms) / 1000.0);
      backoff_ms = std::min(backoff_ms * 2, kCapMs);
      handle = service.submit_run(one);
    }
    if (!handle) {
      std::cerr << "admission rejected: " << handle.status().to_string()
                << "\n";
      return 1;
    }
    ids.push_back(handle.value().id());
  }
  if (!service.run_until_done(600.0).is_ok()) {
    std::cerr << "burst did not drain\n";
    return 1;
  }

  util::TextTable table({"run", "state", "assignee", "attempts", "failovers",
                         "sim time (s)"});
  table.set_alignment(0, util::Align::kLeft);
  table.set_alignment(1, util::Align::kLeft);
  table.set_alignment(2, util::Align::kLeft);
  bool ok = true;
  for (const std::uint64_t id : ids) {
    const service::DistRun* run = service.coordinator().find(id);
    if (run == nullptr) continue;
    ok = ok && run->state == service::DistRunState::kCompleted;
    table.add_row({run->spec.name, std::string(to_string(run->state)),
                   run->assignee, util::cell(run->attempt + 1),
                   util::cell(run->failovers),
                   util::cell(run->outcome.managed.total_time_s, 1)});
  }
  std::cout << table.render();

  const service::CoordinatorStats& stats = service.coordinator().stats();
  std::cout << "\ncoordinator: " << stats.completed << " completed, "
            << stats.suspects << " suspects, " << stats.confirms
            << " confirmed dead, " << stats.failovers << " failovers, "
            << stats.steals << " steals, " << stats.registrations
            << " registrations\n";
  for (const double r : service.recovery_latencies())
    std::cout << "kill-to-redispatch recovery latency: " << r << " s\n";
  std::cout << "\nThe failed-over run resumed from durable checkpoint\n"
               "generations on another worker — its report is byte-identical\n"
               "to an uninterrupted execution (see the distributed_service\n"
               "bench for the sweep that proves it at every scale).\n";

  fs::remove_all(root);
  return ok ? 0 : 1;
}
