// Quickstart: the pragma::Runtime facade in one page.
//
// Build a runtime, describe a workload with a RunSpec, submit a batch of
// managed RM3D runs that execute concurrently, and read the reports back.
// Every example in this directory is a variation on these four steps.
//
//   $ ./quickstart [--procs 16] [--runs 4] [--steps 40]
#include <iostream>
#include <vector>

#include "pragma/service/runtime.hpp"
#include "pragma/util/cli.hpp"
#include "pragma/util/table.hpp"

using namespace pragma;

int main(int argc, char** argv) {
  util::CliFlags flags("Pragma runtime quickstart.");
  flags.add_int("procs", 16, "number of processors per run");
  flags.add_int("runs", 4, "managed runs to submit");
  flags.add_int("steps", 40, "coarse time-steps per run");
  flags.merge_env("PRAGMA");
  if (!flags.parse(argc, argv)) return 0;
  const auto procs = static_cast<std::size_t>(flags.get_int("procs"));
  const auto runs = static_cast<std::size_t>(flags.get_int("runs"));

  // 1. One runtime per process: it owns the scheduler, the observability
  //    wiring, and the default machine model every submitted run inherits.
  util::ThreadPool pool(2);
  auto runtime = Runtime::Builder{}
                     .grid({.nprocs = procs, .capacity_spread = 0.35})
                     .workers(2)
                     .pool(&pool)
                     .build();

  // 2. Describe the workload once.  The modeled partitioner cost makes the
  //    tables reproducible run to run.
  RunSpec spec = runtime.spec();
  spec.name = "quickstart";
  spec.app.coarse_steps = static_cast<int>(flags.get_int("steps"));
  spec.with_background_load = true;
  spec.system_sensitive = true;
  spec.modeled_partition_s_per_cell = core::kModeledPartitionSPerCell;

  // 3. Submit the whole batch in one call.  derived(i) gives each run its
  //    own seed and artifact paths, so runs are isolated and the batch is
  //    deterministic no matter how the scheduler interleaves them.
  //    submit_batch admits everything in one pass — with a journal wired
  //    in that is one sealed WAL frame and one fsync for the whole batch —
  //    and each result slot is independently a handle or a shed status.
  std::vector<RunSpec> specs;
  for (std::size_t i = 0; i < runs; ++i) specs.push_back(spec.derived(i));
  std::vector<util::Expected<RunHandle>> admitted =
      runtime.submit_batch(std::move(specs));
  std::vector<RunHandle> handles;
  for (util::Expected<RunHandle>& handle : admitted) {
    if (!handle) {
      // Admission is bounded; a full queue sheds instead of stalling.
      std::cerr << "rejected: " << handle.status().to_string() << "\n";
      continue;
    }
    handles.push_back(std::move(handle.value()));
  }

  // 4. Join and read the reports.
  util::TextTable table({"run", "state", "sim time (s)", "regrids",
                         "repartitions", "ADM decisions"});
  table.set_alignment(0, util::Align::kLeft);
  for (RunHandle& handle : handles) {
    const service::RunOutcome& outcome = handle.wait();
    table.add_row({handle.name(), service::to_string(outcome.state),
                   util::cell(outcome.managed.total_time_s, 1),
                   util::cell(outcome.managed.regrids),
                   util::cell(outcome.managed.repartitions),
                   util::cell(outcome.managed.adm_decisions)});
  }
  std::cout << "Ran " << handles.size() << " managed runs on " << procs
            << "-node clusters (2 in flight at a time):\n"
            << table.render();

  const service::SchedulerStats stats = runtime.stats();
  std::cout << "\nScheduler: " << stats.submitted << " submitted, "
            << stats.completed << " completed, peak " << stats.peak_running
            << " in flight; median queue wait "
            << util::cell(stats.queue_p50_s * 1e3, 2) << " ms\n"
            << "\nNext: adaptive_rm3d replays an adaptation trace through "
               "the partitioner suite,\nand managed_execution runs the full "
               "monitoring/steering loop on one run.\n";
  return 0;
}
