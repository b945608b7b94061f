// Autoscale SLO — what the predictive lookahead buys under bursty load.
//
// The paper's thesis is that *predicting* resource behavior and adapting
// proactively beats reacting to the current reading.  PR 9 applies that
// to the service layer itself: a PredictiveAutoscaler feeds the demand
// series into the NWS forecaster ensemble and sizes the worker pool on
// the forecast a provisioning-delay ahead.  This bench measures the
// claim end to end:
//
//   Two identical bursty multi-tenant workloads — a steady "climate"
//   tenant plus ramping "astro" bursts — run over a DistributedService
//   whose worker pool starts at one worker and autoscales up to twelve.
//   Joining a worker costs a modeled spin-up delay, so a reactive scaler
//   (predictive = false) pays that delay *after* each burst has already
//   queued, while the predictive scaler orders capacity ahead of the
//   ramp.  Every run's admission-to-completion latency is checked
//   against a fixed SLO; we report the violation rate per mode.
//
// Everything runs inside one deterministic discrete-event simulator per
// mode (fixed seed, fixed submission schedule), so the comparison is
// noise-free: the only difference between the two modes is the scaling
// policy.
//
// Results land in BENCH_autoscale_slo.json.  Exit code is non-zero when
// the predictive mode fails to reduce the SLO violation count below the
// reactive baseline (or the workload fails to stress the reactive
// scaler at all), so CI can run this directly as the SLO-improvement
// gate.
#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "pragma/res/accountant.hpp"
#include "pragma/service/worker.hpp"
#include "pragma/util/cli.hpp"

using namespace pragma;

namespace {

struct BenchConfig {
  int steps = 8;          // coarse steps per managed run
  std::size_t nprocs = 4; // processors per managed run
  double slo_s = 3.0;     // admission -> completion latency SLO
  double horizon_s = 60.0;
  std::uint64_t seed = 40;
};

struct ModeResult {
  std::size_t runs = 0;
  std::size_t completed = 0;
  std::size_t violations = 0;  ///< late or never-finished runs
  double violation_rate = 0.0;
  double mean_latency_s = 0.0;
  double p99_latency_s = 0.0;
  std::size_t scale_ups = 0;
  std::size_t scale_downs = 0;
  std::size_t final_workers = 0;
};

service::RunSpec managed_run(const BenchConfig& config, int index,
                             const std::string& tenant) {
  service::RunSpec spec;
  spec.name = tenant + "-" + std::to_string(index);
  spec.tenant = tenant;
  spec.kind = service::WorkloadKind::kManaged;
  spec.app.coarse_steps = config.steps;
  spec.nprocs = config.nprocs;
  spec.modeled_partition_s_per_cell = 50e-9;
  spec.seed = config.seed + 1000 * static_cast<std::uint64_t>(index);
  return spec;
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

/// One mode: the fixed submission schedule over an autoscaled service.
ModeResult run_mode(bool predictive, const BenchConfig& config,
                    const std::string& root) {
  service::DistributedConfig plane;
  plane.queue_capacity = 256;
  plane.heartbeat.period_s = 0.5;
  plane.dispatch_period_s = 0.25;
  plane.slice_steps = 4;
  plane.slice_sim_s = 1.0;
  plane.checkpoint_root =
      root + (predictive ? "/predictive" : "/reactive");

  res::AutoscaleConfig autoscale;
  autoscale.enabled = true;
  autoscale.predictive = predictive;
  autoscale.min_workers = 1;
  autoscale.max_workers = 12;
  autoscale.target_runs_per_worker = 1.5;
  autoscale.interval_s = 0.5;
  autoscale.spinup_s = 4.0;  // the lag prediction is supposed to hide
  autoscale.scale_down_after_s = 8.0;
  plane.autoscale = autoscale;

  service::DistributedService service(plane, config.seed);
  service.add_worker("w0");  // base pool: one worker

  // The workload: a steady background tenant plus ramping bursts.  Both
  // schedules are fixed simulated times, identical across modes.
  int next_index = 0;
  auto submit_at = [&](double at_s, const std::string& tenant) {
    const service::RunSpec spec = managed_run(config, next_index++, tenant);
    service.simulator().schedule_at(at_s, [&service, spec] {
      const auto handle = service.submit_run(spec);
      if (!handle)
        std::cerr << "unexpected shed: " << handle.status().to_string()
                  << "\n";
    });
  };
  // climate: one run every 4 s for the whole horizon.
  for (double t = 0.0; t < 44.0; t += 4.0) submit_at(t, "climate");
  // astro: bursts that ramp 4 -> 8 -> 12 runs — the trend the forecaster
  // extrapolates.
  for (int wave = 0; wave < 3; ++wave) {
    const double at_s = 10.0 + 10.0 * wave;
    const int size = 4 * (wave + 1);
    for (int i = 0; i < size; ++i) submit_at(at_s, "astro");
  }

  // Drive the schedule in, then let the burst drain.
  service.simulator().run(config.horizon_s);
  const util::Status done = service.run_until_done(600.0);
  if (!done.is_ok())
    std::cerr << "warning: " << done.to_string() << "\n";

  ModeResult result;
  std::vector<double> latencies;
  for (const auto& [id, run] : service.coordinator().runs()) {
    ++result.runs;
    if (run.state != service::DistRunState::kCompleted) {
      ++result.violations;
      continue;
    }
    ++result.completed;
    const double latency = run.completed_s - run.submitted_s;
    latencies.push_back(latency);
    if (latency > config.slo_s) ++result.violations;
  }
  double total = 0.0;
  for (const double latency : latencies) total += latency;
  result.mean_latency_s =
      latencies.empty() ? 0.0 : total / static_cast<double>(latencies.size());
  result.p99_latency_s = percentile(latencies, 0.99);
  result.violation_rate =
      result.runs == 0
          ? 0.0
          : static_cast<double>(result.violations) /
                static_cast<double>(result.runs);
  result.scale_ups = service.scale_ups();
  result.scale_downs = service.scale_downs();
  result.final_workers = service.alive_workers();
  return result;
}

void report(const std::string& mode, const ModeResult& result) {
  std::cout << mode << ": " << result.completed << "/" << result.runs
            << " completed, " << result.violations << " SLO violations ("
            << static_cast<int>(result.violation_rate * 100.0 + 0.5)
            << "%), mean latency " << result.mean_latency_s << " s, p99 "
            << result.p99_latency_s << " s, " << result.scale_ups
            << " scale-ups, " << result.scale_downs << " scale-downs\n";
}

}  // namespace

int main(int argc, char** argv) {
  util::CliFlags flags(
      "Predictive vs reactive autoscaling under bursty multi-tenant load.");
  flags.add_int("steps", 8, "coarse steps per managed run");
  flags.add_double("slo", 3.0, "latency SLO in simulated seconds");
  flags.add_int("seed", 40, "master seed");
  flags.merge_env("PRAGMA");
  if (!flags.parse(argc, argv)) return 0;

  BenchConfig config;
  config.steps = static_cast<int>(flags.get_int("steps"));
  config.slo_s = flags.get_double("slo");
  config.seed = static_cast<std::uint64_t>(flags.get_int("seed"));

  bench::banner("AUTOSCALE-SLO",
                "predictive vs reactive pool scaling (SLO violation rate)");

  namespace fs = std::filesystem;
  const std::string root =
      (fs::temp_directory_path() / "pragma_autoscale_slo").string();
  fs::remove_all(root);

  const ModeResult reactive = run_mode(/*predictive=*/false, config, root);
  const ModeResult predictive = run_mode(/*predictive=*/true, config, root);
  fs::remove_all(root);

  report("reactive  ", reactive);
  report("predictive", predictive);

  util::BenchJsonWriter json;
  json.entry("autoscale_slo/reactive")
      .field("runs", reactive.runs)
      .field("completed", reactive.completed)
      .field("slo_violations", reactive.violations)
      .field("violation_rate", reactive.violation_rate, 4)
      .field("mean_latency_s", reactive.mean_latency_s, 3)
      .field("p99_latency_s", reactive.p99_latency_s, 3)
      .field("scale_ups", reactive.scale_ups)
      .field("scale_downs", reactive.scale_downs)
      .field("final_workers", reactive.final_workers);
  json.entry("autoscale_slo/predictive")
      .field("runs", predictive.runs)
      .field("completed", predictive.completed)
      .field("slo_violations", predictive.violations)
      .field("violation_rate", predictive.violation_rate, 4)
      .field("mean_latency_s", predictive.mean_latency_s, 3)
      .field("p99_latency_s", predictive.p99_latency_s, 3)
      .field("scale_ups", predictive.scale_ups)
      .field("scale_downs", predictive.scale_downs)
      .field("final_workers", predictive.final_workers);
  bench::write_bench_json(json, "BENCH_autoscale_slo.json");

  // The gate: the workload must actually stress the reactive scaler, and
  // the forecast lookahead must buy a strictly lower violation count.
  if (reactive.violations == 0) {
    std::cerr << "\nFAIL: workload too gentle — the reactive baseline has "
                 "no SLO violations to improve on\n";
    return 1;
  }
  if (predictive.violations >= reactive.violations) {
    std::cerr << "\nFAIL: predictive scaling did not reduce SLO violations ("
              << predictive.violations << " vs " << reactive.violations
              << " reactive)\n";
    return 1;
  }
  std::cout << "\nPASS: predictive autoscaling cut SLO violations "
            << reactive.violations << " -> " << predictive.violations
            << "\n";
  return 0;
}
