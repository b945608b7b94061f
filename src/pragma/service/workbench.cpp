#include "pragma/service/workbench.hpp"

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "pragma/service/admission.hpp"

namespace pragma::service {

std::vector<util::Expected<RunHandle>> submit_batch_with_retry(
    Runtime& runtime, std::vector<RunSpec> specs, RetryBackoff backoff) {
  const int cap_ms = std::max(backoff.cap_ms, 1);
  int next_wait_ms = std::max(backoff.base_ms, 1);
  // The batch is submitted from a kept copy: shed slots need their spec
  // again on the next round.
  std::vector<util::Expected<RunHandle>> results =
      runtime.submit_batch(specs);
  for (int attempt = 1; attempt < backoff.max_attempts; ++attempt) {
    std::vector<std::size_t> shed;
    int hint_ms = 0;
    for (std::size_t i = 0; i < results.size(); ++i) {
      if (results[i] || !ShedInfo::retryable(results[i].status())) continue;
      shed.push_back(i);
      hint_ms = std::max(hint_ms, shed_info(results[i].status()).retry_after_ms);
    }
    if (shed.empty()) break;
    // The shed hint when present, otherwise the exponential schedule;
    // always capped.
    const int wait_ms = std::min(hint_ms > 0 ? hint_ms : next_wait_ms, cap_ms);
    std::this_thread::sleep_for(std::chrono::milliseconds(wait_ms));
    next_wait_ms = std::min(next_wait_ms * 2, cap_ms);
    std::vector<RunSpec> again;
    again.reserve(shed.size());
    for (const std::size_t i : shed) again.push_back(specs[i]);
    std::vector<util::Expected<RunHandle>> redo =
        runtime.submit_batch(std::move(again));
    for (std::size_t k = 0; k < shed.size(); ++k)
      results[shed[k]] = std::move(redo[k]);
  }
  return results;
}

namespace {

grid::Cluster bench_cluster(const RunSpec& spec) {
  if (spec.capacity_spread > 0.0) {
    util::Rng rng(spec.seed, 0);
    return grid::ClusterBuilder::heterogeneous(
        spec.nprocs, rng, 0.5, 512.0, 100.0, 150e-6, spec.capacity_spread);
  }
  return grid::ClusterBuilder::homogeneous(spec.nprocs);
}

}  // namespace

Workbench::Workbench(RunSpec spec, policy::PolicyBase policies)
    : spec_(std::move(spec)),
      cluster_(bench_cluster(spec_)),
      failures_(simulator_, cluster_),
      monitor_(simulator_, cluster_, spec_.monitor, util::Rng(spec_.seed, 2)),
      policies_(std::move(policies)) {
  if (spec_.with_background_load) {
    loadgen_ = std::make_unique<grid::LoadGenerator>(
        simulator_, cluster_, spec_.load, util::Rng(spec_.seed, 1));
    loadgen_->start();
  }
}

void Workbench::start_monitoring() {
  if (monitoring_) return;
  monitoring_ = true;
  monitor_.start();
}

agents::Environment& Workbench::environment() {
  if (!environment_) {
    mcs_ = std::make_unique<agents::Mcs>(simulator_, policies_);
    agents::EnvTemplate blueprint;
    blueprint.name = "workbench";
    blueprint.provides["arch"] = policy::Value{std::string("linux-cluster")};
    blueprint.provides["nodes"] =
        policy::Value{static_cast<double>(spec_.nprocs)};
    mcs_->registry().register_template(blueprint);

    agents::AppSpec app;
    app.name = spec_.app_name;
    app.requirements["arch"] = policy::Value{std::string("linux-cluster")};
    app.sample_period_s = spec_.agent_period_s;
    for (std::size_t c = 0; c < spec_.nprocs; ++c) {
      std::string component = "c";
      component += std::to_string(c);
      app.components.push_back(std::move(component));
    }
    environment_ = mcs_->build(std::move(app));
  }
  return *environment_;
}

void Workbench::advance(double seconds) {
  simulator_.run(simulator_.now() + seconds);
}

}  // namespace pragma::service
