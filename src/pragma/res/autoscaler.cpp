#include "pragma/res/autoscaler.hpp"

#include <algorithm>
#include <cmath>

#include "pragma/obs/metrics.hpp"

namespace pragma::res {

namespace {
obs::Gauge& desired_gauge() {
  static obs::Gauge& gauge =
      obs::metrics().gauge("res.autoscale.desired_workers");
  return gauge;
}
obs::Gauge& demand_gauge() {
  static obs::Gauge& gauge = obs::metrics().gauge("res.autoscale.demand");
  return gauge;
}
}  // namespace

PredictiveAutoscaler::PredictiveAutoscaler(AutoscaleConfig config)
    : config_(config) {
  if (config_.min_workers == 0) config_.min_workers = 1;
  if (config_.max_workers < config_.min_workers)
    config_.max_workers = config_.min_workers;
  if (config_.interval_s <= 0.0) config_.interval_s = 1.0;
  if (config_.target_runs_per_worker <= 0.0)
    config_.target_runs_per_worker = 1.0;
}

std::size_t PredictiveAutoscaler::lead_steps() const {
  if (config_.lead_steps > 0) return config_.lead_steps;
  return static_cast<std::size_t>(
      std::ceil(std::max(0.0, config_.spinup_s) / config_.interval_s));
}

void PredictiveAutoscaler::observe(double now_s, double demand) {
  current_ = std::max(0.0, demand);
  demand_.observe(now_s, current_);
  demand_gauge().set(current_);
}

double PredictiveAutoscaler::current_demand() const { return current_; }

double PredictiveAutoscaler::forecast_demand() const {
  return demand_.predict_ahead(lead_steps());
}

double PredictiveAutoscaler::planning_demand() const {
  // Prediction only ever adds capacity ahead of a ramp; the idle cooldown
  // owns scale-down, so a low forecast never yanks workers mid-burst.
  if (!config_.predictive) return current_;
  return std::max(current_, forecast_demand());
}

std::size_t PredictiveAutoscaler::desired_workers() const {
  const double demand = planning_demand();
  const auto desired = static_cast<std::size_t>(
      std::ceil(demand / config_.target_runs_per_worker));
  const std::size_t clamped =
      std::clamp(desired, config_.min_workers, config_.max_workers);
  desired_gauge().set(static_cast<double>(clamped));
  return clamped;
}

bool PredictiveAutoscaler::scale_down_due(double now_s,
                                          std::size_t alive) const {
  if (desired_workers() >= alive) {
    below_since_s_ = -1.0;
    return false;
  }
  if (below_since_s_ < 0.0) {
    below_since_s_ = now_s;
    return false;
  }
  return now_s - below_since_s_ >= config_.scale_down_after_s;
}

void PredictiveAutoscaler::note_scaled() { below_since_s_ = -1.0; }

}  // namespace pragma::res
