// Predictive autoscaling of the worker pool (the tentpole's third leg).
//
// The paper's thesis — predict resource behavior, adapt proactively —
// applied to the service layer itself: the demand series (open runs)
// feeds the NWS forecaster ensemble through monitor::SeriesForecaster,
// and the desired worker count is computed from the *forecast* demand a
// provisioning-delay ahead, not just the current one.  A reactive-only
// mode (predictive = false) exists so the autoscale_slo bench can measure
// exactly what the lookahead buys.
//
// The scaler itself is pure policy: observe() ingests one demand sample,
// desired_workers() answers, and the DistributedService (worker.cpp) does
// the actual joining/killing inside simulator events.  With
// AutoscaleConfig::enabled false nothing is constructed and no event is
// scheduled — the disabled path is byte-identical.
#pragma once

#include <cstddef>

#include "pragma/monitor/forecaster.hpp"

namespace pragma::res {

struct AutoscaleConfig {
  /// Master switch: false = no autoscaler, no periodic event, byte-
  /// identical service behavior.
  bool enabled = false;
  /// true = scale on the forecast demand `lead_steps` intervals ahead;
  /// false = scale on current demand only (the reactive baseline).
  bool predictive = true;
  std::size_t min_workers = 1;
  std::size_t max_workers = 16;
  /// Desired open runs (queued + in flight) per worker; the pool is sized
  /// to ceil(demand / target_runs_per_worker).
  double target_runs_per_worker = 2.0;
  /// Evaluation cadence in simulated seconds.
  double interval_s = 1.0;
  /// Provisioning delay: a scale-up decision joins its worker this many
  /// simulated seconds later (why prediction matters — a reactive scaler
  /// pays this lag *after* the burst has already queued).
  double spinup_s = 2.0;
  /// Demand must sit below the scale-down threshold for this long before
  /// an idle auto-added worker is retired.
  double scale_down_after_s = 10.0;
  /// Forecast horizon in intervals for the predictive mode.  0 picks
  /// ceil(spinup_s / interval_s) — look exactly one provisioning delay
  /// ahead.
  std::size_t lead_steps = 0;
};

/// Forecast-driven pool sizing.
class PredictiveAutoscaler {
 public:
  explicit PredictiveAutoscaler(AutoscaleConfig config);

  /// Ingest one demand sample (open runs across all tenants) at simulated
  /// time `now_s`.
  void observe(double now_s, double demand);

  /// Workers the pool should have right now, clamped to
  /// [min_workers, max_workers].  Predictive mode sizes on
  /// max(current, forecast) so prediction only ever *adds* capacity ahead
  /// of demand — scale-down is handled by the idle cooldown, not the
  /// forecast.
  [[nodiscard]] std::size_t desired_workers() const;

  /// The demand the last desired_workers() decision was based on.
  [[nodiscard]] double planning_demand() const;
  [[nodiscard]] double current_demand() const;
  [[nodiscard]] double forecast_demand() const;

  /// True once demand has been at or below the scale-down watermark
  /// (desired < alive) continuously for scale_down_after_s.
  [[nodiscard]] bool scale_down_due(double now_s, std::size_t alive) const;
  /// Note a scale event (up or down) — resets the scale-down clock.
  void note_scaled();

  [[nodiscard]] const AutoscaleConfig& config() const { return config_; }
  [[nodiscard]] std::size_t lead_steps() const;

 private:
  AutoscaleConfig config_;
  monitor::SeriesForecaster demand_;
  double current_ = 0.0;
  mutable double below_since_s_ = -1.0;
};

}  // namespace pragma::res
