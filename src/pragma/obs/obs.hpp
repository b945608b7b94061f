// Observability facade: one config struct gating the tracer, the metrics
// registry and the flight recorder, with CLI wiring.
//
// Everything is off by default.  ObsConfig is carried inside
// core::ManagedRunConfig / core::TraceRunConfig and *applied* when the
// runtime object is constructed; apply() only ever turns facilities ON
// (merge-enable), so a default-constructed config embedded in a run never
// clobbers an obs setup the embedding process enabled globally.
//
// Knobs (CLI flag / the environment variable CliFlags::merge_env("PRAGMA")
// maps onto it):
//   --obs-trace            PRAGMA_OBS_TRACE=1        span tracer
//   --obs-trace-path=P     PRAGMA_OBS_TRACE_PATH=P   export path
//   --obs-metrics          PRAGMA_OBS_METRICS=1      metrics registry
//   --obs-metrics-path=P   PRAGMA_OBS_METRICS_PATH=P export path
//   --obs-flight           PRAGMA_OBS_FLIGHT=1       flight recorder
//   --obs-flight-capacity  PRAGMA_OBS_FLIGHT_CAPACITY=N  ring size
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "pragma/obs/flight_recorder.hpp"
#include "pragma/obs/metrics.hpp"
#include "pragma/obs/tracer.hpp"

namespace pragma::util {
class CliFlags;
}  // namespace pragma::util

namespace pragma::obs {

struct ObsConfig {
  bool tracing = false;
  bool metrics = false;
  bool flight = false;
  std::size_t flight_capacity = 256;
  std::string trace_path = "pragma-trace.json";
  std::string metrics_path = "pragma-metrics.json";

  [[nodiscard]] bool any() const { return tracing || metrics || flight; }
};

/// Turn on every facility the config requests (never turns one off).
void apply(const ObsConfig& config);

/// Register the --obs-* flags on a CliFlags set, defaulting to ObsConfig's
/// defaults.
void add_cli_flags(util::CliFlags& flags);

/// Read the --obs-* flags back over `base`: a boolean flag only turns its
/// facility on, and a path or capacity flag replaces `base`'s value
/// whenever it was set explicitly (on the command line or through
/// CliFlags::merge_env), even to its default.
[[nodiscard]] ObsConfig config_from_flags(const util::CliFlags& flags,
                                          ObsConfig base = {});

/// Write the configured artifacts (trace JSON, metrics JSON) for every
/// facility that is enabled.  Returns one human-readable line per file
/// written or failed; prints nothing itself, so callers choose the stream
/// (examples send these to stderr to keep stdout byte-stable).
[[nodiscard]] std::vector<std::string> export_artifacts(
    const ObsConfig& config);

}  // namespace pragma::obs
