#include "pragma/obs/obs.hpp"

#include <string>

#include "pragma/util/cli.hpp"

namespace pragma::obs {

void apply(const ObsConfig& config) {
  if (config.tracing) Tracer::instance().set_enabled(true);
  if (config.metrics) MetricsRegistry::instance().set_enabled(true);
  if (config.flight) {
    FlightRecorder& recorder = FlightRecorder::instance();
    if (recorder.capacity() != config.flight_capacity)
      recorder.set_capacity(config.flight_capacity);
    recorder.set_enabled(true);
  }
}

void add_cli_flags(util::CliFlags& flags) {
  const ObsConfig defaults;
  flags.add_bool("obs-trace", defaults.tracing,
                 "record spans and export chrome://tracing JSON");
  flags.add_string("obs-trace-path", defaults.trace_path,
                   "trace export path");
  flags.add_bool("obs-metrics", defaults.metrics,
                 "collect metrics and export BENCH-schema JSON");
  flags.add_string("obs-metrics-path", defaults.metrics_path,
                   "metrics export path");
  flags.add_bool("obs-flight", defaults.flight,
                 "record control-plane events in the flight recorder");
  flags.add_int("obs-flight-capacity",
                static_cast<long long>(defaults.flight_capacity),
                "flight recorder ring size");
}

ObsConfig config_from_flags(const util::CliFlags& flags, ObsConfig base) {
  if (flags.get_bool("obs-trace")) base.tracing = true;
  if (flags.get_bool("obs-metrics")) base.metrics = true;
  if (flags.get_bool("obs-flight")) base.flight = true;
  if (flags.explicitly_set("obs-trace-path"))
    base.trace_path = flags.get_string("obs-trace-path");
  if (flags.explicitly_set("obs-metrics-path"))
    base.metrics_path = flags.get_string("obs-metrics-path");
  if (const long long capacity = flags.get_int("obs-flight-capacity");
      flags.explicitly_set("obs-flight-capacity") && capacity > 0)
    base.flight_capacity = static_cast<std::size_t>(capacity);
  return base;
}

std::vector<std::string> export_artifacts(const ObsConfig& config) {
  std::vector<std::string> lines;
  if (config.tracing) {
    const Tracer& tracer = Tracer::instance();
    if (tracer.write(config.trace_path))
      lines.push_back("wrote " + config.trace_path + " (" +
                      std::to_string(tracer.event_count()) + " spans)");
    else
      lines.push_back("could not write " + config.trace_path);
  }
  if (config.metrics) {
    const MetricsRegistry& registry = MetricsRegistry::instance();
    if (registry.write(config.metrics_path))
      lines.push_back("wrote " + config.metrics_path + " (" +
                      std::to_string(registry.metric_count()) + " metrics)");
    else
      lines.push_back("could not write " + config.metrics_path);
  }
  return lines;
}

}  // namespace pragma::obs
