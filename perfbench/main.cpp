// perfbench: the repository benchmark binary.
//
//   perfbench --workload managed_rm3d|trace_replay|service_burst
//             --seed N --seconds S --trace 0|1
//             --scratch DIR [--trace-out FILE]
//
// Runs one workload through pragma's public API from this process and
// prints a human-readable report, then one JSON line as the last line of
// stdout: {"correct", "attempted", "failed", "metrics"}.  With --trace 0
// the metrics are the end-to-end ones (measured untraced); with --trace 1
// they are the per-layer ledger of a traced run.  Exits 1 when an output
// check fails.  perfbench/run.py builds this binary and is the normal way
// to invoke it.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "perfbench.hpp"

namespace {

void usage() {
  std::cerr << "usage: perfbench --workload managed_rm3d|trace_replay|"
               "service_burst --seed N --seconds S --trace 0|1 "
               "--scratch DIR [--trace-out FILE]\n";
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  bool have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      options.trace = value == "1";
      have_trace = value == "0" || value == "1";
    } else if (flag == "--scratch") {
      options.scratch = value;
    } else if (flag == "--trace-out") {
      options.trace_out = value;
    } else {
      usage();
      return 2;
    }
  }
  if (argc % 2 != 1 || !have_trace || options.scratch.empty() ||
      !(options.seconds > 0.0) || (options.trace && options.trace_out.empty())) {
    usage();
    return 2;
  }

  perfbench::Result result;
  try {
    if (options.workload == "managed_rm3d") {
      result = perfbench::run_managed_rm3d(options);
    } else if (options.workload == "trace_replay") {
      result = perfbench::run_trace_replay(options);
    } else if (options.workload == "service_burst") {
      result = perfbench::run_service_burst(options);
    } else {
      std::cerr << "perfbench: unknown workload '" << options.workload << "'\n";
      usage();
      return 2;
    }
  } catch (const std::exception& error) {
    std::cerr << "perfbench: " << error.what() << "\n";
    return 1;
  }

  std::string metrics;
  for (const perfbench::Metric& m : result.metrics) {
    result.check(std::isfinite(m.value), m.name + " is not finite");
    char value[64];
    std::snprintf(value, sizeof value, "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    if (!metrics.empty()) metrics += ", ";
    // Names and units are fixed identifiers: nothing to escape.
    metrics += "\"" + m.name + "\": {\"value\": " + value +
               ", \"unit\": \"" + m.unit + "\"}";
  }
  result.check(result.attempted > 0, "no operation was attempted");
  std::cout << "{\"correct\": " << (result.correct ? "true" : "false")
            << ", \"attempted\": " << result.attempted
            << ", \"failed\": " << result.failed << ", \"metrics\": {"
            << metrics << "}}" << std::endl;
  return result.correct ? 0 : 1;
}
