// tasti_perfbench: runs one benchmark workload in this process and prints
// two JSON lines, the informational details (digest, guarantee coverage,
// environment stamp) and then the result.
//
//   tasti_perfbench --workload analyst|serve|dashboard --seed N
//                   [--trace 0|1] [--seconds S] [--tiny]
//
// perfbench/run.py builds this program and wraps its output into the
// benchmark's result line; see perfbench/README.md for the metrics.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "workloads.h"

int main(int argc, char** argv) {
  perfbench::RunConfig config;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    if (flag == "--tiny") {
      config.tiny = true;
    } else if (value == nullptr) {
      std::fprintf(stderr, "missing value for %s\n", flag.c_str());
      return 2;
    } else if (flag == "--workload") {
      config.workload = value, ++i;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value, nullptr, 10), ++i;
    } else if (flag == "--trace") {
      config.trace = std::strcmp(value, "0") != 0, ++i;
    } else if (flag == "--seconds") {
      config.seconds = std::atof(value), ++i;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return 2;
    }
  }

  perfbench::Report report;
  if (!perfbench::RunWorkload(config, &report)) {
    std::fprintf(stderr, "unknown workload '%s' (analyst|serve|dashboard)\n",
                 config.workload.c_str());
    return 2;
  }
  if (report.details_json.empty()) {
    std::fprintf(stderr, "workload '%s' could not be set up\n",
                 config.workload.c_str());
    return 1;
  }
  std::printf("%s\n", report.details_json.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": %s}\n",
              report.correct ? "true" : "false", report.attempted,
              report.failed, report.metrics.ToJson().c_str());
  return 0;
}
