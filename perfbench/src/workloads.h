#ifndef TASTI_PERFBENCH_WORKLOADS_H_
#define TASTI_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>

#include "harness.h"

namespace perfbench {

struct RunConfig {
  std::string workload;  ///< analyst | serve | dashboard
  uint64_t seed = 1;
  /// Traced run: per-layer metrics from spans and counters instead of the
  /// end-to-end metrics.
  bool trace = false;
  /// Minimum time spent on repeated set-ups (at least three are made).
  double seconds = 10.0;
  /// Small sizes for the smoke test; the figures are not comparable.
  bool tiny = false;
};

struct Report {
  MetricSet metrics;
  size_t attempted = 0;
  size_t failed = 0;
  bool correct = false;
  /// Informational: guarantee coverage, digest, sample counts.
  std::string details_json;
};

/// Runs one workload in this process. Returns false for an unknown name.
bool RunWorkload(const RunConfig& config, Report* report);

}  // namespace perfbench

#endif  // TASTI_PERFBENCH_WORKLOADS_H_
