#ifndef TASTI_PERFBENCH_HARNESS_H_
#define TASTI_PERFBENCH_HARNESS_H_

// Measurement plumbing shared by the benchmark workloads: an oracle
// decorator that counts and times every physical call, a named-metric
// sink, span self-time aggregation, answer checks against ground truth,
// a result digest and the environment stamp.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/scorer.h"
#include "data/dataset.h"
#include "labeler/labeler.h"
#include "obs/trace.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Linear-interpolation quantile (numpy's default); 0 for an empty input.
double Quantile(std::vector<double> values, double q);

/// Middle value (mean of the two middle values for an even count); 0 for
/// an empty input. Used across trials, where few values are combined.
double Median(std::vector<double> values);

/// Decorates the outermost oracle the program sees. Counts physical calls
/// and failures always; accumulates the wall time spent inside calls only
/// when timing is on (the traced run), so untraced runs pay two atomic
/// increments per call. Thread-safe when the inner oracle is.
class TimedOracle : public tasti::labeler::FallibleLabeler {
 public:
  explicit TimedOracle(tasti::labeler::FallibleLabeler* inner) : inner_(inner) {}

  tasti::Result<tasti::data::LabelerOutput> TryLabel(size_t index) override;
  size_t num_records() const override { return inner_->num_records(); }
  size_t invocations() const override { return inner_->invocations(); }
  void ResetInvocations() override { inner_->ResetInvocations(); }
  double last_call_latency_ms() const override {
    return inner_->last_call_latency_ms();
  }

  void set_timing(bool on) { timing_.store(on, std::memory_order_relaxed); }
  size_t calls() const { return calls_.load(std::memory_order_relaxed); }
  size_t failed() const { return failed_.load(std::memory_order_relaxed); }
  double wait_seconds() const {
    return static_cast<double>(wait_ns_.load(std::memory_order_relaxed)) * 1e-9;
  }

 private:
  tasti::labeler::FallibleLabeler* inner_;
  std::atomic<bool> timing_{false};
  std::atomic<size_t> calls_{0};
  std::atomic<size_t> failed_{0};
  std::atomic<int64_t> wait_ns_{0};
};

/// Named metrics with units, in insertion order.
class MetricSet {
 public:
  void Add(const std::string& name, double value, const std::string& unit);
  /// {"name": {"value": v, "unit": "u"}, ...}
  std::string ToJson() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

/// Per-span-name totals over a trace. Self time is a span's duration minus
/// the durations of its direct children on the same thread; work a span
/// hands to other threads therefore counts as its own (waiting) time.
struct SpanTotals {
  double self_s = 0.0;
  double total_s = 0.0;
  size_t calls = 0;
};
std::map<std::string, SpanTotals> AggregateSpans(
    const std::vector<tasti::obs::TraceEvent>& events);

/// FNV-1a over the answers a workload produced.
class Digest {
 public:
  void Add(const void* data, size_t bytes);
  void AddU64(uint64_t v) { Add(&v, sizeof(v)); }
  void AddDouble(double v) { Add(&v, sizeof(v)); }
  void AddIds(const std::vector<size_t>& ids);
  std::string Hex() const;

 private:
  uint64_t hash_ = 1469598037103934603ULL;
};

/// Ground truth for a scorer, computed once per (dataset, scorer).
class Truth {
 public:
  explicit Truth(const tasti::data::Dataset* dataset) : dataset_(dataset) {}
  bool Matches(const tasti::core::Scorer& predicate, size_t record);
  size_t Positives(const tasti::core::Scorer& predicate);
  double Mean(const tasti::core::Scorer& statistic);
  /// Mean of `statistic` over records matching `predicate`; 0 if none.
  double MeanWhere(const tasti::core::Scorer& predicate,
                   const tasti::core::Scorer& statistic);

 private:
  const std::vector<double>& Scores(const tasti::core::Scorer& scorer);
  const tasti::data::Dataset* dataset_;
  std::map<const tasti::core::Scorer*, std::vector<double>> scores_;
};

/// Correctness and guarantee-coverage tallies for one run. A query fails
/// when its status is not OK or an answer check fails; guarantee misses
/// are legal with probability delta and only counted.
class Checker {
 public:
  Checker(const tasti::data::Dataset* dataset, Truth* truth)
      : dataset_(dataset), truth_(truth) {}

  /// Brackets the checks of one query.
  void BeginQuery() { ++attempted_; query_ok_ = true; }
  void EndQuery() { if (!query_ok_) ++failed_; }

  void Expect(bool ok, const std::string& what);
  /// Ids in range and unique.
  void CheckIds(const std::vector<size_t>& ids, const char* what);
  /// Every id truly matches the predicate.
  void CheckMatches(const std::vector<size_t>& ids,
                    const tasti::core::Scorer& predicate);
  void CoverInterval(double estimate, double half_width, double truth);
  void CoverRecall(const std::vector<size_t>& selected,
                   const tasti::core::Scorer& predicate, double target);
  void CoverPrecision(const std::vector<size_t>& selected,
                      const tasti::core::Scorer& predicate, double target);
  /// A run-level invariant (attribution); a failure fails every query.
  void ExpectInvariant(bool ok, const std::string& what);

  size_t attempted() const { return attempted_; }
  size_t failed() const { return invariant_ok_ ? failed_ : attempted_; }
  bool invariant_ok() const { return invariant_ok_; }
  size_t guarantees_checked() const { return guarantees_checked_; }
  size_t guarantees_met() const { return guarantees_met_; }

 private:
  const tasti::data::Dataset* dataset_;
  Truth* truth_;
  size_t attempted_ = 0;
  size_t failed_ = 0;
  bool query_ok_ = true;
  bool invariant_ok_ = true;
  size_t reported_ = 0;
  size_t guarantees_checked_ = 0;
  size_t guarantees_met_ = 0;
};

/// {"nproc": .., "compiler": .., "build_type": .., "tasti_native": ..,
///  "host_isa": [..]}
std::string EnvironmentJson();

/// Peak resident set of this process, in MiB.
double PeakRssMb();

}  // namespace perfbench

#endif  // TASTI_PERFBENCH_HARNESS_H_
