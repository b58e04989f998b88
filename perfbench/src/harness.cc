#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <thread>
#include <unordered_set>

namespace perfbench {

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 ? values[mid] : (values[mid - 1] + values[mid]) / 2;
}

tasti::Result<tasti::data::LabelerOutput> TimedOracle::TryLabel(size_t index) {
  calls_.fetch_add(1, std::memory_order_relaxed);
  const bool timing = timing_.load(std::memory_order_relaxed);
  const Clock::time_point start = timing ? Clock::now() : Clock::time_point{};
  auto result = inner_->TryLabel(index);
  if (timing) {
    wait_ns_.fetch_add(std::chrono::duration_cast<std::chrono::nanoseconds>(
                           Clock::now() - start)
                           .count(),
                       std::memory_order_relaxed);
  }
  if (!result.ok()) failed_.fetch_add(1, std::memory_order_relaxed);
  return result;
}

void MetricSet::Add(const std::string& name, double value,
                    const std::string& unit) {
  entries_.push_back({name, value, unit});
}

std::string MetricSet::ToJson() const {
  std::string out = "{";
  char buf[64];
  for (size_t i = 0; i < entries_.size(); ++i) {
    if (i > 0) out += ", ";
    std::snprintf(buf, sizeof(buf), "%.17g", entries_[i].value);
    out += "\"" + entries_[i].name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + entries_[i].unit + "\"}";
  }
  return out + "}";
}

std::map<std::string, SpanTotals> AggregateSpans(
    const std::vector<tasti::obs::TraceEvent>& events) {
  std::map<uint32_t, std::vector<const tasti::obs::TraceEvent*>> by_thread;
  for (const auto& event : events) by_thread[event.tid].push_back(&event);

  std::map<std::string, SpanTotals> totals;
  struct Open {
    const tasti::obs::TraceEvent* event;
    int64_t end_us;
    int64_t child_us;
  };
  auto close = [&totals](const Open& open) {
    SpanTotals& t = totals[open.event->name];
    t.total_s += static_cast<double>(open.event->dur_us) * 1e-6;
    t.self_s += static_cast<double>(open.event->dur_us - open.child_us) * 1e-6;
    ++t.calls;
  };
  for (auto& [tid, list] : by_thread) {
    // Parents first: earlier start, and at equal starts the longer span.
    std::sort(list.begin(), list.end(), [](const auto* a, const auto* b) {
      if (a->ts_us != b->ts_us) return a->ts_us < b->ts_us;
      return a->dur_us > b->dur_us;
    });
    std::vector<Open> stack;
    for (const auto* event : list) {
      const int64_t end_us = event->ts_us + event->dur_us;
      while (!stack.empty() && stack.back().end_us <= event->ts_us) {
        close(stack.back());
        stack.pop_back();
      }
      if (!stack.empty()) stack.back().child_us += event->dur_us;
      stack.push_back({event, end_us, 0});
    }
    while (!stack.empty()) {
      close(stack.back());
      stack.pop_back();
    }
  }
  return totals;
}

void Digest::Add(const void* data, size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < bytes; ++i) {
    hash_ ^= p[i];
    hash_ *= 1099511628211ULL;
  }
}

void Digest::AddIds(const std::vector<size_t>& ids) {
  AddU64(ids.size());
  for (size_t id : ids) AddU64(id);
}

std::string Digest::Hex() const {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(hash_));
  return buf;
}

const std::vector<double>& Truth::Scores(const tasti::core::Scorer& scorer) {
  auto it = scores_.find(&scorer);
  if (it != scores_.end()) return it->second;
  std::vector<double> scores(dataset_->size());
  for (size_t i = 0; i < scores.size(); ++i) {
    scores[i] = scorer.Score(dataset_->ground_truth[i]);
  }
  return scores_.emplace(&scorer, std::move(scores)).first->second;
}

// Predicates match at score >= 0.5, the convention of every selection and
// limit algorithm in src/queries.
bool Truth::Matches(const tasti::core::Scorer& predicate, size_t record) {
  return Scores(predicate)[record] >= 0.5;
}

size_t Truth::Positives(const tasti::core::Scorer& predicate) {
  const std::vector<double>& scores = Scores(predicate);
  return static_cast<size_t>(
      std::count_if(scores.begin(), scores.end(),
                    [](double s) { return s >= 0.5; }));
}

double Truth::Mean(const tasti::core::Scorer& statistic) {
  const std::vector<double>& scores = Scores(statistic);
  double sum = 0.0;
  for (double s : scores) sum += s;
  return scores.empty() ? 0.0 : sum / static_cast<double>(scores.size());
}

double Truth::MeanWhere(const tasti::core::Scorer& predicate,
                        const tasti::core::Scorer& statistic) {
  const std::vector<double>& pred = Scores(predicate);
  const std::vector<double>& stat = Scores(statistic);
  double sum = 0.0;
  size_t n = 0;
  for (size_t i = 0; i < pred.size(); ++i) {
    if (pred[i] >= 0.5) {
      sum += stat[i];
      ++n;
    }
  }
  return n == 0 ? 0.0 : sum / static_cast<double>(n);
}

void Checker::Expect(bool ok, const std::string& what) {
  if (ok) return;
  query_ok_ = false;
  // The first few failures go to stderr; the count goes into the result.
  if (reported_++ < 10) std::fprintf(stderr, "check failed: %s\n", what.c_str());
}

void Checker::CheckIds(const std::vector<size_t>& ids, const char* what) {
  std::unordered_set<size_t> seen;
  for (size_t id : ids) {
    if (id >= dataset_->size() || !seen.insert(id).second) {
      Expect(false, std::string(what) + ": id " + std::to_string(id) +
                        " out of range or repeated");
      return;
    }
  }
}

void Checker::CheckMatches(const std::vector<size_t>& ids,
                           const tasti::core::Scorer& predicate) {
  CheckIds(ids, "limit");
  for (size_t id : ids) {
    if (id < dataset_->size() && !truth_->Matches(predicate, id)) {
      Expect(false, "limit: record " + std::to_string(id) + " does not match " +
                        predicate.Name());
      return;
    }
  }
}

void Checker::CoverInterval(double estimate, double half_width, double truth) {
  ++guarantees_checked_;
  // Relative slack absorbs floating-point rounding at the interval edge.
  if (std::fabs(estimate - truth) <= half_width * (1 + 1e-9) + 1e-12) {
    ++guarantees_met_;
  }
}

void Checker::CoverRecall(const std::vector<size_t>& selected,
                          const tasti::core::Scorer& predicate, double target) {
  const size_t positives = truth_->Positives(predicate);
  if (positives == 0) return;
  size_t found = 0;
  for (size_t id : selected) {
    if (id < dataset_->size() && truth_->Matches(predicate, id)) ++found;
  }
  ++guarantees_checked_;
  if (static_cast<double>(found) >= target * static_cast<double>(positives)) {
    ++guarantees_met_;
  }
}

void Checker::CoverPrecision(const std::vector<size_t>& selected,
                             const tasti::core::Scorer& predicate,
                             double target) {
  if (selected.empty()) return;
  size_t hits = 0;
  for (size_t id : selected) {
    if (id < dataset_->size() && truth_->Matches(predicate, id)) ++hits;
  }
  ++guarantees_checked_;
  if (static_cast<double>(hits) >=
      target * static_cast<double>(selected.size())) {
    ++guarantees_met_;
  }
}

void Checker::ExpectInvariant(bool ok, const std::string& what) {
  if (ok) return;
  invariant_ok_ = false;
  std::fprintf(stderr, "invariant failed: %s\n", what.c_str());
}

std::string EnvironmentJson() {
  std::string isa;
  auto add = [&isa](const char* name, bool on) {
    if (!on) return;
    if (!isa.empty()) isa += ", ";
    isa += std::string("\"") + name + "\"";
  };
#if defined(__x86_64__) || defined(__i386__)
  __builtin_cpu_init();
  add("sse4.2", __builtin_cpu_supports("sse4.2"));
  add("avx", __builtin_cpu_supports("avx"));
  add("avx2", __builtin_cpu_supports("avx2"));
  add("fma", __builtin_cpu_supports("fma"));
  add("avx512f", __builtin_cpu_supports("avx512f"));
  add("avx512bw", __builtin_cpu_supports("avx512bw"));
  add("avx512vl", __builtin_cpu_supports("avx512vl"));
#endif
  return std::string("{\"nproc\": ") +
         std::to_string(std::thread::hardware_concurrency()) +
         ", \"compiler\": \"" PERFBENCH_COMPILER "\", \"build_type\": \"" +
         PERFBENCH_BUILD_TYPE "\", \"tasti_native\": \"" +
         PERFBENCH_TASTI_NATIVE "\", \"host_isa\": [" + isa + "]}";
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace perfbench
