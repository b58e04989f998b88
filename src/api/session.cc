#include "api/session.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/status.h"
#include "util/timer.h"

namespace tasti::api {

namespace {

using queries::QueryKind;

std::string FmtDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%g", v);
  return buf;
}

// The query-log params column for one query.
std::string QueryParams(const queries::QuerySpec& spec) {
  const std::string predicate = "predicate=" + spec.scorer->Name();
  switch (spec.kind) {
    case QueryKind::kAggregate:
      return "scorer=" + spec.scorer->Name() +
             " error_target=" + FmtDouble(spec.error_target);
    case QueryKind::kAggregateWhere:
      return predicate + " statistic=" + spec.statistic->Name() +
             " error_target=" + FmtDouble(spec.error_target);
    case QueryKind::kSupgRecall:
      return predicate + " recall_target=" + FmtDouble(spec.target) +
             " budget=" + std::to_string(spec.budget);
    case QueryKind::kSupgPrecision:
      return predicate + " precision_target=" + FmtDouble(spec.target) +
             " budget=" + std::to_string(spec.budget);
    case QueryKind::kThresholdSelect:
      return predicate +
             " validation_budget=" + std::to_string(spec.validation_budget);
    case QueryKind::kLimit:
      return predicate + " want=" + std::to_string(spec.want);
  }
  return predicate;
}

// Trace span of a session query, indexed by QueryKind.
constexpr const char* kQuerySpans[] = {
    "query.aggregate",        "query.aggregate_where", "query.select_recall",
    "query.select_precision", "query.select",          "query.limit"};

}  // namespace

TastiSession::TastiSession(const data::Dataset* dataset,
                           labeler::TargetLabeler* labeler,
                           SessionOptions options)
    : dataset_(dataset), options_(std::move(options)) {
  TASTI_CHECK(dataset != nullptr, "TastiSession requires a dataset");
  TASTI_CHECK(labeler != nullptr, "TastiSession requires a labeler");
  TASTI_CHECK(labeler->num_records() == dataset->size(),
              "labeler/dataset record count mismatch");
  owned_adapter_ = std::make_unique<labeler::FallibleAdapter>(labeler);
  oracle_ = owned_adapter_.get();
}

TastiSession::TastiSession(const data::Dataset* dataset,
                           labeler::FallibleLabeler* oracle,
                           SessionOptions options)
    : dataset_(dataset), oracle_(oracle), options_(std::move(options)) {
  TASTI_CHECK(dataset != nullptr, "TastiSession requires a dataset");
  TASTI_CHECK(oracle != nullptr, "TastiSession requires an oracle");
  TASTI_CHECK(oracle->num_records() == dataset->size(),
              "oracle/dataset record count mismatch");
}

void TastiSession::EnsureIndex() {
  if (index_.has_value()) return;
  TASTI_SPAN("session.build_index");
  WallTimer timer;
  const size_t before = oracle_->invocations();
  labeler::CachingFallibleLabeler cache(oracle_);
  index_ = core::TastiIndex::Build(*dataset_, &cache, options_.index);
  index_invocations_ = oracle_->invocations() - before;
  total_invocations_ += index_invocations_;
  query_log_.RecordIndexBuild(index_invocations_, timer.Seconds());
}

uint64_t TastiSession::NextSeed() {
  return queries::DeriveQuerySeed(options_.seed,
                                  static_cast<uint64_t>(++queries_executed_));
}

const std::vector<double>& TastiSession::ProxyScores(
    const core::Scorer& scorer, core::PropagationMode mode) {
  EnsureIndex();
  const std::string key =
      scorer.Name() + "#" + std::to_string(static_cast<int>(mode));
  auto it = proxy_cache_.find(key);
  if (it == proxy_cache_.end()) {
    core::ProxyTimings timings;
    it = proxy_cache_
             .emplace(key, core::ComputeProxyScores(*index_, scorer, mode, {},
                                                    &timings))
             .first;
    last_proxy_timings_ = timings;
  }
  return it->second;
}

size_t TastiSession::RepairFailedReps() {
  if (!options_.repair_failed_reps ||
      index_->num_failed_representatives() == 0) {
    return 0;
  }
  TASTI_SPAN("session.repair_reps");
  const std::vector<size_t> positions =
      index_->failed_representative_positions();
  const std::vector<size_t> records = index_->failed_rep_record_ids();
  const size_t attempts =
      std::min(positions.size(), options_.max_rep_repairs_per_query);
  size_t repaired = 0;
  for (size_t i = 0; i < attempts; ++i) {
    Result<data::LabelerOutput> label = oracle_->TryLabel(records[i]);
    if (!label.ok()) continue;  // still failing; retried after a later query
    index_->RepairRepresentative(positions[i], *std::move(label));
    ++repaired;
  }
  reps_repaired_ += repaired;
  if (repaired > 0) {
    // Repaired representatives re-enter propagation.
    proxy_cache_.clear();
  }
  return repaired;
}

void TastiSession::FinishQuery(const labeler::CachingFallibleLabeler& cache,
                               size_t invocations_before,
                               const queries::QuerySpec& spec,
                               double algorithm_seconds, double oracle_seconds,
                               size_t failed_oracle_calls) {
  // Repairs run inside the query's accounting window so the attribution
  // invariant (index + sum of queries == oracle invocations) still holds.
  const size_t repaired = RepairFailedReps();
  const size_t query_invocations =
      oracle_->invocations() - invocations_before;
  total_invocations_ += query_invocations;

  size_t cracked = 0;
  double crack_seconds = 0.0;
  if (options_.auto_crack) {
    TASTI_SPAN("session.crack");
    WallTimer timer;
    cracked = index_->CrackFromLabels(cache.labeled_indices(),
                                      cache.labeled_outputs());
    crack_seconds = timer.Seconds();
    if (cracked > 0) {
      // New representatives change every propagated score.
      proxy_cache_.clear();
    }
  }

  obs::QueryRecord record;
  record.query_type = queries::QueryKindName(spec.kind);
  record.params = QueryParams(spec);
  record.phases.rep_score_seconds = last_proxy_timings_.rep_score_seconds;
  record.phases.propagation_seconds = last_proxy_timings_.propagation_seconds;
  record.phases.algorithm_seconds = algorithm_seconds;
  record.phases.oracle_seconds = oracle_seconds;
  record.phases.crack_seconds = crack_seconds;
  record.labeler_invocations = query_invocations;
  record.cracked_representatives = cracked;
  record.failed_oracle_calls = failed_oracle_calls;
  record.repaired_representatives = repaired;
  query_log_.AddQuery(std::move(record));

  if (obs::MetricsEnabled()) {
    static obs::Counter* const queries =
        obs::MetricsRegistry::Global().counter("session.queries", "queries");
    static obs::Counter* const invocations =
        obs::MetricsRegistry::Global().counter("session.query_invocations",
                                               "calls");
    static obs::Counter* const cracked_reps =
        obs::MetricsRegistry::Global().counter("session.cracked_reps",
                                               "representatives");
    static obs::Counter* const failed_calls =
        obs::MetricsRegistry::Global().counter("session.failed_oracle_calls",
                                               "calls");
    static obs::Counter* const repaired_reps =
        obs::MetricsRegistry::Global().counter("session.repaired_reps",
                                               "representatives");
    queries->Increment();
    invocations->Increment(query_invocations);
    cracked_reps->Increment(cracked);
    failed_calls->Increment(failed_oracle_calls);
    repaired_reps->Increment(repaired);
  }
}

queries::QueryAnswer TastiSession::Execute(const queries::QuerySpec& spec) {
  TASTI_SPAN(kQuerySpans[static_cast<size_t>(spec.kind)]);
  last_proxy_timings_ = {};
  const std::vector<double>& proxy =
      ProxyScores(*spec.scorer, queries::PropagationModeFor(spec.kind));
  const size_t before = oracle_->invocations();
  labeler::CachingFallibleLabeler cache(oracle_);
  const uint64_t seed = NextSeed();
  WallTimer algo_timer;
  obs::TimedOracle timed(&cache, &algo_timer);
  queries::QueryAnswer answer = queries::ExecuteQuery(
      spec, proxy, &timed, options_.confidence, seed);
  algo_timer.Pause();
  last_query_status_ = answer.status;
  size_t& failed = answer.failed_oracle_calls();
  if (!answer.status.ok()) failed = oracle_->invocations() - before;
  FinishQuery(cache, before, spec, algo_timer.Seconds(), timed.seconds(),
              failed);
  return answer;
}

queries::AggregationResult TastiSession::Aggregate(const core::Scorer& statistic,
                                                   double error_target) {
  return Execute({.kind = QueryKind::kAggregate,
                  .scorer = &statistic,
                  .error_target = error_target})
      .aggregate;
}

queries::PredicateAggregationResult TastiSession::AggregateWhere(
    const core::Scorer& predicate, const core::Scorer& statistic,
    double error_target) {
  return Execute({.kind = QueryKind::kAggregateWhere,
                  .scorer = &predicate,
                  .statistic = &statistic,
                  .error_target = error_target})
      .aggregate_where;
}

queries::SupgResult TastiSession::SelectWithRecall(const core::Scorer& predicate,
                                                   double recall_target,
                                                   size_t budget) {
  return Execute({.kind = QueryKind::kSupgRecall,
                  .scorer = &predicate,
                  .target = recall_target,
                  .budget = budget})
      .supg;
}

queries::SupgResult TastiSession::SelectWithPrecision(
    const core::Scorer& predicate, double precision_target, size_t budget) {
  return Execute({.kind = QueryKind::kSupgPrecision,
                  .scorer = &predicate,
                  .target = precision_target,
                  .budget = budget})
      .supg;
}

queries::ThresholdSelectResult TastiSession::Select(const core::Scorer& predicate,
                                                    size_t validation_budget) {
  return Execute({.kind = QueryKind::kThresholdSelect,
                  .scorer = &predicate,
                  .validation_budget = validation_budget})
      .select;
}

queries::LimitResult TastiSession::Limit(const core::Scorer& predicate,
                                         size_t want) {
  return Execute(
             {.kind = QueryKind::kLimit, .scorer = &predicate, .want = want})
      .limit;
}

double TastiSession::EstimateDirect(const core::Scorer& statistic) {
  TASTI_SPAN("query.estimate_direct");
  return queries::DirectAggregate(ProxyScores(statistic));
}

const core::TastiIndex& TastiSession::index() {
  EnsureIndex();
  return *index_;
}

core::TastiIndex& TastiSession::mutable_index() {
  EnsureIndex();
  return *index_;
}

}  // namespace tasti::api
