#ifndef TASTI_API_SESSION_H_
#define TASTI_API_SESSION_H_

/// \file session.h
/// TastiSession: the one-object API a downstream application uses.
///
/// A session owns one TASTI index over a dataset and exposes the paper's
/// query types as single calls. It handles everything the paper describes
/// around the index automatically:
///  - lazy construction on first query (charging the target labeler),
///  - proxy-score caching per (scorer, propagation) pair,
///  - index cracking after every query (paper Section 3.3): each query's
///    target-labeler annotations become new representatives, so queries
///    get cheaper over time,
///  - labeler-invocation accounting across the session.
///
///   labeler::SimulatedLabeler oracle(&dataset);
///   api::TastiSession session(&dataset, &oracle, {});
///   auto agg = session.Aggregate(core::CountScorer(kCar), 0.05);
///   auto sel = session.SelectWithRecall(core::PresenceScorer(kCar), 0.9, 500);
///   auto lim = session.Limit(core::AtLeastCountScorer(kCar, 5), 10);

#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/index.h"
#include "core/proxy.h"
#include "core/scorer.h"
#include "data/dataset.h"
#include "labeler/labeler.h"
#include "labeler/resilient.h"
#include "obs/query_log.h"
#include "queries/executor.h"

namespace tasti::api {

/// Session-wide configuration.
struct SessionOptions {
  /// Index construction parameters (N1/N2/k/...).
  core::IndexOptions index;
  /// Crack the index with each query's annotations (recommended).
  bool auto_crack = true;
  /// Re-attempt oracle annotation of failed representatives after each
  /// query (self-healing; only relevant with a fallible oracle).
  bool repair_failed_reps = true;
  /// Cap on repair attempts per query, bounding the extra oracle cost.
  size_t max_rep_repairs_per_query = 16;
  /// Success probability shared by all guarantee-carrying queries.
  double confidence = 0.95;
  /// Base seed; each query perturbs it deterministically.
  uint64_t seed = 1234;
};

/// One TASTI index + query processing, behind a single object.
/// Not thread-safe; use one session per thread.
class TastiSession {
 public:
  /// The dataset and labeler must outlive the session.
  TastiSession(const data::Dataset* dataset, labeler::TargetLabeler* labeler,
               SessionOptions options);

  /// Fallible-oracle session: queries run degraded when oracle calls fail
  /// (see last_query_status()), the index builds with placeholder labels
  /// for failed representatives, and cracking repairs them over time. The
  /// dataset and oracle must outlive the session.
  TastiSession(const data::Dataset* dataset, labeler::FallibleLabeler* oracle,
               SessionOptions options);

  // --- Queries (each consumes target-labeler invocations) ---

  /// Runs any query kind through the shared executor (queries/executor.h),
  /// the same path serve::TastiServer::Execute takes. The session's own
  /// proxy cache supplies the scores; the labels bought crack the index
  /// afterwards. Deadlines, client ids and priorities in `spec` are serving
  /// concerns and are ignored here. The typed methods below wrap this.
  queries::QueryAnswer Execute(const queries::QuerySpec& spec);

  /// Mean of `statistic` over all records, within `error_target` with the
  /// session confidence (BlazeIt-style EBS with the index's proxy).
  queries::AggregationResult Aggregate(const core::Scorer& statistic,
                                       double error_target);

  /// Mean of `statistic` over records matching `predicate`.
  queries::PredicateAggregationResult AggregateWhere(
      const core::Scorer& predicate, const core::Scorer& statistic,
      double error_target);

  /// Recall-target selection (SUPG): returns >= `recall_target` of all
  /// matches with the session confidence, spending `budget` labeler calls.
  queries::SupgResult SelectWithRecall(const core::Scorer& predicate,
                                       double recall_target, size_t budget);

  /// Precision-target selection (SUPG).
  queries::SupgResult SelectWithPrecision(const core::Scorer& predicate,
                                          double precision_target,
                                          size_t budget);

  /// Selection without guarantees: threshold fit on a labeled validation
  /// sample (NoScope-style).
  queries::ThresholdSelectResult Select(const core::Scorer& predicate,
                                        size_t validation_budget);

  /// Find `want` records matching `predicate`, examining proxy-ranked
  /// records with the labeler.
  queries::LimitResult Limit(const core::Scorer& predicate, size_t want);

  /// Direct (no-guarantee, zero-labeler-call) estimate of the mean of
  /// `statistic`: the mean of its proxy scores.
  double EstimateDirect(const core::Scorer& statistic);

  // --- Introspection ---

  /// The underlying index; builds it if no query has run yet.
  const core::TastiIndex& index();

  /// Mutable access for advanced uses (streaming AppendRecords, manual
  /// cracking). Invalidate cached proxies afterwards with
  /// InvalidateProxyCache().
  core::TastiIndex& mutable_index();

  /// Drops cached proxy scores (call after mutating the index directly).
  void InvalidateProxyCache() { proxy_cache_.clear(); }

  /// True once the index has been constructed.
  bool index_built() const { return index_.has_value(); }

  /// Target-labeler invocations consumed so far (index + all queries).
  size_t total_labeler_invocations() const { return total_invocations_; }

  /// Labeler invocations spent on index construction only.
  size_t index_invocations() const { return index_invocations_; }

  /// Queries executed so far.
  size_t queries_executed() const { return queries_executed_; }

  /// Status of the most recent query. OK when the query produced a usable
  /// (possibly degraded) result; an error — e.g. Unavailable when every
  /// oracle call failed — means the returned result was a default value.
  const Status& last_query_status() const { return last_query_status_; }

  /// Failed representatives repaired across the session so far.
  size_t representatives_repaired() const { return reps_repaired_; }

  /// Per-query cost ledger: one record per query with wall time split by
  /// phase, labeler invocations attributed to that query, and their price
  /// under the Table-1 cost model. The attribution invariant
  /// (index + sum of queries == labeler->invocations()) holds when the
  /// labeler entered the session with a zero invocation counter.
  const obs::QueryLog& query_log() const { return query_log_; }
  obs::QueryLog& mutable_query_log() { return query_log_; }

  /// Proxy scores for a scorer (cached until the next crack).
  const std::vector<double>& ProxyScores(
      const core::Scorer& scorer,
      core::PropagationMode mode = core::PropagationMode::kNumeric);

 private:
  void EnsureIndex();
  uint64_t NextSeed();
  // Re-attempts oracle annotation of failed representatives (capped by
  // max_rep_repairs_per_query). Returns the number repaired.
  size_t RepairFailedReps();
  // Runs after every query: repairs failed representatives (their oracle
  // cost is attributed to this query), accounts the oracle calls the query
  // consumed, cracks the index with the query's labels, invalidates cached
  // proxies if anything changed, and appends the query's record to the
  // log. `algorithm_seconds` is pure algorithm time (the TimedOracle
  // pauses the timer inside oracle calls); `oracle_seconds` is the wall
  // time inside those calls.
  void FinishQuery(const labeler::CachingFallibleLabeler& cache,
                   size_t invocations_before, const queries::QuerySpec& spec,
                   double algorithm_seconds, double oracle_seconds,
                   size_t failed_oracle_calls);

  const data::Dataset* dataset_;
  labeler::FallibleLabeler* oracle_ = nullptr;
  // Owns the adapter when the session was built from a TargetLabeler.
  std::unique_ptr<labeler::FallibleAdapter> owned_adapter_;
  SessionOptions options_;
  std::optional<core::TastiIndex> index_;
  std::unordered_map<std::string, std::vector<double>> proxy_cache_;
  size_t total_invocations_ = 0;
  size_t index_invocations_ = 0;
  size_t queries_executed_ = 0;
  size_t reps_repaired_ = 0;
  Status last_query_status_ = Status::OK();
  obs::QueryLog query_log_;
  // Proxy phase times of the current query; zero when ProxyScores hits
  // its cache. Reset by Execute before calling ProxyScores.
  core::ProxyTimings last_proxy_timings_;
};

}  // namespace tasti::api

#endif  // TASTI_API_SESSION_H_
