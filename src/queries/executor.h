#ifndef TASTI_QUERIES_EXECUTOR_H_
#define TASTI_QUERIES_EXECUTOR_H_

/// \file executor.h
/// The one query-execution path (paper Section 1, step 5): a QuerySpec
/// names one of the six query algorithms and its parameters, and
/// ExecuteQuery runs it over a proxy-score vector against an oracle.
///
/// Every caller goes through here — api::TastiSession synchronously, with
/// its own proxy cache and labeler accounting; serve::TastiServer on a
/// worker pool, behind its scheduler, score cache and deadline chain — so
/// the per-kind option wiring and failure handling exist once. What a
/// caller does around the call (proxy scores before, cracking after) stays
/// with the caller.

#include <cstdint>
#include <vector>

#include "core/propagation.h"
#include "core/scorer.h"
#include "labeler/labeler.h"
#include "queries/aggregation.h"
#include "queries/limit.h"
#include "queries/noguarantee.h"
#include "queries/predicate_aggregation.h"
#include "queries/supg.h"
#include "serve/deadline.h"
#include "serve/shedder.h"
#include "util/status.h"

namespace tasti::queries {

enum class QueryKind {
  kAggregate,
  kAggregateWhere,
  kSupgRecall,
  kSupgPrecision,
  kThresholdSelect,
  kLimit,
};

const char* QueryKindName(QueryKind kind);

/// Limit queries rank records by kLimit propagation; every other kind
/// consumes numeric proxy scores.
inline core::PropagationMode PropagationModeFor(QueryKind kind) {
  return kind == QueryKind::kLimit ? core::PropagationMode::kLimit
                                   : core::PropagationMode::kNumeric;
}

/// Deterministic per-query seed: the stream query number `n` (1-based)
/// draws under base seed `base`. A session numbers its queries in call
/// order and a server by query id, so a served query with a known id draws
/// the same randomness regardless of scheduling interleaving.
inline uint64_t DeriveQuerySeed(uint64_t base, uint64_t n) {
  return base * 2654435761ULL + n * 97;
}

/// One query request. Scorer pointers must outlive the query's execution.
struct QuerySpec {
  QueryKind kind = QueryKind::kAggregate;
  /// The statistic (aggregate) or predicate (everything else).
  const core::Scorer* scorer = nullptr;
  /// The statistic for kAggregateWhere (scorer is then the predicate).
  const core::Scorer* statistic = nullptr;
  double error_target = 0.05;   ///< aggregate / aggregate_where
  double target = 0.9;          ///< recall or precision target (SUPG)
  size_t budget = 500;          ///< SUPG oracle budget
  size_t validation_budget = 100;  ///< threshold select
  size_t want = 10;             ///< limit
  /// Client issuing the query (server per-client concurrency slots).
  uint64_t client_id = 0;
  /// Priority class for the server's admission-time load shedding
  /// (serve/shedder.h).
  serve::QueryPriority priority = serve::QueryPriority::kInteractive;
  /// Latency budget in ms; 0 = unbounded. Served queries account it in
  /// virtual time when degrade.virtual_ms_per_call > 0, wall time
  /// otherwise. On expiry the query stops at the next phase boundary and
  /// returns a degraded (wider-interval / partial) answer instead of
  /// running over.
  double deadline_ms = 0.0;
};

/// What ExecuteQuery produced. The member matching `kind` carries the
/// payload; the rest are default-constructed.
struct QueryAnswer {
  QueryKind kind = QueryKind::kAggregate;
  /// OK when the query produced a usable (possibly degraded) result; on an
  /// error the payload is default-constructed.
  Status status = Status::OK();

  AggregationResult aggregate;
  PredicateAggregationResult aggregate_where;
  SupgResult supg;
  ThresholdSelectResult select;
  LimitResult limit;

  /// True when the query's deadline expired mid-execution (or before the
  /// first sample, in which case status is DeadlineExceeded).
  bool deadline_hit = false;

  /// The failed_oracle_calls counter of the payload matching `kind`.
  size_t& failed_oracle_calls();
};

/// Runs `spec` over `proxy_scores` (propagated with
/// PropagationModeFor(spec.kind)), charging `oracle`. `confidence` applies
/// to the guarantee-carrying kinds and `seed` to the sampling ones;
/// `deadline` is checked at each algorithm's phase boundaries. Fails with
/// FailedPrecondition when the proxy scores and the oracle cover different
/// record counts — e.g. records appended to the index that the oracle
/// cannot label — instead of aborting.
QueryAnswer ExecuteQuery(const QuerySpec& spec,
                         const std::vector<double>& proxy_scores,
                         labeler::FallibleLabeler* oracle, double confidence,
                         uint64_t seed, const serve::Deadline& deadline = {});

}  // namespace tasti::queries

#endif  // TASTI_QUERIES_EXECUTOR_H_
