#include "queries/executor.h"

#include <string>
#include <utility>

namespace tasti::queries {

namespace {

// Moves one algorithm's outcome into the answer's slot for its kind.
template <typename Payload>
void Take(Result<Payload> r, QueryAnswer* answer, Payload* slot) {
  answer->status = r.status();
  if (!r.ok()) return;
  *slot = std::move(r).value();
  answer->deadline_hit = slot->deadline_hit;
}

}  // namespace

const char* QueryKindName(QueryKind kind) {
  switch (kind) {
    case QueryKind::kAggregate: return "aggregate";
    case QueryKind::kAggregateWhere: return "aggregate_where";
    case QueryKind::kSupgRecall: return "supg_recall";
    case QueryKind::kSupgPrecision: return "supg_precision";
    case QueryKind::kThresholdSelect: return "threshold_select";
    case QueryKind::kLimit: return "limit";
  }
  return "unknown";
}

size_t& QueryAnswer::failed_oracle_calls() {
  switch (kind) {
    case QueryKind::kAggregate: return aggregate.failed_oracle_calls;
    case QueryKind::kAggregateWhere: return aggregate_where.failed_oracle_calls;
    case QueryKind::kSupgRecall:
    case QueryKind::kSupgPrecision: return supg.failed_oracle_calls;
    case QueryKind::kThresholdSelect: return select.failed_oracle_calls;
    case QueryKind::kLimit: return limit.failed_oracle_calls;
  }
  return aggregate.failed_oracle_calls;
}

QueryAnswer ExecuteQuery(const QuerySpec& spec,
                         const std::vector<double>& proxy_scores,
                         labeler::FallibleLabeler* oracle, double confidence,
                         uint64_t seed, const serve::Deadline& deadline) {
  QueryAnswer answer;
  answer.kind = spec.kind;
  if (proxy_scores.size() != oracle->num_records()) {
    answer.status = Status::FailedPrecondition(
        "proxy scores cover " + std::to_string(proxy_scores.size()) +
        " records but the oracle labels " +
        std::to_string(oracle->num_records()));
    return answer;
  }
  switch (spec.kind) {
    case QueryKind::kAggregate: {
      AggregationOptions opts;
      opts.error_target = spec.error_target;
      opts.confidence = confidence;
      opts.seed = seed;
      opts.deadline = deadline;
      Take(TryEstimateMean(proxy_scores, oracle, *spec.scorer, opts), &answer,
           &answer.aggregate);
      break;
    }
    case QueryKind::kAggregateWhere: {
      PredicateAggregationOptions opts;
      opts.error_target = spec.error_target;
      opts.confidence = confidence;
      opts.seed = seed;
      opts.deadline = deadline;
      Take(TryEstimateMeanWithPredicate(proxy_scores, oracle, *spec.scorer,
                                        *spec.statistic, opts),
           &answer, &answer.aggregate_where);
      break;
    }
    case QueryKind::kSupgRecall: {
      SupgOptions opts;
      opts.recall_target = spec.target;
      opts.confidence = confidence;
      opts.budget = spec.budget;
      opts.seed = seed;
      opts.deadline = deadline;
      Take(TrySupgRecallSelect(proxy_scores, oracle, *spec.scorer, opts),
           &answer, &answer.supg);
      break;
    }
    case QueryKind::kSupgPrecision: {
      SupgPrecisionOptions opts;
      opts.precision_target = spec.target;
      opts.confidence = confidence;
      opts.budget = spec.budget;
      opts.seed = seed;
      opts.deadline = deadline;
      Take(TrySupgPrecisionSelect(proxy_scores, oracle, *spec.scorer, opts),
           &answer, &answer.supg);
      break;
    }
    case QueryKind::kThresholdSelect: {
      ThresholdSelectOptions opts;
      opts.validation_budget = spec.validation_budget;
      opts.seed = seed;
      opts.deadline = deadline;
      Take(TryThresholdSelect(proxy_scores, oracle, *spec.scorer, opts),
           &answer, &answer.select);
      break;
    }
    case QueryKind::kLimit: {
      LimitOptions opts;
      opts.want = spec.want;
      opts.deadline = deadline;
      Take(TryLimitQuery(proxy_scores, oracle, *spec.scorer, opts), &answer,
           &answer.limit);
      break;
    }
  }
  if (answer.status.code() == StatusCode::kDeadlineExceeded) {
    // Expired before any sample: no payload, but the cause is recorded.
    answer.deadline_hit = true;
  }
  return answer;
}

}  // namespace tasti::queries
