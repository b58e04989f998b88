#include "labeler/resilient.h"

#include <algorithm>
#include <string>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace tasti::labeler {

namespace {

void CountMetric(const char* name) {
  if (!obs::MetricsEnabled()) return;
  obs::MetricsRegistry::Global().counter(name, "calls")->Increment();
}

void SetBreakerGauge(BreakerState state) {
  if (!obs::MetricsEnabled()) return;
  static obs::Gauge* const gauge =
      obs::MetricsRegistry::Global().gauge("oracle.breaker.state", "state");
  gauge->Set(static_cast<double>(state));
}

}  // namespace

ResilientLabeler::ResilientLabeler(FallibleLabeler* inner, Options options)
    : inner_(inner), options_(options), jitter_rng_(options.seed) {
  TASTI_CHECK(inner != nullptr, "ResilientLabeler requires an inner labeler");
  TASTI_CHECK(options_.retry.max_attempts >= 1,
              "RetryPolicy.max_attempts must be >= 1");
  SetBreakerGauge(breaker_state_);
}

bool ResilientLabeler::IsRetryable(StatusCode code) {
  return code == StatusCode::kUnavailable ||
         code == StatusCode::kDeadlineExceeded ||
         code == StatusCode::kResourceExhausted;
}

void ResilientLabeler::TransitionBreaker(BreakerState next) {
  if (breaker_state_ == next) return;
  breaker_state_ = next;
  switch (next) {
    case BreakerState::kOpen:
      ++stats_.breaker_opens;
      breaker_opened_at_ms_ = now_ms_;
      CountMetric("oracle.breaker.opens");
      break;
    case BreakerState::kHalfOpen:
      ++stats_.breaker_half_opens;
      half_open_successes_ = 0;
      CountMetric("oracle.breaker.half_opens");
      break;
    case BreakerState::kClosed:
      ++stats_.breaker_closes;
      consecutive_failures_ = 0;
      CountMetric("oracle.breaker.closes");
      break;
  }
  SetBreakerGauge(next);
  if (options_.on_breaker_transition) options_.on_breaker_transition(next);
}

void ResilientLabeler::RecordAttemptOutcome(bool success) {
  if (!options_.breaker.enabled) return;
  if (success) {
    consecutive_failures_ = 0;
    if (breaker_state_ == BreakerState::kHalfOpen) {
      if (++half_open_successes_ >= options_.breaker.half_open_successes) {
        TransitionBreaker(BreakerState::kClosed);
      }
    }
    return;
  }
  ++consecutive_failures_;
  if (breaker_state_ == BreakerState::kHalfOpen) {
    // A probe failed: reopen and restart the cooldown.
    TransitionBreaker(BreakerState::kOpen);
    return;
  }
  if (breaker_state_ == BreakerState::kClosed &&
      consecutive_failures_ >= options_.breaker.failure_threshold) {
    TransitionBreaker(BreakerState::kOpen);
  }
}

Result<data::LabelerOutput> ResilientLabeler::TryLabel(size_t index) {
  std::lock_guard<std::mutex> lock(mu_);
  return TryLabelLocked(index, 0.0);
}

Result<data::LabelerOutput> ResilientLabeler::TryLabelWithin(size_t index,
                                                             double budget_ms) {
  std::lock_guard<std::mutex> lock(mu_);
  return TryLabelLocked(index, budget_ms);
}

Result<data::LabelerOutput> ResilientLabeler::TryLabelLocked(
    size_t index, double caller_budget_ms) {
  TASTI_SPAN("oracle.try_label");
  ++stats_.calls;
  CountMetric("oracle.calls");
  const double call_start_ms = now_ms_;
  // Effective per-call deadline: the tighter of the policy's own budget
  // and whatever the caller has left (0 = unbounded for both).
  double deadline_ms = options_.retry.call_deadline_ms;
  if (caller_budget_ms > 0.0 &&
      (deadline_ms <= 0.0 || caller_budget_ms < deadline_ms)) {
    deadline_ms = caller_budget_ms;
  }

  double backoff_ms = options_.retry.initial_backoff_ms;
  Status last_error = Status::Unavailable("oracle: no attempt made");
  for (size_t attempt = 0; attempt < options_.retry.max_attempts; ++attempt) {
    // Breaker gate: while open, reject without touching the oracle until
    // the cooldown elapses, then let one probe through (half-open).
    if (options_.breaker.enabled && breaker_state_ == BreakerState::kOpen) {
      if (now_ms_ - breaker_opened_at_ms_ >= options_.breaker.cooldown_ms) {
        TransitionBreaker(BreakerState::kHalfOpen);
      } else {
        ++stats_.rejected_by_breaker;
        CountMetric("oracle.breaker.rejections");
        last_call_ms_ = now_ms_ - call_start_ms;
        ++stats_.failures;
        CountMetric("oracle.failures");
        return Status::Unavailable("oracle: circuit breaker open");
      }
    }

    if (attempt > 0) {
      const double jitter =
          1.0 + options_.retry.jitter_fraction * (2.0 * jitter_rng_.Uniform() - 1.0);
      const double sleep_ms = backoff_ms * jitter;
      // Never sleep past the deadline: if this backoff would overrun it,
      // fail now instead of burning budget the caller no longer has.
      if (deadline_ms > 0.0 &&
          now_ms_ - call_start_ms + sleep_ms >= deadline_ms) {
        last_error = Status::DeadlineExceeded(
            "oracle: backoff would overrun the call deadline after " +
            std::to_string(attempt) + " attempts (" + last_error.ToString() +
            ")");
        break;
      }
      ++stats_.retries;
      CountMetric("oracle.retries");
      now_ms_ += sleep_ms;
      backoff_ms = std::min(backoff_ms * options_.retry.backoff_multiplier,
                            options_.retry.max_backoff_ms);
    }

    ++stats_.attempts;
    CountMetric("oracle.attempts");
    Result<data::LabelerOutput> r = inner_->TryLabel(index);
    now_ms_ += inner_->last_call_latency_ms();
    RecordAttemptOutcome(r.ok());

    if (r.ok()) {
      ++stats_.successes;
      CountMetric("oracle.successes");
      last_call_ms_ = now_ms_ - call_start_ms;
      return r;
    }
    last_error = r.status();
    if (!IsRetryable(last_error.code())) break;
    if (deadline_ms > 0.0 && now_ms_ - call_start_ms >= deadline_ms) {
      last_error = Status::DeadlineExceeded(
          "oracle: call deadline exhausted after " +
          std::to_string(attempt + 1) + " attempts (" + last_error.ToString() +
          ")");
      break;
    }
  }

  ++stats_.failures;
  CountMetric("oracle.failures");
  last_call_ms_ = now_ms_ - call_start_ms;
  return last_error;
}

BatchResult ResilientLabeler::TryLabelBatch(const std::vector<size_t>& indices) {
  TASTI_SPAN("oracle.try_label_batch");
  std::lock_guard<std::mutex> lock(mu_);
  BatchResult result;
  result.labels.reserve(indices.size());
  const size_t attempts_before = stats_.attempts;
  for (size_t pos = 0; pos < indices.size(); ++pos) {
    Result<data::LabelerOutput> r = TryLabelLocked(indices[pos], 0.0);
    if (r.ok()) {
      result.labels.push_back(std::move(r).value());
    } else {
      result.labels.push_back(std::nullopt);
      result.failed.push_back(pos);
    }
  }
  result.attempts = stats_.attempts - attempts_before;
  return result;
}

CachingFallibleLabeler::CachingFallibleLabeler(FallibleLabeler* inner)
    : inner_(inner) {
  TASTI_CHECK(inner != nullptr,
              "CachingFallibleLabeler requires an inner labeler");
  cache_.resize(inner->num_records());
}

Result<data::LabelerOutput> CachingFallibleLabeler::TryLabel(size_t index) {
  return TryLabelWithin(index, 0.0);
}

Result<data::LabelerOutput> CachingFallibleLabeler::TryLabelWithin(
    size_t index, double budget_ms) {
  TASTI_CHECK(index < cache_.size(), "label index out of range");
  if (cache_[index].has_value()) {
    last_was_hit_ = true;
    return *cache_[index];
  }
  last_was_hit_ = false;
  Result<data::LabelerOutput> r = inner_->TryLabelWithin(index, budget_ms);
  if (r.ok()) {
    cache_[index] = r.value();
    labeled_order_.push_back(index);
  }
  return r;
}

std::vector<data::LabelerOutput> CachingFallibleLabeler::labeled_outputs()
    const {
  std::vector<data::LabelerOutput> outputs;
  outputs.reserve(labeled_order_.size());
  for (size_t index : labeled_order_) outputs.push_back(*cache_[index]);
  return outputs;
}

void CachingFallibleLabeler::ClearCache() {
  cache_.assign(cache_.size(), std::nullopt);
  labeled_order_.clear();
}

}  // namespace tasti::labeler
