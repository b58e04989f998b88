#ifndef TASTI_LABELER_RESILIENT_H_
#define TASTI_LABELER_RESILIENT_H_

/// \file resilient.h
/// Resilient oracle invocation: retries with exponential backoff and
/// deterministic jitter, a closed/open/half-open circuit breaker, and
/// batch invocation with partial-failure results.
///
/// Time is virtual: the wrapper advances an internal clock by the inner
/// labeler's reported call latency and by every backoff sleep, so retry
/// deadlines and breaker cooldowns are deterministic and tests run at full
/// speed with no real sleeping.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <vector>

#include "data/schema.h"
#include "labeler/labeler.h"
#include "util/random.h"
#include "util/status.h"

namespace tasti::labeler {

/// Retry configuration for one logical TryLabel call.
struct RetryPolicy {
  /// Total attempts per call, including the first (>= 1).
  size_t max_attempts = 4;
  double initial_backoff_ms = 10.0;
  double backoff_multiplier = 2.0;
  double max_backoff_ms = 1000.0;
  /// Backoff is scaled by a deterministic factor in [1-j, 1+j].
  double jitter_fraction = 0.2;
  /// Budget in virtual ms for the whole call including retries and
  /// backoff; 0 disables the deadline.
  double call_deadline_ms = 0.0;
};

/// Circuit breaker configuration.
struct BreakerPolicy {
  bool enabled = true;
  /// Consecutive failed attempts that trip the breaker open.
  size_t failure_threshold = 8;
  /// Virtual ms the breaker stays open before probing (half-open).
  double cooldown_ms = 500.0;
  /// Consecutive half-open successes required to close again.
  size_t half_open_successes = 2;
};

enum class BreakerState { kClosed, kOpen, kHalfOpen };

/// Running tallies of the wrapper's behavior.
struct ResilienceStats {
  size_t calls = 0;              ///< logical TryLabel calls
  size_t attempts = 0;           ///< physical attempts against the inner oracle
  size_t retries = 0;            ///< attempts beyond the first
  size_t successes = 0;          ///< calls that returned a label
  size_t failures = 0;           ///< calls that exhausted retries or hit the deadline
  size_t rejected_by_breaker = 0;  ///< calls refused while the breaker was open
  size_t breaker_opens = 0;
  size_t breaker_half_opens = 0;
  size_t breaker_closes = 0;
};

/// Result of a batch invocation: per-index labels where available, plus
/// which positions failed.
struct BatchResult {
  /// Parallel to the requested indices; nullopt where the call failed.
  std::vector<std::optional<data::LabelerOutput>> labels;
  /// Positions (into the request) whose call failed.
  std::vector<size_t> failed;
  /// Physical attempts spent on the batch.
  size_t attempts = 0;

  size_t num_succeeded() const { return labels.size() - failed.size(); }
};

/// Wraps a FallibleLabeler in retry + circuit-breaker logic.
///
/// Retryable codes are Unavailable, DeadlineExceeded, and
/// ResourceExhausted; anything else (notably FailedPrecondition from a
/// permanently-dead record) fails the call immediately. invocations()
/// passes through to the inner labeler so failed attempts keep counting
/// toward the paper's cost metric.
///
/// Thread-safety: TryLabel / TryLabelBatch / AdvanceVirtualTime serialize
/// through an internal mutex, so the serving layer's oracle scheduler may
/// share one wrapper across queries (calls are serialized — the breaker
/// and virtual clock are a single shared state machine by design). The
/// stats()/breaker_state() accessors return unsynchronized reads; read
/// them quiescent (no concurrent calls in flight).
class ResilientLabeler : public FallibleLabeler {
 public:
  struct Options {
    RetryPolicy retry;
    BreakerPolicy breaker;
    /// Seed for the deterministic backoff jitter.
    uint64_t seed = 0;
    /// Invoked on every breaker state change (opens, half-opens, closes) —
    /// the serving monitor's breaker-trip alert hook. Called with the
    /// wrapper's internal mutex held: the callback must be fast and must
    /// not call back into this labeler.
    std::function<void(BreakerState)> on_breaker_transition;
  };

  /// The inner labeler must outlive the wrapper.
  ResilientLabeler(FallibleLabeler* inner, Options options);

  Result<data::LabelerOutput> TryLabel(size_t index) override;
  /// Budget-aware call: retries and backoff are capped by the tighter of
  /// `budget_ms` (the caller's remaining deadline; <= 0 means unbounded)
  /// and the policy's own call_deadline_ms. A backoff sleep that would
  /// overrun the budget is skipped and the call fails DeadlineExceeded
  /// immediately instead of sleeping past a deadline it cannot meet.
  Result<data::LabelerOutput> TryLabelWithin(size_t index,
                                             double budget_ms) override;
  size_t num_records() const override { return inner_->num_records(); }
  size_t invocations() const override { return inner_->invocations(); }
  void ResetInvocations() override { inner_->ResetInvocations(); }
  double last_call_latency_ms() const override { return last_call_ms_; }

  /// Labels every index, isolating failures per index.
  BatchResult TryLabelBatch(const std::vector<size_t>& indices);

  const ResilienceStats& stats() const { return stats_; }
  BreakerState breaker_state() const { return breaker_state_; }
  /// Current virtual time in ms (advanced by latencies and backoffs).
  double virtual_now_ms() const { return now_ms_; }

  /// Advances the virtual clock without touching the oracle — simulates
  /// idle wall time so an open breaker's cooldown can elapse (tests and
  /// the chaos CLI; production wrappers would use real time here).
  void AdvanceVirtualTime(double ms) {
    std::lock_guard<std::mutex> lock(mu_);
    now_ms_ += ms;
  }

  /// True for codes worth retrying.
  static bool IsRetryable(StatusCode code);

 private:
  Result<data::LabelerOutput> TryLabelLocked(size_t index,
                                             double caller_budget_ms);
  void RecordAttemptOutcome(bool success);
  void TransitionBreaker(BreakerState next);

  std::mutex mu_;
  FallibleLabeler* inner_;
  Options options_;
  Rng jitter_rng_;
  ResilienceStats stats_;
  BreakerState breaker_state_ = BreakerState::kClosed;
  size_t consecutive_failures_ = 0;
  size_t half_open_successes_ = 0;
  double breaker_opened_at_ms_ = 0.0;
  double now_ms_ = 0.0;
  double last_call_ms_ = 0.0;
};

/// Caching wrapper over a FallibleLabeler: successful labels are cached so
/// repeated requests cost one invocation; failures are not cached, so a
/// later request retries the record. The fallible analogue of
/// CachingLabeler, and the hook for cracking under faults.
class CachingFallibleLabeler : public FallibleLabeler {
 public:
  /// The inner labeler must outlive the wrapper.
  explicit CachingFallibleLabeler(FallibleLabeler* inner);

  Result<data::LabelerOutput> TryLabel(size_t index) override;
  /// Forwards the caller's remaining budget to the inner labeler; cache
  /// hits cost nothing and never consult it.
  Result<data::LabelerOutput> TryLabelWithin(size_t index,
                                             double budget_ms) override;
  size_t num_records() const override { return inner_->num_records(); }
  size_t invocations() const override { return inner_->invocations(); }
  void ResetInvocations() override { inner_->ResetInvocations(); }
  /// 0 for a cache hit (no oracle time was spent), else the inner latency.
  double last_call_latency_ms() const override {
    return last_was_hit_ ? 0.0 : inner_->last_call_latency_ms();
  }

  /// Indices successfully labeled so far, in first-label order.
  const std::vector<size_t>& labeled_indices() const { return labeled_order_; }

  /// Cached outputs of labeled_indices(), in the same order: the labels a
  /// query bought, ready to crack the index with.
  std::vector<data::LabelerOutput> labeled_outputs() const;

  /// Drops the cache (keeps the inner labeler's invocation count).
  void ClearCache();

 private:
  FallibleLabeler* inner_;
  std::vector<std::optional<data::LabelerOutput>> cache_;
  std::vector<size_t> labeled_order_;
  bool last_was_hit_ = false;
};

}  // namespace tasti::labeler

#endif  // TASTI_LABELER_RESILIENT_H_
