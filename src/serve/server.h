#ifndef TASTI_SERVE_SERVER_H_
#define TASTI_SERVE_SERVER_H_

/// \file server.h
/// TastiServer: many concurrent queries against one shared TASTI index.
///
/// A TastiSession serializes queries; under a remote oracle most of a
/// query's wall time is oracle latency, so serialization wastes it. The
/// server runs queries on a worker pool where they
///  - read immutable epoch snapshots (snapshot.h) — cracking publishes new
///    epochs copy-on-write, readers never block or see torn state;
///  - share one OracleScheduler (oracle_scheduler.h) — concurrent label
///    requests dedup, batch, and hit a server-wide cache, so a record
///    annotated for one query is free for every later one;
///  - share proxy scores through a server-wide ScoreCache (score_cache.h)
///    — the first query needing a (scorer, mode, epoch) triple computes
///    it, concurrent queries wait on the same future, later epochs advance
///    the parent epoch's scores incrementally through the snapshot's
///    dirty-row delta instead of recomputing every record.
///
/// Admission control bounds the work in flight: a FIFO queue capped at
/// max_pending, plus optional per-client concurrency slots so one chatty
/// client cannot starve the rest.
///
/// Deterministic mode makes a served workload reproducible: cracking is
/// deferred to Drain() (every query in a wave reads the same epoch) and
/// applied sorted by query id, and per-query seeds derive from the query
/// id alone — so result payloads are bit-identical whether the wave ran on
/// one worker or K.

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/index.h"
#include "core/proxy.h"
#include "core/scorer.h"
#include "data/dataset.h"
#include "durable/checkpoint.h"
#include "durable/recovery.h"
#include "labeler/labeler.h"
#include "obs/query_log.h"
#include "queries/executor.h"
#include "serve/deadline.h"
#include "serve/oracle_scheduler.h"
#include "serve/score_cache.h"
#include "serve/shedder.h"
#include "serve/snapshot.h"
#include "util/status.h"
#include "util/timer.h"

namespace tasti::serve {

class ServerMonitor;

// The query vocabulary lives beside the executor (queries/executor.h);
// these keep the serving API spelled serve::QuerySpec and friends.
using queries::QueryKind;
using queries::QueryKindName;
using queries::QuerySpec;

/// One completed query: the executor's answer (kind, status, the payload
/// matching `kind`, deadline_hit) plus serving-layer accounting.
struct QueryResponse : queries::QueryAnswer {
  uint64_t query_id = 0;
  /// Snapshot epoch the query executed against.
  uint64_t epoch = 0;

  // Serving-layer accounting.
  size_t attributed_invocations = 0;  ///< physical oracle attempts charged here
  size_t logical_oracle_calls = 0;    ///< label requests the algorithm made
  size_t scheduler_cache_hits = 0;    ///< answered by the server-wide cache
  size_t scheduler_dedup_hits = 0;    ///< piggybacked on another query's call
  size_t cracked_representatives = 0;
  /// How the query's proxy scores were obtained (score cache accounting).
  ProxySource proxy_source = ProxySource::kFull;
  /// Record rows recomputed when proxy_source is kDelta.
  size_t proxy_delta_rows = 0;
  double queue_wait_ms = 0.0;  ///< admission-queue time before a worker ran it
  double execute_seconds = 0.0;  ///< wall time from dequeue to completion

  // Degradation accounting (DESIGN.md §15).
  /// True when the answer is weaker than requested (deadline cut sampling
  /// short, or the server was browned out to proxy-only).
  bool degraded = false;
  /// How much statistical guarantee the answer retains.
  GuaranteeLevel guarantee = GuaranteeLevel::kFull;
  double deadline_budget_ms = 0.0;  ///< spec.deadline_ms (0 = unbounded)
  double deadline_spent_ms = 0.0;   ///< deadline time consumed at completion
};

/// Overload/degradation policy (DESIGN.md §15).
struct DegradeOptions {
  /// Admission-time load shedding; disabled by default.
  ShedderOptions shedder;
  /// Allow brownout (proxy-only) serving while the BrownoutController is
  /// tripped — by the oracle breaker opening or an SLO burn alert.
  bool brownout = false;
  /// > 0 switches per-query deadlines to virtual-time accounting, charging
  /// this flat cost per logical oracle call — bit-reproducible expiry
  /// independent of host speed (deadline.h). 0 = wall-clock deadlines.
  double virtual_ms_per_call = 0.0;
};

struct ServerOptions {
  /// Query worker threads.
  size_t num_workers = 4;
  /// Admission bound: queries queued or executing. Submit blocks (or
  /// rejects) beyond it.
  size_t max_pending = 64;
  /// Full queue: block Submit until space (true) or reject with
  /// ResourceExhausted (false).
  bool block_on_admission = true;
  /// Queries one client may have executing at once; 0 = unlimited. Queued
  /// queries of a saturated client are passed over (FIFO among eligible).
  size_t max_client_concurrency = 0;
  /// Crack the index with each query's annotations.
  bool auto_crack = true;
  /// Reproducible serving: defer cracks to Drain() (applied sorted by
  /// query id) so a wave's result payloads are independent of worker count
  /// and scheduling order.
  bool deterministic = false;
  SchedulerOptions scheduler;
  /// Overload behavior: load shedding, brownout, deadline accounting.
  DegradeOptions degrade;
  /// Bounds on the server-wide proxy-score cache.
  ScoreCacheOptions score_cache;
  /// Crash-safe durability (durable/checkpoint.h): when `durability.dir`
  /// is set, every crack/append is WAL-logged with an fsync barrier at its
  /// epoch publish and checkpointed on the configured cadence, so
  /// RecoverFrom() can rebuild the exact published epoch after a crash.
  /// Empty dir (the default) disables durability. Logging failures degrade
  /// to memory-only serving with a monitor fault — they never fail a query.
  durable::DurabilityOptions durability;
  /// Index construction parameters (Start() builds the index).
  core::IndexOptions index;
  /// Success probability shared by guarantee-carrying queries.
  double confidence = 0.95;
  /// Base seed; query n draws queries::DeriveQuerySeed(seed, n).
  uint64_t seed = 1234;
};

/// Aggregate server tallies. Safe to read live, from any thread, while a
/// workload is executing: counters are copied under the server mutex and
/// the epoch tallies are atomics.
struct ServerStats {
  uint64_t queries_submitted = 0;
  uint64_t queries_completed = 0;
  size_t index_invocations = 0;
  /// Sum of attributed_invocations over completed queries.
  size_t query_invocations = 0;
  uint64_t epochs_published = 0;
  size_t live_snapshots = 0;
  // Degradation tallies (DESIGN.md §15).
  uint64_t queries_shed = 0;        ///< rejected at admission by the shedder
  uint64_t degraded_responses = 0;  ///< completed with degraded = true
  uint64_t deadline_expired = 0;    ///< completed with deadline_hit = true
  uint64_t brownout_queries = 0;    ///< answered proxy-only while browned out
  bool brownout_active = false;
};

/// The serving engine. All public methods are thread-safe; Start() must
/// complete before the first Submit().
class TastiServer {
 public:
  /// The dataset and oracle must outlive the server. The oracle is shared
  /// by index construction and every query; with parallel batch dispatch
  /// it must be thread-safe (see SchedulerOptions::parallel_dispatch).
  TastiServer(const data::Dataset* dataset, labeler::FallibleLabeler* oracle,
              ServerOptions options);
  ~TastiServer();

  TastiServer(const TastiServer&) = delete;
  TastiServer& operator=(const TastiServer&) = delete;

  /// Attaches a live-telemetry monitor (serve/monitor.h): the server
  /// drives its submit/complete/publish hooks. Must be called before
  /// Start(); the monitor must outlive the server. Pass nullptr to detach.
  void AttachMonitor(ServerMonitor* monitor);

  /// Builds the index (charging the oracle), publishes epoch 1, and starts
  /// the scheduler and workers. Call once.
  Status Start();

  /// Crash recovery: instead of rebuilding, loads the latest checkpoint
  /// from `dir` (default: options().durability.dir), replays the WAL's
  /// committed records — yielding an index bit-identical to the last
  /// durably published epoch — republishes that epoch, and starts serving.
  /// The proxy-score cache is explicitly invalidated (a warm restart
  /// reuses epoch ids whose cached state the crash threw away) and the
  /// oracle scheduler starts cold. Unreadable WAL segments are quarantined
  /// with a monitor fault rather than refusing to start; durable logging
  /// resumes into a fresh segment plus an immediate checkpoint. Callable
  /// on a fresh server or after Shutdown() (warm restart); NotFound means
  /// no durable state exists and the caller should Start() cold.
  Status RecoverFrom(const std::string& dir = "");

  /// Enqueues a query; returns its id immediately. Fails with
  /// ResourceExhausted when the queue is full and block_on_admission is
  /// off, Unavailable after Shutdown, FailedPrecondition before Start.
  Result<uint64_t> Submit(const QuerySpec& spec);

  /// Blocks until query `query_id` completes and returns its response
  /// (each id may be waited on once).
  QueryResponse Wait(uint64_t query_id);

  /// Wait with a timeout: nullopt if the query has not completed within
  /// `timeout_ms`. The query keeps running; call again or Abandon().
  std::optional<QueryResponse> WaitFor(uint64_t query_id, double timeout_ms);

  /// Gives up on a query: cancels its deadline token if it is executing
  /// (it stops at the next phase boundary) and discards its response when
  /// it completes. Used by the sharded gatherer for straggler shards the
  /// merged answer no longer needs.
  void Abandon(uint64_t query_id);

  /// Submit + Wait.
  QueryResponse Execute(const QuerySpec& spec);

  /// Blocks until every submitted query has completed. In deterministic
  /// mode, then applies the wave's deferred cracks (sorted by query id)
  /// and publishes the resulting epoch.
  void Drain();

  /// Drains and stops the workers. Subsequent Submits fail; idempotent.
  void Shutdown();

  /// Streaming ingestion: embeds `features`, appends them as new records
  /// (nearest-rep assignment, no new labels), and publishes a fresh epoch
  /// carrying the appended-row delta. Returns the index of the first
  /// appended record. Requires the index to have been built with its
  /// embedding network (core::TastiIndex::AppendRecords). Thread-safe
  /// against concurrent queries and cracks.
  size_t AppendRecords(const nn::Matrix& features);

  // --- Introspection ---

  /// Live-safe: may be called from any thread at any time.
  ServerStats stats() const;
  /// Live-safe; all zeros before Start().
  SchedulerStats scheduler_stats() const {
    return scheduler_ == nullptr ? SchedulerStats{} : scheduler_->stats();
  }
  ScoreCacheStats score_cache_stats() const { return score_cache_.stats(); }
  /// Live-safe admission shedder tallies.
  ShedderStats shedder_stats() const { return shedder_.stats(); }
  /// The brownout latch. Wire the oracle breaker to it via
  /// ResilientLabeler's on_breaker_transition callback, or Trip()/Clear()
  /// it directly (SLO burn, operator override). Only consulted when
  /// options().degrade.brownout is set.
  BrownoutController& brownout() { return brownout_; }
  const BrownoutController& brownout() const { return brownout_; }
  const ServerOptions& options() const { return options_; }
  /// Zeros when durability is disabled (or its manager failed to open).
  durable::DurabilityStats durability_stats() const;
  /// Stats of the last RecoverFrom(); nullopt if never recovered.
  const std::optional<durable::RecoveryStats>& last_recovery() const {
    return recovery_stats_;
  }
  /// Serialized bytes of the master index (core/serialize.h). The crash
  /// harness hashes this to compare a recovered server against a control
  /// run. Call quiescent (after Drain).
  Result<std::string> SerializeIndex() const;
  uint64_t current_epoch() const { return epochs_.current_epoch(); }
  /// Snapshots alive right now (current + retired-but-pinned).
  size_t live_snapshots() const { return epochs_.live_snapshots(); }
  const EpochManager& epochs() const { return epochs_; }
  size_t index_invocations() const { return index_invocations_; }

  /// Verifies the server-wide attribution invariant: every oracle
  /// invocation made since construction is accounted to the index build or
  /// to exactly one completed query. Call quiescent (after Drain).
  Status CheckAttributionInvariant() const;

  /// Per-query cost ledger (one record per completed query, plus the index
  /// build). Read quiescent (after Drain).
  const obs::QueryLog& query_log() const { return query_log_; }

 private:
  struct PendingQuery {
    uint64_t query_id = 0;
    QuerySpec spec;
    WallTimer queued;  ///< running since Submit
  };
  struct DeferredCrack {
    uint64_t query_id = 0;
    std::vector<size_t> records;
    std::vector<data::LabelerOutput> labels;
  };
  void WorkerLoop();
  QueryResponse RunQuery(PendingQuery pending);
  /// Cracks the master index with a query's labels and publishes the new
  /// epoch (carrying its dirty-row delta for the score cache). Returns
  /// representatives added.
  size_t ApplyCrackNow(const std::vector<size_t>& records,
                       const std::vector<data::LabelerOutput>& labels);
  /// WAL-logs one mutation under crack_mu_; returns a fault detail (empty
  /// on success / durability disabled) for the caller to raise outside
  /// locks — logging failures degrade durability, never the query.
  std::string LogMutationLocked(durable::WalRecord record);
  /// Logs the epoch-publish marker and issues the fsync barrier (plus the
  /// cadenced checkpoint). Same fault convention as LogMutationLocked.
  std::string CommitEpochLocked(uint64_t epoch);
  /// Spawns the worker pool (Start and RecoverFrom share it).
  void SpawnWorkers();
  void AppendQueryRecord(const QueryResponse& response, const QuerySpec& spec,
                         double algorithm_seconds, double oracle_seconds,
                         double crack_seconds,
                         const core::ProxyTimings& proxy_timings,
                         size_t failed_oracle_calls);
  /// Forwards the freshly published epoch to the monitor (outside all
  /// server locks).
  void NotifyEpochPublished();

  const data::Dataset* dataset_;
  labeler::FallibleLabeler* oracle_;
  const ServerOptions options_;
  ServerMonitor* monitor_ = nullptr;  ///< set before Start(), then read-only

  // Oracle invocations predating the server (invariant baseline).
  size_t baseline_invocations_ = 0;
  size_t index_invocations_ = 0;

  // Master index: mutated only under crack_mu_; queries read snapshots.
  mutable std::mutex crack_mu_;
  std::optional<core::TastiIndex> index_;
  uint64_t next_epoch_ = 1;
  std::vector<DeferredCrack> deferred_cracks_;
  // Durable logging state (null when durability is disabled or degraded);
  // guarded by crack_mu_ like the index it persists.
  std::unique_ptr<durable::DurabilityManager> durability_;
  std::optional<durable::RecoveryStats> recovery_stats_;

  EpochManager epochs_;
  std::unique_ptr<OracleScheduler> scheduler_;
  ScoreCache score_cache_;

  // Admission + completion state.
  mutable std::mutex mu_;
  std::condition_variable admit_cv_;   ///< space / stop for blocked Submits
  std::condition_variable work_cv_;    ///< queue non-empty / stop for workers
  std::condition_variable done_cv_;    ///< completions for Wait/Drain
  bool started_ = false;
  bool stopping_ = false;
  uint64_t next_query_id_ = 0;
  std::deque<PendingQuery> queue_;
  size_t executing_ = 0;
  std::unordered_map<uint64_t, size_t> client_running_;
  std::unordered_map<uint64_t, QueryResponse> completed_;
  uint64_t queries_completed_ = 0;
  size_t query_invocations_ = 0;
  // Degradation bookkeeping (guarded by mu_ like the tallies above).
  uint64_t queries_shed_ = 0;
  uint64_t degraded_responses_ = 0;
  uint64_t deadline_expired_ = 0;
  uint64_t brownout_queries_ = 0;
  /// Deadline tokens of executing queries, so Abandon() can cancel them.
  std::unordered_map<uint64_t, Deadline> running_deadlines_;
  /// Queries whose response should be discarded on completion.
  std::unordered_set<uint64_t> abandoned_;

  LoadShedder shedder_;
  BrownoutController brownout_;

  std::mutex log_mu_;
  obs::QueryLog query_log_;

  std::vector<std::thread> workers_;
};

}  // namespace tasti::serve

#endif  // TASTI_SERVE_SERVER_H_
