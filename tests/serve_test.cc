// Tests for serve/: epoch snapshots and reclamation, cross-query oracle
// scheduling (dedup, caching, batching, attribution), admission control,
// and deterministic-mode reproducibility of the TastiServer. Run under
// TSan in check.sh's tsan stage — the concurrency claims here (no torn
// snapshot reads, racing cracks against readers) are exactly what a data
// race would break.

#include <gtest/gtest.h>

#include <atomic>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "api/session.h"
#include "obs/live.h"
#include "serve/monitor.h"
#include "core/index.h"
#include "core/propagation.h"
#include "core/proxy.h"
#include "core/scorer.h"
#include "data/dataset.h"
#include "labeler/labeler.h"
#include "serve/oracle_scheduler.h"
#include "serve/score_cache.h"
#include "serve/server.h"
#include "serve/snapshot.h"

namespace tasti::serve {
namespace {

data::Dataset TestDataset(size_t n = 2000, uint64_t seed = 71) {
  data::DatasetOptions opts;
  opts.num_records = n;
  opts.seed = seed;
  return data::MakeNightStreet(opts);
}

ServerOptions FastServerOptions() {
  ServerOptions opts;
  opts.index.num_training_records = 150;
  opts.index.num_representatives = 150;
  opts.index.embedding_dim = 32;
  opts.index.hidden_dim = 64;
  opts.index.epochs = 10;
  opts.num_workers = 4;
  opts.seed = 72;
  return opts;
}

/// Holds every call open for `hold_ms` so concurrent requests for the same
/// record pile up behind the dispatcher (exercising in-flight dedup), and
/// fails the first `fail_first` calls per record (exercising the
/// failures-are-not-cached rule). Thread-safe.
class SlowFlakyOracle : public labeler::FallibleLabeler {
 public:
  SlowFlakyOracle(const data::Dataset* dataset, double hold_ms,
                  size_t fail_first = 0)
      : dataset_(dataset), hold_ms_(hold_ms), fail_first_(fail_first),
        calls_per_record_(dataset->size()) {}

  Result<data::LabelerOutput> TryLabel(size_t index) override {
    invocations_.fetch_add(1, std::memory_order_relaxed);
    if (hold_ms_ > 0) {
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(hold_ms_));
    }
    const size_t nth =
        calls_per_record_[index].fetch_add(1, std::memory_order_relaxed);
    if (nth < fail_first_) {
      return Status::Unavailable("injected transient failure");
    }
    return dataset_->ground_truth[index];
  }
  size_t num_records() const override { return dataset_->size(); }
  size_t invocations() const override {
    return invocations_.load(std::memory_order_relaxed);
  }
  void ResetInvocations() override {
    invocations_.store(0, std::memory_order_relaxed);
  }

 private:
  const data::Dataset* dataset_;
  double hold_ms_;
  size_t fail_first_;
  std::vector<std::atomic<size_t>> calls_per_record_;
  std::atomic<size_t> invocations_{0};
};

// --- OracleScheduler ---

TEST(OracleSchedulerTest, ConcurrentIdenticalRequestsCollapseToOneCall) {
  data::Dataset ds = TestDataset(64);
  SlowFlakyOracle oracle(&ds, /*hold_ms=*/20.0);
  OracleScheduler scheduler(&oracle, {});

  constexpr size_t kThreads = 6;
  std::vector<QueryOracleContext> ctxs(kThreads);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    ctxs[t].query_id = t + 1;
    threads.emplace_back([&scheduler, &ctxs, t] {
      Result<data::LabelerOutput> r = scheduler.Label(7, &ctxs[t]);
      EXPECT_TRUE(r.ok());
    });
  }
  for (std::thread& thread : threads) thread.join();

  // One physical call serves all six queries; the rest rode the in-flight
  // entry or the cache.
  EXPECT_EQ(oracle.invocations(), 1u);
  SchedulerStats stats = scheduler.stats();
  EXPECT_EQ(stats.physical_calls, 1u);
  EXPECT_EQ(stats.logical_requests, kThreads);
  EXPECT_EQ(stats.cache_hits + stats.dedup_hits, kThreads - 1);
  // The call is attributed to exactly one query.
  size_t attributed = 0;
  for (const QueryOracleContext& ctx : ctxs) {
    attributed += ctx.attributed_invocations.load();
  }
  EXPECT_EQ(attributed, 1u);
}

TEST(OracleSchedulerTest, CacheMakesLaterQueriesFree) {
  data::Dataset ds = TestDataset(64);
  SlowFlakyOracle oracle(&ds, 0.0);
  OracleScheduler scheduler(&oracle, {});

  QueryOracleContext first, second;
  first.query_id = 1;
  second.query_id = 2;
  ASSERT_TRUE(scheduler.Label(3, &first).ok());
  ASSERT_TRUE(scheduler.Label(3, &second).ok());

  EXPECT_EQ(oracle.invocations(), 1u);
  EXPECT_EQ(first.attributed_invocations.load(), 1u);
  EXPECT_EQ(second.attributed_invocations.load(), 0u);
  EXPECT_EQ(second.cache_hits.load(), 1u);
  EXPECT_TRUE(scheduler.CachedLabel(3).has_value());
  EXPECT_FALSE(scheduler.CachedLabel(4).has_value());
}

TEST(OracleSchedulerTest, FailedCallsAreNotCachedAndRetry) {
  data::Dataset ds = TestDataset(64);
  SlowFlakyOracle oracle(&ds, 0.0, /*fail_first=*/1);
  OracleScheduler scheduler(&oracle, {});

  QueryOracleContext ctx;
  ctx.query_id = 1;
  Result<data::LabelerOutput> r1 = scheduler.Label(5, &ctx);
  EXPECT_FALSE(r1.ok());
  EXPECT_FALSE(scheduler.CachedLabel(5).has_value());
  EXPECT_EQ(ctx.failed_calls.load(), 1u);

  Result<data::LabelerOutput> r2 = scheduler.Label(5, &ctx);
  EXPECT_TRUE(r2.ok());
  EXPECT_EQ(oracle.invocations(), 2u);
  EXPECT_EQ(ctx.attributed_invocations.load(), 2u);
}

TEST(OracleSchedulerTest, DistinctRecordsCoalesceIntoBatches) {
  data::Dataset ds = TestDataset(128);
  SlowFlakyOracle oracle(&ds, /*hold_ms=*/5.0);
  SchedulerOptions options;
  options.max_batch = 8;
  OracleScheduler scheduler(&oracle, options);

  constexpr size_t kThreads = 12;
  std::vector<QueryOracleContext> ctxs(kThreads);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    ctxs[t].query_id = t + 1;
    threads.emplace_back([&scheduler, &ctxs, t] {
      EXPECT_TRUE(scheduler.Label(t, &ctxs[t]).ok());
    });
  }
  for (std::thread& thread : threads) thread.join();

  SchedulerStats stats = scheduler.stats();
  EXPECT_EQ(stats.physical_calls, kThreads);  // all records distinct
  EXPECT_LE(stats.max_batch_size, options.max_batch);
  EXPECT_GE(stats.batches, (kThreads + options.max_batch - 1) /
                               options.max_batch);
}

TEST(OracleSchedulerTest, ParallelDispatchPreservesAttribution) {
  data::Dataset ds = TestDataset(128);
  labeler::SimulatedLabeler truth(&ds);
  labeler::FallibleAdapter adapter(&truth);
  LatencyInjectingOracle slow(&adapter, /*latency_ms=*/2.0);
  SchedulerOptions options;
  options.parallel_dispatch = true;
  options.dispatch_threads = 4;
  OracleScheduler scheduler(&slow, options);

  constexpr size_t kThreads = 10;
  std::vector<QueryOracleContext> ctxs(kThreads);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    ctxs[t].query_id = t + 1;
    threads.emplace_back([&scheduler, &ctxs, t] {
      EXPECT_TRUE(scheduler.Label(2 * t, &ctxs[t]).ok());
    });
  }
  for (std::thread& thread : threads) thread.join();

  size_t attributed = 0;
  for (const QueryOracleContext& ctx : ctxs) {
    attributed += ctx.attributed_invocations.load();
  }
  EXPECT_EQ(attributed, truth.invocations());
}

// --- Snapshots & epochs ---

TEST(SnapshotTest, PublishRequiresNewerEpochAndTracksLiveness) {
  data::Dataset ds = TestDataset(400);
  labeler::SimulatedLabeler oracle(&ds);
  labeler::FallibleAdapter adapter(&oracle);
  core::IndexOptions index_opts = FastServerOptions().index;
  index_opts.num_representatives = 60;
  index_opts.num_training_records = 60;
  core::TastiIndex index = core::TastiIndex::Build(ds, &adapter, index_opts);

  EpochManager epochs;
  EXPECT_EQ(epochs.current_epoch(), 0u);
  EXPECT_EQ(epochs.Acquire(), nullptr);

  epochs.Publish(IndexSnapshot::FromIndex(index, 1));
  std::shared_ptr<const IndexSnapshot> pinned = epochs.Acquire();
  ASSERT_NE(pinned, nullptr);
  EXPECT_TRUE(pinned->CheckConsistent().ok());
  EXPECT_EQ(epochs.live_snapshots(), 1u);

  index.AddRepresentative(0, ds.ground_truth[0]);
  epochs.Publish(IndexSnapshot::FromIndex(index, 2));
  // The retired epoch stays alive while `pinned` holds it.
  EXPECT_EQ(epochs.live_snapshots(), 2u);
  EXPECT_EQ(epochs.current_epoch(), 2u);
  EXPECT_EQ(pinned->epoch, 1u);
  pinned.reset();
  EXPECT_EQ(epochs.live_snapshots(), 1u);
  EXPECT_EQ(epochs.published(), 2u);
}

TEST(ServerTest, ConcurrentQueriesRacingCracksSeeConsistentSnapshots) {
  data::Dataset ds = TestDataset(1500);
  labeler::SimulatedLabeler oracle(&ds);
  labeler::FallibleAdapter adapter(&oracle);
  ServerOptions opts = FastServerOptions();
  TastiServer server(&ds, &adapter, opts);
  ASSERT_TRUE(server.Start().ok());

  // A reader thread hammers Acquire + CheckConsistent while queries crack
  // the index and publish new epochs underneath it.
  std::atomic<bool> stop{false};
  std::atomic<size_t> checked{0};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      std::shared_ptr<const IndexSnapshot> snapshot = server.epochs().Acquire();
      ASSERT_NE(snapshot, nullptr);
      ASSERT_TRUE(snapshot->CheckConsistent().ok());
      checked.fetch_add(1, std::memory_order_relaxed);
    }
  });

  core::CountScorer cars(data::ObjectClass::kCar);
  core::PresenceScorer present(data::ObjectClass::kCar);
  std::vector<uint64_t> ids;
  for (int i = 0; i < 6; ++i) {
    QuerySpec spec;
    if (i % 2 == 0) {
      spec.kind = QueryKind::kAggregate;
      spec.scorer = &cars;
      spec.error_target = 0.15;
    } else {
      spec.kind = QueryKind::kSupgRecall;
      spec.scorer = &present;
      spec.target = 0.9;
      spec.budget = 150;
    }
    spec.client_id = i % 3;
    Result<uint64_t> id = server.Submit(spec);
    ASSERT_TRUE(id.ok());
    ids.push_back(*id);
  }
  for (uint64_t id : ids) {
    QueryResponse response = server.Wait(id);
    EXPECT_TRUE(response.status.ok());
  }
  server.Drain();
  stop.store(true);
  reader.join();
  EXPECT_GT(checked.load(), 0u);
  // Cracking published new epochs, and retired ones were reclaimed once
  // their readers drained.
  EXPECT_GT(server.stats().epochs_published, 1u);
  EXPECT_EQ(server.live_snapshots(), 1u);
}

// --- TastiServer ---

TEST(ServerTest, AttributionInvariantHoldsAcrossConcurrentQueries) {
  data::Dataset ds = TestDataset(1500);
  labeler::SimulatedLabeler oracle(&ds);
  labeler::FallibleAdapter adapter(&oracle);
  ServerOptions opts = FastServerOptions();
  TastiServer server(&ds, &adapter, opts);
  ASSERT_TRUE(server.Start().ok());

  core::CountScorer cars(data::ObjectClass::kCar);
  core::PresenceScorer present(data::ObjectClass::kCar);
  core::AtLeastCountScorer busy(data::ObjectClass::kCar, 2);
  std::vector<QuerySpec> specs;
  for (int round = 0; round < 2; ++round) {
    QuerySpec agg;
    agg.kind = QueryKind::kAggregate;
    agg.scorer = &cars;
    agg.error_target = 0.15;
    specs.push_back(agg);
    QuerySpec supg;
    supg.kind = QueryKind::kSupgRecall;
    supg.scorer = &present;
    supg.target = 0.9;
    supg.budget = 120;
    specs.push_back(supg);
    QuerySpec limit;
    limit.kind = QueryKind::kLimit;
    limit.scorer = &busy;
    limit.want = 4;
    specs.push_back(limit);
  }
  std::vector<uint64_t> ids;
  for (const QuerySpec& spec : specs) {
    Result<uint64_t> id = server.Submit(spec);
    ASSERT_TRUE(id.ok());
    ids.push_back(*id);
  }
  size_t query_invocations = 0;
  for (uint64_t id : ids) {
    QueryResponse response = server.Wait(id);
    EXPECT_TRUE(response.status.ok());
    query_invocations += response.attributed_invocations;
  }
  server.Drain();

  EXPECT_TRUE(server.CheckAttributionInvariant().ok());
  EXPECT_EQ(server.index_invocations() + query_invocations,
            oracle.invocations());
  // The query log carries the same ledger.
  EXPECT_EQ(server.query_log().total_invocations(), oracle.invocations());
  // Sharing must have saved something: queries overlap records (reps,
  // popular samples), so logical requests exceed physical calls.
  SchedulerStats sched = server.scheduler_stats();
  EXPECT_GT(sched.saved_calls(), 0u);
  EXPECT_LT(sched.physical_calls, sched.logical_requests);
}

TEST(ServerTest, DeterministicModeIsBitIdenticalAcrossWorkerCounts) {
  data::Dataset ds = TestDataset(1500);

  auto run = [&ds](size_t workers) {
    labeler::SimulatedLabeler oracle(&ds);
    labeler::FallibleAdapter adapter(&oracle);
    ServerOptions opts = FastServerOptions();
    opts.deterministic = true;
    opts.num_workers = workers;
    TastiServer server(&ds, &adapter, opts);
    EXPECT_TRUE(server.Start().ok());

    static core::CountScorer cars(data::ObjectClass::kCar);
    static core::PresenceScorer present(data::ObjectClass::kCar);
    static core::AtLeastCountScorer busy(data::ObjectClass::kCar, 2);
    std::vector<QuerySpec> specs;
    QuerySpec agg;
    agg.kind = QueryKind::kAggregate;
    agg.scorer = &cars;
    agg.error_target = 0.15;
    specs.push_back(agg);
    QuerySpec recall;
    recall.kind = QueryKind::kSupgRecall;
    recall.scorer = &present;
    recall.target = 0.9;
    recall.budget = 120;
    specs.push_back(recall);
    QuerySpec precision;
    precision.kind = QueryKind::kSupgPrecision;
    precision.scorer = &present;
    precision.target = 0.8;
    precision.budget = 120;
    specs.push_back(precision);
    QuerySpec select;
    select.kind = QueryKind::kThresholdSelect;
    select.scorer = &present;
    select.validation_budget = 80;
    specs.push_back(select);
    QuerySpec limit;
    limit.kind = QueryKind::kLimit;
    limit.scorer = &busy;
    limit.want = 4;
    specs.push_back(limit);

    std::vector<uint64_t> ids;
    for (const QuerySpec& spec : specs) {
      Result<uint64_t> id = server.Submit(spec);
      EXPECT_TRUE(id.ok());
      ids.push_back(*id);
    }
    std::vector<QueryResponse> responses;
    for (uint64_t id : ids) responses.push_back(server.Wait(id));
    server.Drain();
    return responses;
  };

  std::vector<QueryResponse> serial = run(1);
  std::vector<QueryResponse> parallel = run(4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    const QueryResponse& a = serial[i];
    const QueryResponse& b = parallel[i];
    EXPECT_TRUE(a.status.ok());
    EXPECT_TRUE(b.status.ok());
    EXPECT_EQ(a.query_id, b.query_id);
    EXPECT_EQ(a.epoch, b.epoch);
    // Result payloads are bit-identical regardless of worker count.
    EXPECT_EQ(a.aggregate.estimate, b.aggregate.estimate);
    EXPECT_EQ(a.aggregate.labeler_invocations, b.aggregate.labeler_invocations);
    EXPECT_EQ(a.supg.selected, b.supg.selected);
    EXPECT_EQ(a.supg.threshold, b.supg.threshold);
    EXPECT_EQ(a.select.selected, b.select.selected);
    EXPECT_EQ(a.select.threshold, b.select.threshold);
    EXPECT_EQ(a.limit.found, b.limit.found);
    EXPECT_EQ(a.limit.satisfied, b.limit.satisfied);
  }
}

TEST(ServerTest, DeterministicDrainAppliesDeferredCracksInQueryIdOrder) {
  data::Dataset ds = TestDataset(1200);
  labeler::SimulatedLabeler oracle(&ds);
  labeler::FallibleAdapter adapter(&oracle);
  ServerOptions opts = FastServerOptions();
  opts.deterministic = true;
  TastiServer server(&ds, &adapter, opts);
  ASSERT_TRUE(server.Start().ok());

  core::CountScorer cars(data::ObjectClass::kCar);
  QuerySpec spec;
  spec.kind = QueryKind::kAggregate;
  spec.scorer = &cars;
  spec.error_target = 0.15;
  QueryResponse r1 = server.Execute(spec);
  QueryResponse r2 = server.Execute(spec);
  EXPECT_TRUE(r1.status.ok());
  EXPECT_TRUE(r2.status.ok());
  // No cracks published yet: both queries ran against the build epoch.
  EXPECT_EQ(r1.epoch, 1u);
  EXPECT_EQ(r2.epoch, 1u);
  EXPECT_EQ(server.current_epoch(), 1u);

  server.Drain();
  // Drain applied the deferred cracks and published the next epoch.
  EXPECT_EQ(server.current_epoch(), 2u);
  EXPECT_EQ(server.live_snapshots(), 1u);
}

TEST(ServerTest, AdmissionRejectsWhenQueueFullAndNonBlocking) {
  data::Dataset ds = TestDataset(1200);
  labeler::SimulatedLabeler truth(&ds);
  labeler::FallibleAdapter adapter(&truth);
  LatencyInjectingOracle slow(&adapter, /*latency_ms=*/1.0);
  ServerOptions opts = FastServerOptions();
  opts.index.num_representatives = 80;
  opts.index.num_training_records = 80;
  opts.max_pending = 1;
  opts.block_on_admission = false;
  opts.num_workers = 1;
  TastiServer server(&ds, &slow, opts);
  ASSERT_TRUE(server.Start().ok());

  core::CountScorer cars(data::ObjectClass::kCar);
  QuerySpec spec;
  spec.kind = QueryKind::kAggregate;
  spec.scorer = &cars;
  spec.error_target = 0.15;
  Result<uint64_t> first = server.Submit(spec);
  ASSERT_TRUE(first.ok());
  // The slot is taken (queued or executing): an immediate second submit
  // must be rejected, not queued.
  Result<uint64_t> second = server.Submit(spec);
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kResourceExhausted);
  QueryResponse response = server.Wait(*first);
  EXPECT_TRUE(response.status.ok());
  server.Drain();
  // Capacity freed: submits succeed again.
  EXPECT_TRUE(server.Submit(spec).ok());
  server.Drain();
}

TEST(ServerTest, PerClientSlotsDoNotStarveOrDeadlock) {
  data::Dataset ds = TestDataset(1200);
  labeler::SimulatedLabeler oracle(&ds);
  labeler::FallibleAdapter adapter(&oracle);
  ServerOptions opts = FastServerOptions();
  opts.max_client_concurrency = 1;
  opts.num_workers = 3;
  TastiServer server(&ds, &adapter, opts);
  ASSERT_TRUE(server.Start().ok());

  core::CountScorer cars(data::ObjectClass::kCar);
  std::vector<uint64_t> ids;
  for (int i = 0; i < 8; ++i) {
    QuerySpec spec;
    spec.kind = QueryKind::kAggregate;
    spec.scorer = &cars;
    spec.error_target = 0.15;
    spec.client_id = i % 2;  // two clients, one slot each, three workers
    Result<uint64_t> id = server.Submit(spec);
    ASSERT_TRUE(id.ok());
    ids.push_back(*id);
  }
  for (uint64_t id : ids) {
    EXPECT_TRUE(server.Wait(id).status.ok());
  }
  server.Drain();
  EXPECT_EQ(server.stats().queries_completed, 8u);
  EXPECT_TRUE(server.CheckAttributionInvariant().ok());
}

TEST(ServerTest, SubmitBeforeStartAndAfterShutdownFails) {
  data::Dataset ds = TestDataset(600);
  labeler::SimulatedLabeler oracle(&ds);
  labeler::FallibleAdapter adapter(&oracle);
  ServerOptions opts = FastServerOptions();
  opts.index.num_representatives = 80;
  opts.index.num_training_records = 80;
  TastiServer server(&ds, &adapter, opts);

  core::CountScorer cars(data::ObjectClass::kCar);
  QuerySpec spec;
  spec.kind = QueryKind::kAggregate;
  spec.scorer = &cars;
  Result<uint64_t> early = server.Submit(spec);
  ASSERT_FALSE(early.ok());
  EXPECT_EQ(early.status().code(), StatusCode::kFailedPrecondition);

  ASSERT_TRUE(server.Start().ok());
  server.Shutdown();
  Result<uint64_t> late = server.Submit(spec);
  ASSERT_FALSE(late.ok());
  EXPECT_EQ(late.status().code(), StatusCode::kUnavailable);
}

// --- ScoreCache ---

core::TastiIndex BuildBareIndex(const data::Dataset& ds) {
  labeler::SimulatedLabeler oracle(&ds);
  return core::TastiIndex::Build(ds, &oracle, FastServerOptions().index);
}

void ExpectScoresBitIdentical(const std::vector<double>& a,
                              const std::vector<double>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i], b[i]) << "score diverges at record " << i;
  }
}

TEST(ScoreCacheTest, HitSharingAndDeltaAdvance) {
  data::Dataset ds = TestDataset(1200);
  core::TastiIndex index = BuildBareIndex(ds);
  core::CountScorer cars(data::ObjectClass::kCar);

  IndexSnapshot snap1 = IndexSnapshot::FromIndexAndTakeDelta(&index, 1, 0);
  EXPECT_TRUE(snap1.delta_full);  // root epoch has no parent

  ScoreCache cache;
  ScoreCache::Outcome outcome;
  core::ProxyTimings timings;
  auto s1 = cache.GetOrCompute(snap1, cars, core::PropagationMode::kNumeric,
                               {}, &timings, &outcome);
  EXPECT_EQ(outcome.source, ProxySource::kFull);
  EXPECT_GT(timings.propagation_seconds, 0.0);
  ExpectScoresBitIdentical(
      s1->scores, core::ComputeProxyScores(snap1.View(), cars,
                                           core::PropagationMode::kNumeric));

  // Same key again: the exact shared state comes back, zero proxy time.
  auto s2 = cache.GetOrCompute(snap1, cars, core::PropagationMode::kNumeric,
                               {}, &timings, &outcome);
  EXPECT_EQ(outcome.source, ProxySource::kHit);
  EXPECT_EQ(s2.get(), s1.get());
  EXPECT_EQ(timings.propagation_seconds, 0.0);
  EXPECT_EQ(timings.rep_score_seconds, 0.0);

  // Crack a few records and publish epoch 2 with a row-wise delta.
  size_t added = 0;
  for (size_t r = 0; r < ds.size() && added < 4; ++r) {
    if (!index.IsRepresentative(r)) {
      index.AddRepresentative(r, ds.ground_truth[r]);
      ++added;
    }
  }
  IndexSnapshot snap2 = IndexSnapshot::FromIndexAndTakeDelta(&index, 2, 1);
  ASSERT_FALSE(snap2.delta_full);
  ASSERT_FALSE(snap2.dirty_rows.empty());

  auto s3 = cache.GetOrCompute(snap2, cars, core::PropagationMode::kNumeric,
                               {}, &timings, &outcome);
  EXPECT_EQ(outcome.source, ProxySource::kDelta);
  EXPECT_GT(outcome.delta_rows, 0u);
  EXPECT_LT(outcome.delta_rows, snap2.num_records);
  // The parent entry is untouched (copy-on-write)...
  ExpectScoresBitIdentical(
      s1->scores, core::ComputeProxyScores(snap1.View(), cars,
                                           core::PropagationMode::kNumeric));
  // ...and the advanced child is bit-identical to a full recompute.
  ExpectScoresBitIdentical(
      s3->scores, core::ComputeProxyScores(snap2.View(), cars,
                                           core::PropagationMode::kNumeric));

  ScoreCacheStats stats = cache.stats();
  EXPECT_EQ(stats.lookups, 3u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.full_computes, 1u);
  EXPECT_EQ(stats.delta_hits, 1u);
  EXPECT_EQ(stats.delta_rows, outcome.delta_rows);
  EXPECT_EQ(stats.resident_entries, 2u);
  EXPECT_GT(stats.resident_bytes, 0u);
}

TEST(ScoreCacheTest, EvictionBoundsResidencyAndInvalidateDropsEntries) {
  data::Dataset ds = TestDataset(800);
  core::TastiIndex index = BuildBareIndex(ds);
  core::CountScorer cars(data::ObjectClass::kCar);
  core::PresenceScorer present(data::ObjectClass::kCar);

  ScoreCacheOptions copts;
  copts.max_entries = 1;
  ScoreCache cache(copts);
  IndexSnapshot snap = IndexSnapshot::FromIndexAndTakeDelta(&index, 1, 0);

  ScoreCache::Outcome outcome;
  cache.GetOrCompute(snap, cars, core::PropagationMode::kNumeric, {}, nullptr,
                     &outcome);
  // A second scorer on the same epoch overflows max_entries = 1: the LRU
  // (cars) entry is evicted, the entry being served survives.
  cache.GetOrCompute(snap, present, core::PropagationMode::kNumeric, {},
                     nullptr, &outcome);
  ScoreCacheStats stats = cache.stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.resident_entries, 1u);
  cache.GetOrCompute(snap, present, core::PropagationMode::kNumeric, {},
                     nullptr, &outcome);
  EXPECT_EQ(outcome.source, ProxySource::kHit);
  cache.GetOrCompute(snap, cars, core::PropagationMode::kNumeric, {}, nullptr,
                     &outcome);
  EXPECT_EQ(outcome.source, ProxySource::kFull);  // evicted -> recompute

  cache.Invalidate();
  stats = cache.stats();
  EXPECT_EQ(stats.resident_entries, 0u);
  EXPECT_EQ(stats.resident_bytes, 0u);
  EXPECT_GT(stats.invalidations, 0u);
  cache.GetOrCompute(snap, cars, core::PropagationMode::kNumeric, {}, nullptr,
                     &outcome);
  EXPECT_EQ(outcome.source, ProxySource::kFull);
}

TEST(ScoreCacheTest, ColdCacheOnDeltaSnapshotFallsBackToFull) {
  data::Dataset ds = TestDataset(800);
  core::TastiIndex index = BuildBareIndex(ds);
  core::CountScorer cars(data::ObjectClass::kCar);
  index.TakeDelta();
  size_t added = 0;
  for (size_t r = 0; r < ds.size() && added < 2; ++r) {
    if (!index.IsRepresentative(r)) {
      index.AddRepresentative(r, ds.ground_truth[r]);
      ++added;
    }
  }
  IndexSnapshot snap2 = IndexSnapshot::FromIndexAndTakeDelta(&index, 2, 1);
  ASSERT_FALSE(snap2.delta_full);

  ScoreCache cache;  // no parent entry anywhere
  ScoreCache::Outcome outcome;
  auto state = cache.GetOrCompute(snap2, cars, core::PropagationMode::kNumeric,
                                  {}, nullptr, &outcome);
  EXPECT_EQ(outcome.source, ProxySource::kFull);
  ExpectScoresBitIdentical(
      state->scores, core::ComputeProxyScores(snap2.View(), cars,
                                              core::PropagationMode::kNumeric));
}

// Run under TSan (check.sh tsan stage): concurrent readers resolving
// through the cache while a publisher cracks the index and publishes new
// delta-carrying epochs. Any unsynchronized access to entries, stats, or a
// parent state being copied while read would trip the race detector.
TEST(ScoreCacheTest, ConcurrentReadersAcrossEpochPublishes) {
  data::Dataset ds = TestDataset(800);
  core::TastiIndex index = BuildBareIndex(ds);
  core::CountScorer cars(data::ObjectClass::kCar);

  EpochManager epochs;
  epochs.Publish(IndexSnapshot::FromIndexAndTakeDelta(&index, 1, 0));
  ScoreCache cache;

  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (size_t t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        std::shared_ptr<const IndexSnapshot> snap = epochs.Acquire();
        auto state = cache.GetOrCompute(
            *snap, cars, core::PropagationMode::kNumeric, {}, nullptr, nullptr);
        EXPECT_EQ(state->scores.size(), snap->num_records);
        EXPECT_EQ(state->rep_scores.size(), snap->rep_record_ids.size());
      }
    });
  }

  size_t next_record = 0;
  for (uint64_t epoch = 2; epoch <= 6; ++epoch) {
    while (index.IsRepresentative(next_record)) ++next_record;
    index.AddRepresentative(next_record, ds.ground_truth[next_record]);
    epochs.Publish(
        IndexSnapshot::FromIndexAndTakeDelta(&index, epoch, epoch - 1));
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& reader : readers) reader.join();

  // Whatever mix of full/delta/hit produced the final epoch's entry, it
  // must be bit-identical to a from-scratch computation.
  std::shared_ptr<const IndexSnapshot> snap = epochs.Acquire();
  auto state = cache.GetOrCompute(*snap, cars, core::PropagationMode::kNumeric,
                                  {}, nullptr, nullptr);
  ExpectScoresBitIdentical(
      state->scores, core::ComputeProxyScores(snap->View(), cars,
                                              core::PropagationMode::kNumeric));
  EXPECT_EQ(cache.stats().full_computes + cache.stats().delta_hits,
            cache.stats().resident_entries + cache.stats().evictions);
}

TEST(ServerTest, ScoreCacheAccountingAcrossDeterministicWaves) {
  data::Dataset ds = TestDataset(1200);
  labeler::SimulatedLabeler oracle(&ds);
  labeler::FallibleAdapter adapter(&oracle);
  ServerOptions opts = FastServerOptions();
  opts.deterministic = true;
  TastiServer server(&ds, &adapter, opts);
  ASSERT_TRUE(server.Start().ok());

  core::CountScorer cars(data::ObjectClass::kCar);
  QuerySpec spec;
  spec.kind = QueryKind::kAggregate;
  spec.scorer = &cars;
  spec.error_target = 0.15;

  auto wave = [&] {
    std::vector<uint64_t> ids;
    for (int i = 0; i < 3; ++i) {
      Result<uint64_t> id = server.Submit(spec);
      ASSERT_TRUE(id.ok());
      ids.push_back(*id);
    }
    for (uint64_t id : ids) {
      QueryResponse response = server.Wait(id);
      EXPECT_TRUE(response.status.ok());
    }
    server.Drain();
  };

  // Wave 1 (epoch 1): one query computes, two reuse the entry.
  wave();
  ScoreCacheStats stats = server.score_cache_stats();
  EXPECT_EQ(stats.lookups, 3u);
  EXPECT_EQ(stats.full_computes, 1u);
  EXPECT_EQ(stats.hits + stats.shared_hits, 2u);

  // Drain published epoch 2 from the wave's cracks; wave 2 advances the
  // warm scorer (delta when the crack stayed row-wise, full otherwise)
  // exactly once and the rest reuse it.
  ASSERT_GT(server.current_epoch(), 1u);
  wave();
  stats = server.score_cache_stats();
  EXPECT_EQ(stats.lookups, 6u);
  EXPECT_EQ(stats.full_computes + stats.delta_hits, 2u);
  EXPECT_EQ(stats.hits + stats.shared_hits, 4u);

  // The ledger records how each query's proxies were obtained.
  size_t sourced = 0;
  for (const obs::QueryRecord& record : server.query_log().queries()) {
    EXPECT_FALSE(record.proxy_source.empty());
    if (!record.proxy_source.empty()) ++sourced;
  }
  EXPECT_EQ(sourced, 6u);
  EXPECT_TRUE(server.CheckAttributionInvariant().ok());
}

// --- Live stats / ServerMonitor ---

TEST(ServerTest, StatsAreSafeToReadDuringALiveWorkload) {
  // ServerStats counters are updated by worker threads; stats() must be
  // readable concurrently without torn or racing reads. TSan (check.sh's
  // tsan stage runs this binary) is the real assertion here.
  data::Dataset ds = TestDataset(1200);
  labeler::SimulatedLabeler oracle(&ds);
  labeler::FallibleAdapter adapter(&oracle);
  ServerOptions opts = FastServerOptions();
  TastiServer server(&ds, &adapter, opts);
  ASSERT_TRUE(server.Start().ok());

  std::atomic<bool> stop{false};
  std::thread reader([&] {
    uint64_t last_completed = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      const ServerStats stats = server.stats();
      // Monotone counters never go backwards, even mid-workload.
      EXPECT_GE(stats.queries_completed, last_completed);
      last_completed = stats.queries_completed;
      EXPECT_GE(stats.queries_submitted, stats.queries_completed);
      (void)server.scheduler_stats();
      (void)server.score_cache_stats();
    }
  });

  core::CountScorer cars(data::ObjectClass::kCar);
  core::PresenceScorer present(data::ObjectClass::kCar);
  std::vector<uint64_t> ids;
  for (int i = 0; i < 8; ++i) {
    QuerySpec spec;
    if (i % 2 == 0) {
      spec.kind = QueryKind::kAggregate;
      spec.scorer = &cars;
      spec.error_target = 0.15;
    } else {
      spec.kind = QueryKind::kSupgRecall;
      spec.scorer = &present;
      spec.target = 0.9;
      spec.budget = 120;
    }
    Result<uint64_t> id = server.Submit(spec);
    ASSERT_TRUE(id.ok());
    ids.push_back(*id);
  }
  for (uint64_t id : ids) {
    EXPECT_TRUE(server.Wait(id).status.ok());
  }
  server.Drain();
  stop.store(true);
  reader.join();
  EXPECT_EQ(server.stats().queries_completed, 8u);
}

TEST(MonitorTest, TracksQuantilesBurnsAlertsAndDumps) {
  data::Dataset ds = TestDataset(1200);
  labeler::SimulatedLabeler oracle(&ds);
  labeler::FallibleAdapter adapter(&oracle);
  ServerOptions opts = FastServerOptions();

  obs::ManualClock clock(1000.0);
  MonitorOptions mopts;
  // Impossible latency SLO: every query breaches, so burn hits 1/budget
  // and the alert + dump path must fire deterministically.
  mopts.slo.latency_threshold_ms = 0.0001;
  mopts.slo.min_events = 3;
  mopts.flight_dump_path = ::testing::TempDir() + "/monitor_test_flight";
  mopts.dump_cooldown_seconds = 0.0;
  ServerMonitor monitor(mopts, &clock);

  TastiServer server(&ds, &adapter, opts);
  server.AttachMonitor(&monitor);
  ASSERT_TRUE(server.Start().ok());

  core::CountScorer cars(data::ObjectClass::kCar);
  QuerySpec spec;
  spec.kind = QueryKind::kAggregate;
  spec.scorer = &cars;
  spec.error_target = 0.15;
  for (int i = 0; i < 6; ++i) {
    clock.Advance(1.0);
    EXPECT_TRUE(server.Execute(spec).status.ok());
  }
  server.Drain();

  // Quantiles: six aggregate queries are in the window.
  obs::LiveStats live = monitor.Collect();
  bool saw_latency_quantile = false;
  bool saw_burn = false;
  bool saw_cache = false;
  for (const obs::LiveSample& sample : live.samples) {
    if (sample.name == "tasti_query_latency_ms") {
      for (const auto& [key, value] : sample.labels) {
        if (key == "kind" && value == "aggregate") saw_latency_quantile = true;
      }
    }
    if (sample.name == "tasti_slo_burn_rate") saw_burn = true;
    if (sample.name == "tasti_score_cache_hit_ratio") saw_cache = true;
  }
  EXPECT_TRUE(saw_latency_quantile);
  EXPECT_TRUE(saw_burn);
  EXPECT_TRUE(saw_cache);

  // Every query breached, so both burn windows saturate at 1/error_budget
  // (latency_target 0.99 -> budget 0.01 -> burn 100x).
  const obs::BurnRates burn = monitor.Burn(obs::SloObjective::kLatency);
  EXPECT_GT(burn.fast, mopts.slo.burn_rate_threshold);
  EXPECT_GT(burn.slow, mopts.slo.burn_rate_threshold);
  EXPECT_GE(monitor.alerts_raised(), 1u);
  const std::vector<obs::Alert> alerts = monitor.alerts();
  ASSERT_FALSE(alerts.empty());
  EXPECT_EQ(alerts[0].objective, obs::SloObjective::kLatency);

  // The breach wrote a bounded flight dump.
  const std::vector<std::string> dumps = monitor.dump_files();
  ASSERT_FALSE(dumps.empty());
  std::ifstream in(dumps[0]);
  ASSERT_TRUE(in.good()) << dumps[0];
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_NE(buffer.str().find("flight.dump"), std::string::npos);

  // The status line is renderable and mentions the alert count.
  EXPECT_NE(monitor.StatusLine().find("alerts="), std::string::npos);
  EXPECT_TRUE(server.CheckAttributionInvariant().ok());
}

TEST(MonitorTest, FaultHookRaisesAlertOncePerCooldown) {
  obs::ManualClock clock(0.0);
  MonitorOptions mopts;
  mopts.event_alert_cooldown_seconds = 10.0;
  ServerMonitor monitor(mopts, &clock);

  monitor.OnFault("breaker_open", "oracle circuit breaker opened");
  monitor.OnFault("breaker_open", "oracle circuit breaker opened");
  EXPECT_EQ(monitor.alerts_raised(), 1u);  // second is inside the cooldown
  clock.Advance(11.0);
  monitor.OnFault("breaker_open", "oracle circuit breaker opened");
  EXPECT_EQ(monitor.alerts_raised(), 2u);
  // Distinct fault kinds have independent cooldowns.
  monitor.OnFault("oracle_failure", "query exhausted retries");
  EXPECT_EQ(monitor.alerts_raised(), 3u);
}

TEST(MonitorTest, EpochPublishUpdatesDriftGaugesAndAlerts) {
  data::Dataset ds = TestDataset(1500);
  labeler::SimulatedLabeler oracle(&ds);
  labeler::FallibleAdapter adapter(&oracle);
  ServerOptions opts = FastServerOptions();

  obs::ManualClock clock(0.0);
  MonitorOptions mopts;
  ServerMonitor monitor(mopts, &clock);

  TastiServer server(&ds, &adapter, opts);
  server.AttachMonitor(&monitor);
  ASSERT_TRUE(server.Start().ok());

  // Start() published the baseline epoch into the monitor.
  IndexHealth health = monitor.index_health();
  EXPECT_EQ(health.num_records, ds.size());
  EXPECT_EQ(health.baseline_records, ds.size());
  EXPECT_DOUBLE_EQ(health.drift_ratio, 1.0);
  EXPECT_FALSE(health.drifted);

  // A budget-bounded query runs against the baseline first (the oracle
  // only covers the original records; appended footage is unlabeled until
  // cracked). Bounded so its cracks leave most records non-representative
  // — an aggregate here would crack nearly everything and flatten the
  // baseline distances the drift ratio is measured against.
  core::PresenceScorer present(data::ObjectClass::kCar);
  QuerySpec spec;
  spec.kind = QueryKind::kSupgRecall;
  spec.scorer = &present;
  spec.target = 0.9;
  spec.budget = 120;
  EXPECT_TRUE(server.Execute(spec).status.ok());
  server.Drain();

  // The camera pans to a different scene: taipei features appended live.
  data::DatasetOptions shifted_opts;
  shifted_opts.num_records = 400;
  shifted_opts.seed = 99;
  data::Dataset shifted = data::MakeTaipei(shifted_opts);
  clock.Advance(5.0);
  const size_t first_new = server.AppendRecords(shifted.features);
  EXPECT_EQ(first_new, ds.size());

  health = monitor.index_health();
  EXPECT_EQ(health.num_records, ds.size() + 400);
  EXPECT_GT(health.drift_ratio, mopts.drift_ratio_threshold);
  EXPECT_TRUE(health.drifted);

  // The drift alert fired and the gauges flow into Collect().
  bool drift_alert = false;
  for (const obs::Alert& alert : monitor.alerts()) {
    if (alert.objective == obs::SloObjective::kIndexDrift) drift_alert = true;
  }
  EXPECT_TRUE(drift_alert);
  bool saw_drifted_gauge = false;
  for (const obs::LiveSample& sample : monitor.Collect().samples) {
    if (sample.name == "tasti_index_drifted" && sample.value == 1.0) {
      saw_drifted_gauge = true;
    }
  }
  EXPECT_TRUE(saw_drifted_gauge);
  EXPECT_TRUE(server.CheckAttributionInvariant().ok());
}

// The session and the server are two routes to one executor; at a fixed
// seed they must give the same answers. A deterministic single-worker
// server drained after every query cracks exactly when the session does,
// so both see the same index before each query. Oracle calls are not
// compared: the server's label cache legitimately makes them differ.
TEST(ParityTest, SessionAndServerAgreeOnEveryQueryKind) {
  data::Dataset ds = TestDataset(4000);
  const ServerOptions server_opts = [] {
    ServerOptions opts = FastServerOptions();
    opts.deterministic = true;
    opts.num_workers = 1;
    return opts;
  }();
  api::SessionOptions session_opts;
  session_opts.index = server_opts.index;
  session_opts.confidence = server_opts.confidence;
  session_opts.seed = server_opts.seed;

  core::PresenceScorer present(data::ObjectClass::kCar);
  core::AtLeastCountScorer busy(data::ObjectClass::kCar, 2);
  std::vector<QuerySpec> script;
  for (int pass = 0; pass < 2; ++pass) {
    script.push_back({.kind = QueryKind::kAggregate,
                      .scorer = &present,
                      .error_target = 0.1});
    script.push_back({.kind = QueryKind::kAggregateWhere,
                      .scorer = &present,
                      .statistic = &busy,
                      .error_target = 0.3});
    script.push_back({.kind = QueryKind::kSupgRecall,
                      .scorer = &present,
                      .target = 0.9,
                      .budget = 120});
    script.push_back({.kind = QueryKind::kSupgPrecision,
                      .scorer = &present,
                      .target = 0.8,
                      .budget = 120});
    script.push_back({.kind = QueryKind::kThresholdSelect,
                      .scorer = &present,
                      .validation_budget = 80});
    script.push_back(
        {.kind = QueryKind::kLimit, .scorer = &busy, .want = 4});
  }

  labeler::SimulatedLabeler session_sim(&ds);
  labeler::FallibleAdapter session_oracle(&session_sim);
  api::TastiSession session(&ds, &session_oracle, session_opts);
  labeler::SimulatedLabeler server_sim(&ds);
  labeler::FallibleAdapter server_oracle(&server_sim);
  TastiServer server(&ds, &server_oracle, server_opts);
  ASSERT_TRUE(server.Start().ok());
  const size_t built_reps = session.index().num_representatives();
  ASSERT_EQ(built_reps, server.epochs().Acquire()->rep_record_ids.size());

  for (size_t i = 0; i < script.size(); ++i) {
    SCOPED_TRACE(std::string(QueryKindName(script[i].kind)) + " #" +
                 std::to_string(i));
    const queries::QueryAnswer a = session.Execute(script[i]);
    const QueryResponse b = server.Execute(script[i]);
    server.Drain();
    ASSERT_TRUE(a.status.ok());
    ASSERT_TRUE(b.status.ok());
    EXPECT_EQ(a.aggregate.estimate, b.aggregate.estimate);
    EXPECT_EQ(a.aggregate.half_width, b.aggregate.half_width);
    EXPECT_EQ(a.aggregate_where.estimate, b.aggregate_where.estimate);
    EXPECT_EQ(a.aggregate_where.half_width, b.aggregate_where.half_width);
    EXPECT_EQ(a.supg.selected, b.supg.selected);
    EXPECT_EQ(a.supg.threshold, b.supg.threshold);
    EXPECT_EQ(a.select.selected, b.select.selected);
    EXPECT_EQ(a.select.threshold, b.select.threshold);
    EXPECT_EQ(a.limit.found, b.limit.found);
    EXPECT_EQ(session.index().num_representatives(),
              server.epochs().Acquire()->rep_record_ids.size());
  }
  // The script cracked the index, so later queries ran on grown indexes.
  EXPECT_GT(session.index().num_representatives(), built_reps);
  EXPECT_TRUE(server.CheckAttributionInvariant().ok());
}

// Records appended to the index but unknown to the oracle cannot be
// labeled: a query over them fails with FailedPrecondition (it used to
// abort the process) and the server keeps serving.
TEST(ServerTest, QueryAfterAppendRecordsFailsAndServerKeepsServing) {
  data::Dataset ds = TestDataset(1500);
  labeler::SimulatedLabeler oracle(&ds);
  labeler::FallibleAdapter adapter(&oracle);
  TastiServer server(&ds, &adapter, FastServerOptions());
  ASSERT_TRUE(server.Start().ok());

  data::DatasetOptions more_opts;
  more_opts.num_records = 200;
  more_opts.seed = 77;
  data::Dataset more = data::MakeNightStreet(more_opts);
  EXPECT_EQ(server.AppendRecords(more.features), ds.size());

  core::CountScorer cars(data::ObjectClass::kCar);
  core::AtLeastCountScorer busy(data::ObjectClass::kCar, 2);
  const QuerySpec specs[] = {
      {.kind = QueryKind::kAggregate, .scorer = &cars, .error_target = 0.15},
      {.kind = QueryKind::kLimit, .scorer = &busy, .want = 4}};
  for (const QuerySpec& spec : specs) {
    const QueryResponse r = server.Execute(spec);
    EXPECT_EQ(r.status.code(), StatusCode::kFailedPrecondition);
    EXPECT_NE(r.status.message().find("1700"), std::string::npos);
    EXPECT_NE(r.status.message().find("1500"), std::string::npos);
    EXPECT_EQ(r.attributed_invocations, 0u);
  }
  server.Drain();
  EXPECT_EQ(server.stats().queries_completed, 2u);
  EXPECT_TRUE(server.CheckAttributionInvariant().ok());
}

}  // namespace
}  // namespace tasti::serve
