// Unit tests for core/: index construction (Algorithm 1), scorers, score
// propagation, proxy generation, cracking, and serialization.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <set>

#include "core/index.h"
#include "core/drift.h"
#include "core/index_stats.h"
#include "core/propagation.h"
#include "core/proxy.h"
#include "core/scorer.h"
#include "core/serialize.h"
#include "data/dataset.h"
#include "labeler/faults.h"
#include "labeler/labeler.h"
#include "util/bytes.h"
#include "util/checksum.h"
#include "util/random.h"
#include "util/stats.h"

namespace tasti::core {
namespace {

data::Dataset SmallDataset(size_t n = 2000, uint64_t seed = 13) {
  data::DatasetOptions opts;
  opts.num_records = n;
  opts.seed = seed;
  return data::MakeNightStreet(opts);
}

IndexOptions FastIndexOptions() {
  IndexOptions opts;
  opts.num_training_records = 200;
  opts.num_representatives = 200;
  opts.embedding_dim = 16;
  opts.hidden_dim = 32;
  opts.epochs = 10;
  opts.k = 5;
  opts.seed = 3;
  return opts;
}

TastiIndex BuildSmallIndex(const data::Dataset& ds,
                           IndexOptions opts = FastIndexOptions()) {
  labeler::SimulatedLabeler oracle(&ds);
  labeler::CachingLabeler cache(&oracle);
  return TastiIndex::Build(ds, &cache, opts);
}

// ---------- Index construction ----------

TEST(IndexBuildTest, ShapesAndCounts) {
  data::Dataset ds = SmallDataset();
  TastiIndex index = BuildSmallIndex(ds);
  EXPECT_EQ(index.num_records(), ds.size());
  EXPECT_EQ(index.num_representatives(), 200u);
  EXPECT_EQ(index.rep_labels().size(), 200u);
  EXPECT_EQ(index.embeddings().rows(), ds.size());
  EXPECT_EQ(index.embeddings().cols(), 16u);
  EXPECT_EQ(index.rep_embeddings().rows(), 200u);
  EXPECT_EQ(index.k(), 5u);
  EXPECT_EQ(index.topk().num_records, ds.size());
}

TEST(IndexBuildTest, RepresentativesAreDistinctRecords) {
  data::Dataset ds = SmallDataset();
  TastiIndex index = BuildSmallIndex(ds);
  std::set<size_t> unique(index.rep_record_ids().begin(),
                          index.rep_record_ids().end());
  EXPECT_EQ(unique.size(), index.num_representatives());
  for (size_t record : index.rep_record_ids()) {
    EXPECT_LT(record, ds.size());
    EXPECT_TRUE(index.IsRepresentative(record));
  }
}

TEST(IndexBuildTest, RepLabelsMatchGroundTruth) {
  data::Dataset ds = SmallDataset();
  TastiIndex index = BuildSmallIndex(ds);
  for (size_t i = 0; i < index.num_representatives(); ++i) {
    const size_t record = index.rep_record_ids()[i];
    EXPECT_EQ(data::CountBoxes(index.rep_labels()[i]),
              data::CountBoxes(ds.ground_truth[record]));
  }
}

TEST(IndexBuildTest, BudgetAccounting) {
  data::Dataset ds = SmallDataset();
  data::Dataset copy = ds;  // keep a pristine oracle source
  labeler::SimulatedLabeler oracle(&copy);
  labeler::CachingLabeler cache(&oracle);
  IndexOptions opts = FastIndexOptions();
  TastiIndex index = TastiIndex::Build(ds, &cache, opts);
  // With a caching labeler, total distinct annotations are at most
  // N1 + N2 and at least N2.
  EXPECT_LE(oracle.invocations(),
            opts.num_training_records + opts.num_representatives);
  EXPECT_GE(oracle.invocations(), opts.num_representatives);
  EXPECT_EQ(index.build_stats().TotalInvocations(), oracle.invocations());
}

TEST(IndexBuildTest, PretrainedVariantSkipsTraining) {
  data::Dataset ds = SmallDataset();
  IndexOptions opts = FastIndexOptions();
  opts.use_triplet_training = false;
  labeler::SimulatedLabeler oracle(&ds);
  TastiIndex index = TastiIndex::Build(ds, &oracle, opts);
  EXPECT_EQ(index.build_stats().training_invocations, 0u);
  EXPECT_EQ(index.build_stats().train_seconds, 0.0);
  EXPECT_EQ(oracle.invocations(), opts.num_representatives);
}

TEST(IndexBuildTest, RandomClusteringAblation) {
  data::Dataset ds = SmallDataset();
  IndexOptions opts = FastIndexOptions();
  opts.rep_selection = RepSelectionPolicy::kRandom;
  TastiIndex index = BuildSmallIndex(ds, opts);
  EXPECT_EQ(index.num_representatives(), opts.num_representatives);
}

TEST(IndexBuildTest, TopKSelfDistanceZeroForReps) {
  data::Dataset ds = SmallDataset();
  TastiIndex index = BuildSmallIndex(ds);
  for (size_t i = 0; i < index.num_representatives(); ++i) {
    const size_t record = index.rep_record_ids()[i];
    EXPECT_NEAR(index.topk().Dist(record, 0), 0.0f, 1e-5f);
    EXPECT_EQ(index.topk().RepId(record, 0), static_cast<uint32_t>(i));
  }
}

TEST(IndexBuildTest, DeterministicInSeed) {
  data::Dataset ds = SmallDataset();
  TastiIndex a = BuildSmallIndex(ds);
  TastiIndex b = BuildSmallIndex(ds);
  ASSERT_EQ(a.rep_record_ids().size(), b.rep_record_ids().size());
  for (size_t i = 0; i < a.rep_record_ids().size(); ++i) {
    EXPECT_EQ(a.rep_record_ids()[i], b.rep_record_ids()[i]);
  }
}

// ---------- Scorers ----------

TEST(ScorerTest, BuiltinVideoScorers) {
  data::VideoLabel video;
  data::Box car;
  car.cls = data::ObjectClass::kCar;
  car.x = 0.2f;
  video.boxes.push_back(car);
  car.x = 0.6f;
  video.boxes.push_back(car);
  data::LabelerOutput label = video;

  EXPECT_EQ(CountScorer(data::ObjectClass::kCar).Score(label), 2.0);
  EXPECT_EQ(CountScorer(data::ObjectClass::kBus).Score(label), 0.0);
  EXPECT_EQ(PresenceScorer(data::ObjectClass::kCar).Score(label), 1.0);
  EXPECT_EQ(PresenceScorer(data::ObjectClass::kBus).Score(label), 0.0);
  EXPECT_EQ(LeftPresenceScorer(data::ObjectClass::kCar).Score(label), 1.0);
  EXPECT_NEAR(MeanXScorer(data::ObjectClass::kCar).Score(label), 0.4, 1e-6);
  EXPECT_EQ(AtLeastCountScorer(data::ObjectClass::kCar, 2).Score(label), 1.0);
  EXPECT_EQ(AtLeastCountScorer(data::ObjectClass::kCar, 3).Score(label), 0.0);
}

TEST(ScorerTest, TextAndSpeechScorers) {
  data::LabelerOutput text = data::TextLabel{data::SqlOp::kSelect, 3};
  EXPECT_EQ(PredicateCountScorer().Score(text), 3.0);
  EXPECT_EQ(SqlOpScorer(data::SqlOp::kSelect).Score(text), 1.0);
  EXPECT_EQ(SqlOpScorer(data::SqlOp::kMax).Score(text), 0.0);

  data::LabelerOutput male = data::SpeechLabel{data::Gender::kMale, 30};
  data::LabelerOutput female = data::SpeechLabel{data::Gender::kFemale, 30};
  EXPECT_EQ(MaleScorer().Score(male), 1.0);
  EXPECT_EQ(MaleScorer().Score(female), 0.0);
}

TEST(ScorerTest, LambdaScorerWrapsFunction) {
  LambdaScorer scorer(
      [](const data::LabelerOutput& out) {
        return data::CountBoxes(out) * 2.0;
      },
      false, "double_count");
  data::VideoLabel video;
  video.boxes.resize(3);
  EXPECT_EQ(scorer.Score(data::LabelerOutput{video}), 6.0);
  EXPECT_EQ(scorer.Name(), "double_count");
  EXPECT_FALSE(scorer.categorical());
}

TEST(ScorerTest, CategoricalFlags) {
  EXPECT_FALSE(CountScorer(data::ObjectClass::kCar).categorical());
  EXPECT_TRUE(PresenceScorer(data::ObjectClass::kCar).categorical());
  EXPECT_TRUE(MaleScorer().categorical());
  EXPECT_FALSE(MeanXScorer(data::ObjectClass::kCar).categorical());
}

// ---------- Propagation ----------

TEST(PropagationTest, RepresentativesGetExactScores) {
  data::Dataset ds = SmallDataset();
  TastiIndex index = BuildSmallIndex(ds);
  CountScorer scorer(data::ObjectClass::kCar);
  const std::vector<double> rep_scores = RepresentativeScores(index, scorer);
  const std::vector<double> propagated = PropagateNumeric(index, rep_scores);
  for (size_t i = 0; i < index.num_representatives(); ++i) {
    const size_t record = index.rep_record_ids()[i];
    // A representative's own weight is ~1/epsilon, dominating the average.
    EXPECT_NEAR(propagated[record], rep_scores[i], 1e-3);
  }
}

TEST(PropagationTest, NumericScoresWithinRepScoreRange) {
  data::Dataset ds = SmallDataset();
  TastiIndex index = BuildSmallIndex(ds);
  CountScorer scorer(data::ObjectClass::kCar);
  const std::vector<double> rep_scores = RepresentativeScores(index, scorer);
  const double lo = *std::min_element(rep_scores.begin(), rep_scores.end());
  const double hi = *std::max_element(rep_scores.begin(), rep_scores.end());
  for (double score : PropagateNumeric(index, rep_scores)) {
    EXPECT_GE(score, lo - 1e-9);
    EXPECT_LE(score, hi + 1e-9);
  }
}

TEST(PropagationTest, CategoricalReturnsExistingValues) {
  data::Dataset ds = SmallDataset();
  TastiIndex index = BuildSmallIndex(ds);
  PresenceScorer scorer(data::ObjectClass::kCar);
  const std::vector<double> rep_scores = RepresentativeScores(index, scorer);
  for (double score : PropagateCategorical(index, rep_scores)) {
    EXPECT_TRUE(score == 0.0 || score == 1.0);
  }
}

TEST(PropagationTest, KOneEqualsNearestRep) {
  data::Dataset ds = SmallDataset();
  TastiIndex index = BuildSmallIndex(ds);
  CountScorer scorer(data::ObjectClass::kCar);
  const std::vector<double> rep_scores = RepresentativeScores(index, scorer);
  PropagationOptions opts;
  opts.k = 1;
  const std::vector<double> propagated = PropagateNumeric(index, rep_scores, opts);
  for (size_t i = 0; i < index.num_records(); ++i) {
    EXPECT_NEAR(propagated[i], rep_scores[index.topk().RepId(i, 0)], 1e-9);
  }
}

TEST(PropagationTest, LimitScoresPreserveScoreOrdering) {
  data::Dataset ds = SmallDataset();
  TastiIndex index = BuildSmallIndex(ds);
  CountScorer scorer(data::ObjectClass::kCar);
  const std::vector<double> rep_scores = RepresentativeScores(index, scorer);
  const std::vector<double> limit_scores = PropagateLimit(index, rep_scores);
  for (size_t i = 0; i < index.num_records(); ++i) {
    // The primary key is the best score among the stored k neighbors; the
    // tie-break bonus never crosses an integer score boundary.
    double best = rep_scores[index.topk().RepId(i, 0)];
    for (size_t j = 1; j < index.k(); ++j) {
      best = std::max(best, rep_scores[index.topk().RepId(i, j)]);
    }
    EXPECT_GE(limit_scores[i], best);
    EXPECT_LT(limit_scores[i], best + 1.0);
  }
}

TEST(PropagationTest, LimitRanksRecordsNearPositiveRepsFirst) {
  data::Dataset ds = SmallDataset();
  TastiIndex index = BuildSmallIndex(ds);
  AtLeastCountScorer predicate(data::ObjectClass::kCar, 2);
  const std::vector<double> rep_scores = RepresentativeScores(index, predicate);
  const std::vector<double> limit_scores = PropagateLimit(index, rep_scores);
  // Any record with a positive-scoring representative among its stored
  // neighbors must outrank every record with none.
  double min_with = 2.0, max_without = -1.0;
  for (size_t i = 0; i < index.num_records(); ++i) {
    bool has_positive = false;
    for (size_t j = 0; j < index.k(); ++j) {
      has_positive |= rep_scores[index.topk().RepId(i, j)] >= 0.5;
    }
    if (has_positive) {
      min_with = std::min(min_with, limit_scores[i]);
    } else {
      max_without = std::max(max_without, limit_scores[i]);
    }
  }
  if (min_with <= 1.0 && max_without >= 0.0) {
    EXPECT_GT(min_with, max_without);
  }
}

TEST(PropagationTest, ProxyQualityBeatsConstantBaseline) {
  // The propagated count proxy should correlate substantially with truth.
  data::Dataset ds = SmallDataset(4000);
  IndexOptions opts = FastIndexOptions();
  opts.num_representatives = 400;
  opts.num_training_records = 400;
  TastiIndex index = BuildSmallIndex(ds, opts);
  CountScorer scorer(data::ObjectClass::kCar);
  const std::vector<double> proxy = ComputeProxyScores(index, scorer);
  const std::vector<double> exact = ExactScores(ds, scorer);
  EXPECT_GT(PearsonCorrelation(proxy, exact), 0.5);
}

// ---------- Cracking ----------

TEST(CrackingTest, AddRepresentativeGrowsIndex) {
  data::Dataset ds = SmallDataset();
  TastiIndex index = BuildSmallIndex(ds);
  const size_t before = index.num_representatives();
  size_t new_record = 0;
  while (index.IsRepresentative(new_record)) ++new_record;
  index.AddRepresentative(new_record, ds.ground_truth[new_record]);
  EXPECT_EQ(index.num_representatives(), before + 1);
  EXPECT_TRUE(index.IsRepresentative(new_record));
  EXPECT_EQ(index.rep_embeddings().rows(), before + 1);
  // The new rep is its own nearest representative at distance 0.
  EXPECT_NEAR(index.topk().Dist(new_record, 0), 0.0f, 1e-5f);
  EXPECT_EQ(index.topk().RepId(new_record, 0), static_cast<uint32_t>(before));
}

TEST(CrackingTest, SingleAddsReallocateGeometricallyNotPerAdd) {
  data::Dataset ds = SmallDataset();
  TastiIndex index = BuildSmallIndex(ds);

  // P single-record cracks must trigger O(log P) capacity changes of the
  // representative matrix, not one full-matrix copy per add (the old
  // quadratic growth: each AddRepresentative rebuilt rep_embeddings_).
  constexpr size_t kAdds = 64;
  size_t capacity_changes = 0;
  size_t prev_capacity = index.rep_embeddings().row_capacity();
  size_t record = 0;
  for (size_t added = 0; added < kAdds; ++record) {
    ASSERT_LT(record, ds.size());
    if (index.IsRepresentative(record)) continue;
    index.AddRepresentative(record, ds.ground_truth[record]);
    ++added;
    const size_t capacity = index.rep_embeddings().row_capacity();
    if (capacity != prev_capacity) {
      ++capacity_changes;
      prev_capacity = capacity;
    }
  }
  EXPECT_LE(capacity_changes, 8u)
      << "rep matrix reallocated per add instead of amortized doubling";
  EXPECT_GE(index.rep_embeddings().row_capacity(),
            index.rep_embeddings().rows());
}

TEST(CrackingTest, AddExistingRepIsNoop) {
  data::Dataset ds = SmallDataset();
  TastiIndex index = BuildSmallIndex(ds);
  const size_t before = index.num_representatives();
  const size_t existing = index.rep_record_ids()[0];
  index.AddRepresentative(existing, ds.ground_truth[existing]);
  EXPECT_EQ(index.num_representatives(), before);
}

TEST(CrackingTest, DuplicateIdInOneBatchAddsOneRep) {
  data::Dataset ds = SmallDataset();
  TastiIndex index = BuildSmallIndex(ds);
  const size_t before = index.num_representatives();
  size_t record = 0;
  while (index.IsRepresentative(record)) ++record;
  EXPECT_EQ(index.CrackFromLabels({record, record}, {ds.ground_truth[record],
                                                     ds.ground_truth[record]}),
            1u);
  ASSERT_EQ(index.num_representatives(), before + 1);
  EXPECT_EQ(index.rep_record_ids().back(), record);
  EXPECT_EQ(index.rep_embeddings().rows(), before + 1);
}

TEST(CrackingTest, CrackFromCacheAddsQueryLabels) {
  data::Dataset ds = SmallDataset();
  TastiIndex index = BuildSmallIndex(ds);
  labeler::SimulatedLabeler oracle(&ds);
  labeler::CachingLabeler cache(&oracle);
  // Simulate a query labeling some records.
  std::vector<size_t> touched;
  for (size_t record = 0; touched.size() < 20; ++record) {
    if (!index.IsRepresentative(record)) {
      cache.Label(record);
      touched.push_back(record);
    }
  }
  const size_t before = index.num_representatives();
  const size_t added = index.CrackFrom(cache);
  EXPECT_EQ(added, touched.size());
  EXPECT_EQ(index.num_representatives(), before + touched.size());
}

TEST(CrackingTest, CrackingNeverIncreasesNearestDistance) {
  data::Dataset ds = SmallDataset();
  TastiIndex index = BuildSmallIndex(ds);
  std::vector<float> before(index.num_records());
  for (size_t i = 0; i < index.num_records(); ++i) {
    before[i] = index.topk().Dist(i, 0);
  }
  size_t new_record = 1;
  while (index.IsRepresentative(new_record)) ++new_record;
  index.AddRepresentative(new_record, ds.ground_truth[new_record]);
  for (size_t i = 0; i < index.num_records(); ++i) {
    EXPECT_LE(index.topk().Dist(i, 0), before[i] + 1e-6f);
  }
}

// ---------- Streaming ingestion & retained embedder ----------

TEST(StreamingTest, BuildRetainsEmbedder) {
  data::Dataset ds = SmallDataset();
  TastiIndex index = BuildSmallIndex(ds);
  ASSERT_NE(index.embedder(), nullptr);
  EXPECT_EQ(index.embedder()->embedding_dim(), 16u);
  // Pretrained variant retains the pretrained embedder.
  IndexOptions pt_opts = FastIndexOptions();
  pt_opts.use_triplet_training = false;
  TastiIndex pt = BuildSmallIndex(ds, pt_opts);
  ASSERT_NE(pt.embedder(), nullptr);
}

TEST(StreamingTest, AppendRecordsExtendsIndex) {
  data::Dataset ds = SmallDataset(1500);
  TastiIndex index = BuildSmallIndex(ds);
  const size_t before = index.num_records();

  // New footage: 300 more frames from the same camera.
  data::DatasetOptions more_opts;
  more_opts.num_records = 300;
  more_opts.seed = 77;
  data::Dataset more = data::MakeNightStreet(more_opts);
  const size_t first_new = index.AppendRecords(more.features);
  EXPECT_EQ(first_new, before);
  EXPECT_EQ(index.num_records(), before + 300);
  EXPECT_EQ(index.topk().num_records, before + 300);
  // New records have valid, ascending min-k lists over existing reps.
  for (size_t i = first_new; i < index.num_records(); ++i) {
    for (size_t j = 0; j < index.k(); ++j) {
      EXPECT_LT(index.topk().RepId(i, j), index.num_representatives());
      if (j > 0) {
        EXPECT_LE(index.topk().Dist(i, j - 1), index.topk().Dist(i, j));
      }
    }
    EXPECT_FALSE(index.IsRepresentative(i));
  }
}

TEST(StreamingTest, AppendedRecordsGetProxyScores) {
  data::Dataset ds = SmallDataset(1500);
  TastiIndex index = BuildSmallIndex(ds);
  data::DatasetOptions more_opts;
  more_opts.num_records = 200;
  more_opts.seed = 78;
  data::Dataset more = data::MakeNightStreet(more_opts);
  index.AppendRecords(more.features);

  CountScorer scorer(data::ObjectClass::kCar);
  const auto proxy = ComputeProxyScores(index, scorer);
  EXPECT_EQ(proxy.size(), index.num_records());
  // Appended records' scores lie within the representative score range.
  const auto rep_scores = RepresentativeScores(index, scorer);
  const double lo = *std::min_element(rep_scores.begin(), rep_scores.end());
  const double hi = *std::max_element(rep_scores.begin(), rep_scores.end());
  for (size_t i = 1500; i < proxy.size(); ++i) {
    EXPECT_GE(proxy[i], lo - 1e-9);
    EXPECT_LE(proxy[i], hi + 1e-9);
  }
}

TEST(StreamingTest, AppendedRecordsCanBeCracked) {
  data::Dataset ds = SmallDataset(1000);
  TastiIndex index = BuildSmallIndex(ds);
  data::DatasetOptions more_opts;
  more_opts.num_records = 100;
  more_opts.seed = 79;
  data::Dataset more = data::MakeNightStreet(more_opts);
  const size_t first_new = index.AppendRecords(more.features);
  const size_t before = index.num_representatives();
  index.AddRepresentative(first_new, more.ground_truth[0]);
  EXPECT_EQ(index.num_representatives(), before + 1);
  EXPECT_TRUE(index.IsRepresentative(first_new));
  EXPECT_NEAR(index.topk().Dist(first_new, 0), 0.0f, 1e-5f);
}

TEST(StreamingTest, LoadedIndexCanAppend) {
  data::Dataset ds = SmallDataset(800);
  IndexOptions opts = FastIndexOptions();
  opts.num_representatives = 80;
  opts.num_training_records = 80;
  TastiIndex index = BuildSmallIndex(ds, opts);
  Result<TastiIndex> loaded = IndexSerializer::DeserializeFromString(
      IndexSerializer::SerializeToString(index).value());
  ASSERT_TRUE(loaded.ok());
  ASSERT_NE(loaded->embedder(), nullptr);

  data::DatasetOptions more_opts;
  more_opts.num_records = 50;
  more_opts.seed = 81;
  data::Dataset more = data::MakeNightStreet(more_opts);
  loaded->AppendRecords(more.features);
  EXPECT_EQ(loaded->num_records(), 850u);

  // The loaded (trained) embedder reproduces the original's geometry: the
  // appended rows' nearest reps match what the original index computes.
  index.AppendRecords(more.features);
  for (size_t i = 800; i < 850; ++i) {
    EXPECT_EQ(loaded->topk().RepId(i, 0), index.topk().RepId(i, 0));
  }
}

// ---------- Index statistics ----------

TEST(IndexStatsTest, ComputesCoverageAndBalance) {
  data::Dataset ds = SmallDataset();
  TastiIndex index = BuildSmallIndex(ds);
  IndexStats stats = ComputeIndexStats(index);
  EXPECT_EQ(stats.num_records, ds.size());
  EXPECT_EQ(stats.num_representatives, index.num_representatives());
  EXPECT_GE(stats.max_nearest_distance, stats.p99_nearest_distance);
  EXPECT_GE(stats.p99_nearest_distance, stats.mean_nearest_distance);
  EXPECT_GT(stats.mean_nearest_distance, 0.0);
  EXPECT_GE(stats.largest_cluster, 1u);
  EXPECT_NEAR(stats.mean_cluster_size,
              static_cast<double>(ds.size()) / index.num_representatives(),
              1e-9);
  EXPECT_FALSE(stats.ToString().empty());
}

TEST(IndexStatsTest, MoreRepsShrinkCoverage) {
  data::Dataset ds = SmallDataset();
  IndexOptions small_opts = FastIndexOptions();
  small_opts.num_representatives = 50;
  IndexOptions large_opts = FastIndexOptions();
  large_opts.num_representatives = 400;
  TastiIndex small = BuildSmallIndex(ds, small_opts);
  TastiIndex large = BuildSmallIndex(ds, large_opts);
  EXPECT_LT(ComputeIndexStats(large).mean_nearest_distance,
            ComputeIndexStats(small).mean_nearest_distance);
}

TEST(IndexStatsTest, CrackingShrinksCoverage) {
  data::Dataset ds = SmallDataset();
  TastiIndex index = BuildSmallIndex(ds);
  const double before = ComputeIndexStats(index).mean_nearest_distance;
  size_t added = 0;
  for (size_t record = 0; record < ds.size() && added < 100; ++record) {
    if (!index.IsRepresentative(record)) {
      index.AddRepresentative(record, ds.ground_truth[record]);
      ++added;
    }
  }
  EXPECT_LE(ComputeIndexStats(index).mean_nearest_distance, before);
}

TEST(IndexStatsTest, FpfRepsOverCoverRareTail) {
  // FPF clustering should allocate representatives to rare busy frames at
  // a rate far above their base frequency — the mechanism behind the
  // paper's limit-query results.
  data::DatasetOptions ds_opts;
  ds_opts.num_records = 8000;
  ds_opts.seed = 42;
  data::Dataset ds = data::MakeNightStreet(ds_opts);
  IndexOptions opts = FastIndexOptions();
  opts.num_representatives = 400;
  opts.num_training_records = 400;
  TastiIndex index = BuildSmallIndex(ds, opts);

  AtLeastCountScorer busy(data::ObjectClass::kCar, 4);
  size_t busy_total = 0;
  for (const auto& label : ds.ground_truth) {
    if (busy.Score(label) >= 0.5) ++busy_total;
  }
  size_t busy_reps = 0;
  for (const auto& label : index.rep_labels()) {
    if (busy.Score(label) >= 0.5) ++busy_reps;
  }
  if (busy_total < 10) GTEST_SKIP() << "too few rare events at this scale";
  const double base_rate = static_cast<double>(busy_total) / ds.size();
  const double rep_rate =
      static_cast<double>(busy_reps) / index.num_representatives();
  EXPECT_GT(rep_rate, base_rate);
}

// ---------- Drift detection ----------

TEST(DriftTest, NoDriftOnSameDistribution) {
  data::Dataset ds = SmallDataset(1500);
  TastiIndex index = BuildSmallIndex(ds);
  // More footage statistically identical to the indexed stretch (a replay
  // of a slice of it): no drift.
  const nn::Matrix replay = ds.features.RowSlice(1000, 1500);
  const size_t first_new = index.AppendRecords(replay);
  const DriftReport report = DetectDrift(index, first_new);
  EXPECT_FALSE(report.drifted) << report.ToString();
  EXPECT_NEAR(report.mean_ratio, 1.0, 0.25);
}

TEST(DriftTest, DetectsDistributionShift) {
  data::Dataset ds = SmallDataset(1500);
  TastiIndex index = BuildSmallIndex(ds);
  // The camera now watches a different scene: taipei footage through the
  // night-street sensor geometry (same feature width).
  data::DatasetOptions shifted_opts;
  shifted_opts.num_records = 500;
  shifted_opts.seed = 99;
  data::Dataset shifted = data::MakeTaipei(shifted_opts);
  const size_t first_new = index.AppendRecords(shifted.features);
  const DriftReport report = DetectDrift(index, first_new);
  EXPECT_TRUE(report.drifted) << report.ToString();
  EXPECT_GT(report.recent_mean, report.baseline_mean);
  EXPECT_FALSE(report.ToString().empty());
}

TEST(DriftTest, TopKOverloadMatchesTheIndexOverload) {
  // The serving monitor detects drift from an IndexSnapshot's copied
  // min-k lists without holding the index; the two entry points must
  // agree exactly.
  data::Dataset ds = SmallDataset(1500);
  TastiIndex index = BuildSmallIndex(ds);
  data::DatasetOptions shifted_opts;
  shifted_opts.num_records = 300;
  shifted_opts.seed = 97;
  data::Dataset shifted = data::MakeTaipei(shifted_opts);
  const size_t first_new = index.AppendRecords(shifted.features);

  const DriftReport via_index = DetectDrift(index, first_new);
  const DriftReport via_topk =
      DetectDrift(index.topk(), index.num_records(), first_new);
  EXPECT_DOUBLE_EQ(via_topk.baseline_mean, via_index.baseline_mean);
  EXPECT_DOUBLE_EQ(via_topk.recent_mean, via_index.recent_mean);
  EXPECT_DOUBLE_EQ(via_topk.mean_ratio, via_index.mean_ratio);
  EXPECT_EQ(via_topk.drifted, via_index.drifted);
}

TEST(DriftTest, DegradedIndexStillDetectsShift) {
  // An index built against a faulty oracle keeps its failed
  // representatives (marked invalid) — drift detection works off min-k
  // distances, which exist regardless of annotation state, so a degraded
  // index must still flag a scene change.
  data::Dataset ds = SmallDataset(1500);
  labeler::SimulatedLabeler sim(&ds);
  labeler::FaultSchedule sched;
  sched.permanent_rate = 0.05;
  sched.seed = 11;
  labeler::FaultInjectingLabeler inj(&sim, sched);
  TastiIndex index = TastiIndex::Build(ds, &inj, FastIndexOptions());
  ASSERT_GT(index.num_failed_representatives(), 0u);

  data::DatasetOptions shifted_opts;
  shifted_opts.num_records = 400;
  shifted_opts.seed = 99;
  data::Dataset shifted = data::MakeTaipei(shifted_opts);
  const size_t first_new = index.AppendRecords(shifted.features);
  const DriftReport report = DetectDrift(index, first_new);
  EXPECT_TRUE(report.drifted) << report.ToString();
  EXPECT_GT(report.mean_ratio, 1.3);
}

TEST(DriftTest, CrackingRestoresCoverage) {
  data::Dataset ds = SmallDataset(1500);
  TastiIndex index = BuildSmallIndex(ds);
  data::DatasetOptions shifted_opts;
  shifted_opts.num_records = 400;
  shifted_opts.seed = 98;
  data::Dataset shifted = data::MakeTaipei(shifted_opts);
  const size_t first_new = index.AppendRecords(shifted.features);
  const DriftReport before = DetectDrift(index, first_new);
  // Crack in labels for a slice of the new records.
  for (size_t i = 0; i < 100; ++i) {
    index.AddRepresentative(first_new + i * 4, shifted.ground_truth[i * 4]);
  }
  const DriftReport after = DetectDrift(index, first_new);
  EXPECT_LT(after.recent_mean, before.recent_mean);
}

// ---------- Serialization ----------

TEST(SerializeTest, RoundTripPreservesIndex) {
  data::Dataset ds = SmallDataset();
  TastiIndex index = BuildSmallIndex(ds);
  const std::string buffer = IndexSerializer::SerializeToString(index).value();
  Result<TastiIndex> loaded = IndexSerializer::DeserializeFromString(buffer);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  const TastiIndex& restored = *loaded;
  EXPECT_EQ(restored.num_records(), index.num_records());
  EXPECT_EQ(restored.num_representatives(), index.num_representatives());
  EXPECT_EQ(restored.k(), index.k());
  for (size_t i = 0; i < index.num_representatives(); ++i) {
    EXPECT_EQ(restored.rep_record_ids()[i], index.rep_record_ids()[i]);
    EXPECT_EQ(data::CountBoxes(restored.rep_labels()[i]),
              data::CountBoxes(index.rep_labels()[i]));
  }
  for (size_t i = 0; i < index.topk().distances.size(); ++i) {
    EXPECT_EQ(restored.topk().distances[i], index.topk().distances[i]);
    EXPECT_EQ(restored.topk().rep_ids[i], index.topk().rep_ids[i]);
  }
}

TEST(SerializeTest, RoundTripProxiesMatch) {
  data::Dataset ds = SmallDataset();
  TastiIndex index = BuildSmallIndex(ds);
  CountScorer scorer(data::ObjectClass::kCar);
  const std::vector<double> before = ComputeProxyScores(index, scorer);
  Result<TastiIndex> loaded = IndexSerializer::DeserializeFromString(
      IndexSerializer::SerializeToString(index).value());
  ASSERT_TRUE(loaded.ok());
  const std::vector<double> after = ComputeProxyScores(*loaded, scorer);
  ASSERT_EQ(before.size(), after.size());
  for (size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(before[i], after[i]);
  }
}

TEST(SerializeTest, FileRoundTrip) {
  data::Dataset ds = SmallDataset(500);
  IndexOptions opts = FastIndexOptions();
  opts.num_representatives = 50;
  opts.num_training_records = 50;
  TastiIndex index = BuildSmallIndex(ds, opts);
  const std::string path = ::testing::TempDir() + "/tasti_index.bin";
  ASSERT_TRUE(IndexSerializer::Save(index, path).ok());
  Result<TastiIndex> loaded = IndexSerializer::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->num_representatives(), index.num_representatives());
  std::remove(path.c_str());
}

TEST(SerializeTest, RejectsGarbage) {
  Result<TastiIndex> r = IndexSerializer::DeserializeFromString("not an index");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(SerializeTest, RejectsTruncatedBuffer) {
  data::Dataset ds = SmallDataset(300);
  IndexOptions opts = FastIndexOptions();
  opts.num_representatives = 30;
  opts.num_training_records = 30;
  TastiIndex index = BuildSmallIndex(ds, opts);
  std::string buffer = IndexSerializer::SerializeToString(index).value();
  buffer.resize(buffer.size() / 2);
  Result<TastiIndex> r = IndexSerializer::DeserializeFromString(buffer);
  EXPECT_FALSE(r.ok());
}

TEST(SerializeTest, HugeRepIdCountIsRejected) {
  // A valid footer over: header, two 0x0 matrices, then a representative
  // id count of 2^61. Its byte size (2^61 * 8) wraps to zero, so the count
  // must be bounded by the bytes left, not by that product.
  std::string buffer;
  for (uint32_t word : {0x54535449u, 3u}) PutPod(&buffer, word);
  for (uint64_t word : {uint64_t{5}, uint64_t{16}, uint64_t{0}, uint64_t{0},
                        uint64_t{0}, uint64_t{0}, uint64_t{1} << 61}) {
    PutPod(&buffer, word);
  }
  AppendChecksumFooter(&buffer);
  Result<TastiIndex> r = IndexSerializer::DeserializeFromString(buffer);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(SerializeTest, TrailingBytesAreRejected) {
  // Sixteen bytes after the embedder block, under a footer recomputed over
  // them: the payload decodes in full but is not the whole buffer.
  data::Dataset ds = SmallDataset(200);
  IndexOptions opts = FastIndexOptions();
  opts.num_representatives = 30;
  opts.num_training_records = 30;
  const std::string buffer =
      IndexSerializer::SerializeToString(BuildSmallIndex(ds, opts)).value();
  ASSERT_TRUE(IndexSerializer::DeserializeFromString(buffer).ok());
  std::string padded = buffer.substr(0, VerifyChecksumFooter(buffer).value());
  padded.append(16, '\x5a');
  AppendChecksumFooter(&padded);
  Result<TastiIndex> r = IndexSerializer::DeserializeFromString(padded);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

// One seeded corruption of `payload`: a random byte, a boundary value (a
// huge count, shape or id) written over up to 8 bytes, or a truncation.
void Mutate(Rng* rng, std::string* payload) {
  static constexpr uint64_t kBoundary[] = {0,          1,          0xFF,
                                           0x7FFFFFFF, 0xFFFFFFFF, 1ull << 32,
                                           1ull << 40, 1ull << 61, 1ull << 63,
                                           ~0ull};
  const size_t at = rng->UniformInt(payload->size());
  switch (rng->UniformInt(3)) {
    case 0:
      (*payload)[at] = static_cast<char>(rng->UniformInt(256));
      break;
    case 1: {
      const uint64_t value = kBoundary[rng->UniformInt(std::size(kBoundary))];
      std::memcpy(payload->data() + at, &value,
                  std::min(sizeof(value), payload->size() - at));
      break;
    }
    default:
      payload->resize(at);
  }
}

TEST(SerializeTest, MutatedBuffersDecodeOrFailCleanly) {
  // The footer is recomputed after each mutation, so every input reaches
  // the payload decoder. Each must either decode into an index that is
  // safe to propagate over or return a Status; none may abort.
  data::Dataset ds = SmallDataset(60);
  CountScorer scorer(data::ObjectClass::kCar);
  Rng rng(2024);
  for (bool trained : {false, true}) {
    IndexOptions opts = FastIndexOptions();
    opts.use_triplet_training = trained;
    opts.num_training_records = 20;
    opts.num_representatives = 8;
    opts.embedding_dim = 4;
    opts.hidden_dim = 8;
    opts.epochs = 2;
    opts.k = 3;
    const std::string buffer =
        IndexSerializer::SerializeToString(BuildSmallIndex(ds, opts)).value();
    const std::string payload =
        buffer.substr(0, VerifyChecksumFooter(buffer).value());
    for (int trial = 0; trial < 3000; ++trial) {
      std::string mutated = payload;
      Mutate(&rng, &mutated);
      AppendChecksumFooter(&mutated);
      Result<TastiIndex> r = IndexSerializer::DeserializeFromString(mutated);
      if (!r.ok()) continue;
      EXPECT_EQ(ComputeProxyScores(*r, scorer).size(), r->num_records());
    }
  }
}

TEST(SerializeTest, LoadMissingFileFails) {
  Result<TastiIndex> r = IndexSerializer::Load("/nonexistent/path/index.bin");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIOError);
}

TEST(SerializeTest, CrackingWorksAfterLoad) {
  data::Dataset ds = SmallDataset(500);
  IndexOptions opts = FastIndexOptions();
  opts.num_representatives = 50;
  opts.num_training_records = 50;
  TastiIndex index = BuildSmallIndex(ds, opts);
  Result<TastiIndex> loaded = IndexSerializer::DeserializeFromString(
      IndexSerializer::SerializeToString(index).value());
  ASSERT_TRUE(loaded.ok());
  size_t new_record = 0;
  while (loaded->IsRepresentative(new_record)) ++new_record;
  const size_t before = loaded->num_representatives();
  loaded->AddRepresentative(new_record, ds.ground_truth[new_record]);
  EXPECT_EQ(loaded->num_representatives(), before + 1);
}

}  // namespace
}  // namespace tasti::core
