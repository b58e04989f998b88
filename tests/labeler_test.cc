// Unit tests for labeler/: simulated and degraded labelers, the caching
// wrapper, invocation counting, the label codec, and the Table 1 cost
// model.

#include <gtest/gtest.h>

#include <string>

#include "data/dataset.h"
#include "labeler/cost_model.h"
#include "labeler/label_codec.h"
#include "labeler/labeler.h"
#include "obs/query_log.h"

namespace tasti::labeler {
namespace {

data::Dataset SmallVideoDataset() {
  data::DatasetOptions opts;
  opts.num_records = 300;
  return data::MakeNightStreet(opts);
}

TEST(SimulatedLabelerTest, ReturnsGroundTruthAndCounts) {
  data::Dataset ds = SmallVideoDataset();
  SimulatedLabeler labeler(&ds);
  EXPECT_EQ(labeler.num_records(), 300u);
  EXPECT_EQ(labeler.invocations(), 0u);
  for (size_t i = 0; i < 10; ++i) {
    const data::LabelerOutput out = labeler.Label(i);
    EXPECT_EQ(data::CountBoxes(out), data::CountBoxes(ds.ground_truth[i]));
  }
  EXPECT_EQ(labeler.invocations(), 10u);
  labeler.ResetInvocations();
  EXPECT_EQ(labeler.invocations(), 0u);
}

TEST(SimulatedLabelerTest, RepeatedLabelsCountEachTime) {
  data::Dataset ds = SmallVideoDataset();
  SimulatedLabeler labeler(&ds);
  labeler.Label(5);
  labeler.Label(5);
  labeler.Label(5);
  EXPECT_EQ(labeler.invocations(), 3u);
}

TEST(DegradedLabelerTest, DropsSomeBoxes) {
  data::Dataset ds = SmallVideoDataset();
  DegradationOptions opts;
  opts.miss_probability = 0.5;
  opts.false_positive_rate = 0.0;
  DegradedLabeler degraded(&ds, opts);
  size_t truth_total = 0, detected_total = 0;
  for (size_t i = 0; i < ds.size(); ++i) {
    truth_total += data::CountBoxes(ds.ground_truth[i]);
    detected_total += data::CountBoxes(degraded.Label(i));
  }
  ASSERT_GT(truth_total, 0u);
  // Roughly half the boxes survive.
  EXPECT_LT(detected_total, truth_total * 3 / 4);
  EXPECT_GT(detected_total, truth_total / 4);
}

TEST(DegradedLabelerTest, DeterministicPerRecord) {
  data::Dataset ds = SmallVideoDataset();
  DegradedLabeler degraded(&ds, DegradationOptions{});
  const data::LabelerOutput a = degraded.Label(7);
  const data::LabelerOutput b = degraded.Label(7);
  EXPECT_EQ(data::CountBoxes(a), data::CountBoxes(b));
}

TEST(DegradedLabelerTest, ProducesFalsePositivesOnEmptyFrames) {
  data::Dataset ds = SmallVideoDataset();
  DegradationOptions opts;
  opts.miss_probability = 1.0;  // drop every true box
  opts.false_positive_rate = 0.5;
  DegradedLabeler degraded(&ds, opts);
  size_t spurious = 0;
  for (size_t i = 0; i < ds.size(); ++i) {
    spurious += data::CountBoxes(degraded.Label(i));
  }
  EXPECT_GT(spurious, 0u);
}

TEST(DegradedLabelerTest, NonVideoPassesThrough) {
  data::DatasetOptions opts;
  opts.num_records = 50;
  data::Dataset ds = data::MakeWikiSql(opts);
  DegradedLabeler degraded(&ds, DegradationOptions{});
  for (size_t i = 0; i < 10; ++i) {
    const auto out = degraded.Label(i);
    const auto* text = std::get_if<data::TextLabel>(&out);
    const auto* truth = std::get_if<data::TextLabel>(&ds.ground_truth[i]);
    ASSERT_NE(text, nullptr);
    EXPECT_EQ(text->op, truth->op);
    EXPECT_EQ(text->num_predicates, truth->num_predicates);
  }
}

TEST(CachingLabelerTest, DeduplicatesInvocations) {
  data::Dataset ds = SmallVideoDataset();
  SimulatedLabeler oracle(&ds);
  CachingLabeler cache(&oracle);
  cache.Label(3);
  cache.Label(3);
  cache.Label(4);
  cache.Label(3);
  EXPECT_EQ(oracle.invocations(), 2u);
  EXPECT_EQ(cache.invocations(), 2u);
  ASSERT_EQ(cache.labeled_indices().size(), 2u);
  EXPECT_EQ(cache.labeled_indices()[0], 3u);
  EXPECT_EQ(cache.labeled_indices()[1], 4u);
}

TEST(CachingLabelerTest, CachedLabelLookup) {
  data::Dataset ds = SmallVideoDataset();
  SimulatedLabeler oracle(&ds);
  CachingLabeler cache(&oracle);
  EXPECT_FALSE(cache.CachedLabel(9).has_value());
  cache.Label(9);
  ASSERT_TRUE(cache.CachedLabel(9).has_value());
  EXPECT_EQ(data::CountBoxes(*cache.CachedLabel(9)),
            data::CountBoxes(ds.ground_truth[9]));
}

TEST(CachingLabelerTest, ClearCacheForcesRelabel) {
  data::Dataset ds = SmallVideoDataset();
  SimulatedLabeler oracle(&ds);
  CachingLabeler cache(&oracle);
  cache.Label(1);
  cache.ClearCache();
  EXPECT_TRUE(cache.labeled_indices().empty());
  cache.Label(1);
  EXPECT_EQ(oracle.invocations(), 2u);
}

// ---------- Wrapper invocation contract ----------
//
// TargetLabeler::invocations() is documented as "including those of
// wrapped labelers": every wrapper must delegate counting to its inner
// labeler so that, however deep the wrapping (caching inside timing
// inside caching...), all layers agree with the base oracle. These are
// regression tests for the per-query attribution in obs::QueryLog, which
// relies on deltas of the base counter.

TEST(WrapperContractTest, NestedCachingChainsAgreeWithOracle) {
  data::Dataset ds = SmallVideoDataset();
  SimulatedLabeler oracle(&ds);
  CachingLabeler inner(&oracle);
  CachingLabeler outer(&inner);
  outer.Label(3);
  outer.Label(3);  // outer cache hit: no new invocation anywhere
  inner.Label(3);  // inner cache hit
  outer.Label(4);
  EXPECT_EQ(oracle.invocations(), 2u);
  EXPECT_EQ(inner.invocations(), 2u);
  EXPECT_EQ(outer.invocations(), 2u);
}

TEST(WrapperContractTest, ResetPropagatesToTheBaseOracle) {
  data::Dataset ds = SmallVideoDataset();
  SimulatedLabeler oracle(&ds);
  CachingLabeler cache(&oracle);
  obs::TimedLabeler timed(&cache, nullptr);
  timed.Label(0);
  timed.Label(1);
  EXPECT_EQ(timed.invocations(), 2u);
  timed.ResetInvocations();
  EXPECT_EQ(oracle.invocations(), 0u);
  EXPECT_EQ(cache.invocations(), 0u);
  EXPECT_EQ(timed.invocations(), 0u);
}

TEST(WrapperContractTest, TimedLabelerDelegatesCountingAndRecords) {
  data::Dataset ds = SmallVideoDataset();
  SimulatedLabeler oracle(&ds);
  obs::TimedLabeler timed(&oracle, nullptr);
  EXPECT_EQ(timed.num_records(), oracle.num_records());
  const data::LabelerOutput out = timed.Label(6);
  EXPECT_EQ(data::CountBoxes(out), data::CountBoxes(ds.ground_truth[6]));
  EXPECT_EQ(timed.invocations(), 1u);
  EXPECT_EQ(oracle.invocations(), 1u);
  EXPECT_GE(timed.seconds(), 0.0);
}

TEST(WrapperContractTest, TimedOverCachingChargesLikeCaching) {
  // Timing must not perturb counting: a cache hit through the timed
  // wrapper still costs zero oracle invocations.
  data::Dataset ds = SmallVideoDataset();
  SimulatedLabeler oracle(&ds);
  CachingLabeler cache(&oracle);
  obs::TimedLabeler timed(&cache, nullptr);
  timed.Label(7);
  timed.Label(7);
  timed.Label(7);
  EXPECT_EQ(oracle.invocations(), 1u);
  EXPECT_EQ(timed.invocations(), 1u);
  ASSERT_EQ(cache.labeled_indices().size(), 1u);
}

// A labeler that charges several invocations per Label() call, the way a
// crowd of independent workers bills each annotation.
class MultiWorkerLabeler : public TargetLabeler {
 public:
  MultiWorkerLabeler(const data::Dataset* ds, size_t workers)
      : oracle_(ds), workers_(workers) {}
  data::LabelerOutput Label(size_t index) override {
    invocations_ += workers_;
    return oracle_.Label(index);
  }
  size_t num_records() const override { return oracle_.num_records(); }
  size_t invocations() const override { return invocations_; }
  void ResetInvocations() override { invocations_ = 0; }

 private:
  SimulatedLabeler oracle_;
  size_t workers_;
  size_t invocations_ = 0;
};

TEST(WrapperContractTest, CrowdWrappedInCacheChargesWorkersOnce) {
  // A five-worker labeler charges five invocations per distinct record;
  // caching on top must preserve that (not collapse it to one, not
  // double-charge repeats).
  data::Dataset ds = SmallVideoDataset();
  MultiWorkerLabeler crowd(&ds, 5);
  CachingLabeler cache(&crowd);
  cache.Label(0);
  cache.Label(0);
  cache.Label(1);
  EXPECT_EQ(crowd.invocations(), 10u);
  EXPECT_EQ(cache.invocations(), 10u);
}

// ---------- Label codec ----------

TEST(LabelCodecTest, BoxCountBeyondBufferIsRejected) {
  // A video tag followed by a box count of 2^32 - 1 and no boxes: the
  // count must be refused before any boxes are reserved for it.
  const std::string buffer("\x00\xff\xff\xff\xff", 5);
  size_t at = 0;
  data::LabelerOutput label;
  EXPECT_FALSE(DecodeLabel(buffer, &at, &label));
}

// ---------- Cost model ----------

TEST(CostModelTest, ExhaustiveCostsScaleWithRecords) {
  CostModel model;
  // The paper's Table 1 ratios: Mask R-CNN exhaustive is 50x SSD.
  const double mask = model.LabelCost(LabelerKind::kMaskRCnn, 973000);
  const double ssd = model.LabelCost(LabelerKind::kSsd, 973000);
  EXPECT_NEAR(mask / ssd, 50.0, 1.0);
  // Human labeling is in dollars.
  EXPECT_NEAR(model.LabelCost(LabelerKind::kHuman, 1000), 70.0, 1e-9);
}

TEST(CostModelTest, IndexOverheadIsSmallRelativeToExhaustive) {
  CostModel model;
  const size_t n = 973000;
  const double overhead = model.IndexOverhead(LabelerKind::kMaskRCnn, n);
  const double exhaustive = model.LabelCost(LabelerKind::kMaskRCnn, n);
  EXPECT_LT(overhead, exhaustive * 0.05);
}

TEST(CostModelTest, KindNamesAndUnits) {
  EXPECT_EQ(LabelerKindName(LabelerKind::kHuman), "Human labeler");
  EXPECT_EQ(LabelerKindName(LabelerKind::kSsd), "SSD");
  EXPECT_TRUE(CostModel::IsDollars(LabelerKind::kHuman));
  EXPECT_FALSE(CostModel::IsDollars(LabelerKind::kMaskRCnn));
}

}  // namespace
}  // namespace tasti::labeler
