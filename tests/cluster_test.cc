// Unit tests for cluster/: FPF selection, its 2-approximation property,
// mixed/random selection, and top-k distance computation with cracking
// updates.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <set>

#include "cluster/fpf.h"
#include "cluster/topk.h"
#include "util/random.h"

namespace tasti::cluster {
namespace {

nn::Matrix RandomPoints(size_t n, size_t dim, uint64_t seed, float scale = 1.0f) {
  Rng rng(seed);
  nn::Matrix m(n, dim);
  for (size_t i = 0; i < m.size(); ++i) {
    m.data()[i] = static_cast<float>(rng.Normal()) * scale;
  }
  return m;
}

// Max over points of the distance to the nearest of the given centers.
float CoverageRadius(const nn::Matrix& points, const std::vector<size_t>& centers) {
  float worst = 0.0f;
  for (size_t i = 0; i < points.rows(); ++i) {
    float best = std::numeric_limits<float>::max();
    for (size_t c : centers) {
      best = std::min(best, nn::Distance(points, i, points, c));
    }
    worst = std::max(worst, best);
  }
  return worst;
}

TEST(FpfTest, SelectsRequestedCenters) {
  nn::Matrix points = RandomPoints(500, 8, 1);
  FpfResult result = FurthestPointFirst(points, 20);
  EXPECT_EQ(result.centers.size(), 20u);
  std::set<size_t> unique(result.centers.begin(), result.centers.end());
  EXPECT_EQ(unique.size(), 20u);
  EXPECT_EQ(result.min_distance.size(), 500u);
  EXPECT_EQ(result.assignment.size(), 500u);
}

TEST(FpfTest, FirstCenterIsStartIndex) {
  nn::Matrix points = RandomPoints(100, 4, 2);
  FpfResult result = FurthestPointFirst(points, 5, 42);
  EXPECT_EQ(result.centers[0], 42u);
}

TEST(FpfTest, MinDistanceIsExact) {
  nn::Matrix points = RandomPoints(200, 6, 3);
  FpfResult result = FurthestPointFirst(points, 10);
  for (size_t i = 0; i < points.rows(); ++i) {
    float best = std::numeric_limits<float>::max();
    for (size_t c : result.centers) {
      best = std::min(best, nn::Distance(points, i, points, c));
    }
    EXPECT_NEAR(result.min_distance[i], best, 1e-5f);
  }
}

TEST(FpfTest, AssignmentPointsToNearestCenter) {
  nn::Matrix points = RandomPoints(200, 6, 4);
  FpfResult result = FurthestPointFirst(points, 8);
  for (size_t i = 0; i < points.rows(); ++i) {
    const size_t assigned = result.centers[result.assignment[i]];
    const float assigned_dist = nn::Distance(points, i, points, assigned);
    EXPECT_NEAR(assigned_dist, result.min_distance[i], 1e-5f);
  }
}

TEST(FpfTest, CentersAreSpreadAcrossSeparatedClusters) {
  // Three well-separated blobs: with k=3, FPF must pick one center per blob.
  Rng rng(5);
  nn::Matrix points(300, 2);
  for (size_t i = 0; i < 300; ++i) {
    const int blob = static_cast<int>(i / 100);
    points.At(i, 0) = static_cast<float>(blob * 100.0 + rng.Normal());
    points.At(i, 1) = static_cast<float>(rng.Normal());
  }
  FpfResult result = FurthestPointFirst(points, 3);
  std::set<int> blobs;
  for (size_t c : result.centers) blobs.insert(static_cast<int>(c / 100));
  EXPECT_EQ(blobs.size(), 3u);
}

TEST(FpfTest, TwoApproximationOfOptimalRadius) {
  // Gonzalez guarantees coverage radius <= 2 * optimal. We verify against
  // a brute-force optimum on a tiny instance (n = 12, k = 3).
  nn::Matrix points = RandomPoints(12, 3, 6);
  FpfResult fpf = FurthestPointFirst(points, 3);
  const float fpf_radius = CoverageRadius(points, fpf.centers);

  float best_radius = std::numeric_limits<float>::max();
  for (size_t a = 0; a < 12; ++a)
    for (size_t b = a + 1; b < 12; ++b)
      for (size_t c = b + 1; c < 12; ++c) {
        best_radius = std::min(best_radius, CoverageRadius(points, {a, b, c}));
      }
  EXPECT_LE(fpf_radius, 2.0f * best_radius + 1e-5f);
}

TEST(FpfTest, RadiusDecreasesMonotonicallyInK) {
  nn::Matrix points = RandomPoints(400, 5, 7);
  float previous = std::numeric_limits<float>::max();
  for (size_t k : {2, 8, 32, 128}) {
    FpfResult result = FurthestPointFirst(points, k);
    const float radius =
        *std::max_element(result.min_distance.begin(), result.min_distance.end());
    EXPECT_LE(radius, previous);
    previous = radius;
  }
}

TEST(FpfTest, KLargerThanNReturnsAllPoints) {
  nn::Matrix points = RandomPoints(10, 3, 8);
  FpfResult result = FurthestPointFirst(points, 50);
  EXPECT_EQ(result.centers.size(), 10u);
}

TEST(FpfTest, DuplicatePointsStopEarly) {
  nn::Matrix points(20, 2, 1.0f);  // all identical
  FpfResult result = FurthestPointFirst(points, 5);
  EXPECT_EQ(result.centers.size(), 1u);
  for (float d : result.min_distance) EXPECT_EQ(d, 0.0f);
}

TEST(FpfTest, SubsetSelectionMapsBackToGlobalIndices) {
  nn::Matrix points = RandomPoints(100, 4, 9);
  std::vector<size_t> candidates = {5, 10, 20, 40, 60, 80, 90};
  FpfResult result = FurthestPointFirstSubset(points, candidates, 3);
  EXPECT_EQ(result.centers.size(), 3u);
  for (size_t c : result.centers) {
    EXPECT_NE(std::find(candidates.begin(), candidates.end(), c),
              candidates.end());
  }
}

TEST(MixedSelectionTest, RespectsCountAndUniqueness) {
  nn::Matrix points = RandomPoints(300, 4, 10);
  Rng rng(11);
  const auto selected = MixedFpfRandomSelection(points, 50, 0.2, &rng);
  EXPECT_EQ(selected.size(), 50u);
  std::set<size_t> unique(selected.begin(), selected.end());
  EXPECT_EQ(unique.size(), 50u);
}

TEST(MixedSelectionTest, ZeroRandomFractionIsPureFpf) {
  nn::Matrix points = RandomPoints(100, 4, 12);
  Rng rng(13);
  const auto selected = MixedFpfRandomSelection(points, 10, 0.0, &rng);
  EXPECT_EQ(selected.size(), 10u);
}

TEST(RandomSelectionTest, UniformDistinct) {
  Rng rng(14);
  const auto selected = RandomSelection(1000, 100, &rng);
  EXPECT_EQ(selected.size(), 100u);
  std::set<size_t> unique(selected.begin(), selected.end());
  EXPECT_EQ(unique.size(), 100u);
}

// ---------- Top-k ----------

TEST(TopKTest, MatchesBruteForce) {
  nn::Matrix points = RandomPoints(150, 6, 15);
  nn::Matrix reps = RandomPoints(40, 6, 16);
  const size_t k = 5;
  TopKDistances topk = ComputeTopK(points, reps, k);
  ASSERT_EQ(topk.k, k);
  for (size_t i = 0; i < points.rows(); ++i) {
    std::vector<std::pair<float, uint32_t>> all;
    for (size_t j = 0; j < reps.rows(); ++j) {
      all.emplace_back(nn::Distance(points, i, reps, j), j);
    }
    std::sort(all.begin(), all.end());
    for (size_t j = 0; j < k; ++j) {
      EXPECT_NEAR(topk.Dist(i, j), all[j].first, 1e-5f) << i << "," << j;
    }
  }
}

TEST(TopKTest, DistancesAscendPerRecord) {
  nn::Matrix points = RandomPoints(100, 4, 17);
  nn::Matrix reps = RandomPoints(20, 4, 18);
  TopKDistances topk = ComputeTopK(points, reps, 6);
  for (size_t i = 0; i < points.rows(); ++i) {
    for (size_t j = 1; j < topk.k; ++j) {
      EXPECT_LE(topk.Dist(i, j - 1), topk.Dist(i, j));
    }
  }
}

TEST(TopKTest, KClampedToRepCount) {
  nn::Matrix points = RandomPoints(50, 4, 19);
  nn::Matrix reps = RandomPoints(3, 4, 20);
  TopKDistances topk = ComputeTopK(points, reps, 10);
  EXPECT_EQ(topk.k, 3u);
}

TEST(TopKTest, SelfDistanceIsZeroForRepPoints) {
  nn::Matrix points = RandomPoints(30, 4, 21);
  nn::Matrix reps = points.GatherRows({0, 10, 20});
  TopKDistances topk = ComputeTopK(points, reps, 1);
  EXPECT_NEAR(topk.Dist(0, 0), 0.0f, 1e-6f);
  EXPECT_NEAR(topk.Dist(10, 0), 0.0f, 1e-6f);
  EXPECT_EQ(topk.RepId(20, 0), 2u);
}

TEST(TopKTest, IncrementalUpdateMatchesRecompute) {
  nn::Matrix points = RandomPoints(120, 5, 22);
  nn::Matrix reps = RandomPoints(20, 5, 23);
  const size_t k = 4;
  TopKDistances incremental = ComputeTopK(points, reps, k);

  // Append 5 new reps one at a time with the incremental update.
  nn::Matrix extra = RandomPoints(5, 5, 24);
  nn::Matrix grown = reps;
  for (size_t r = 0; r < extra.rows(); ++r) {
    grown.AppendRowsFrom(extra, {r});
    RelaxTopK(points, grown, grown.rows() - 1, &incremental, nullptr);
  }

  TopKDistances fresh = ComputeTopK(points, grown, k);
  for (size_t i = 0; i < points.rows(); ++i) {
    for (size_t j = 0; j < k; ++j) {
      EXPECT_NEAR(incremental.Dist(i, j), fresh.Dist(i, j), 1e-5f)
          << i << "," << j;
      EXPECT_EQ(incremental.RepId(i, j), fresh.RepId(i, j)) << i << "," << j;
    }
  }
}

TEST(TopKTest, DirtyRowsAreExactlyTheChangedRecords) {
  nn::Matrix points = RandomPoints(150, 4, 31);
  nn::Matrix reps = RandomPoints(12, 4, 32);
  const size_t k = 3;
  TopKDistances topk = ComputeTopK(points, reps, k);

  nn::Matrix extra = RandomPoints(4, 4, 33);
  nn::Matrix grown = reps;

  for (size_t r = 0; r < extra.rows(); ++r) {
    const TopKDistances before = topk;
    std::vector<uint32_t> dirty;
    grown.AppendRowsFrom(extra, {r});
    RelaxTopK(points, grown, grown.rows() - 1, &topk, &dirty);
    std::set<uint32_t> dirty_set(dirty.begin(), dirty.end());
    ASSERT_EQ(dirty_set.size(), dirty.size()) << "duplicate dirty rows";
    for (size_t i = 0; i < points.rows(); ++i) {
      bool changed = false;
      for (size_t j = 0; j < k && !changed; ++j) {
        changed = topk.Dist(i, j) != before.Dist(i, j) ||
                  topk.RepId(i, j) != before.RepId(i, j);
      }
      EXPECT_EQ(dirty_set.count(static_cast<uint32_t>(i)) != 0, changed)
          << "row " << i << " dirty flag wrong after rep " << r;
    }
  }
}

TEST(TopKTest, UpdateIgnoresFartherRep) {
  nn::Matrix points = RandomPoints(50, 3, 25);
  nn::Matrix reps = RandomPoints(10, 3, 26, 0.1f);  // tight cluster near origin
  TopKDistances topk = ComputeTopK(points, reps, 2);
  const TopKDistances before = topk;

  // A representative far from everything must not displace any entry.
  nn::Matrix far_rep(reps.rows() + 1, reps.cols());
  std::copy(reps.data(), reps.data() + reps.size(), far_rep.data());
  for (size_t c = 0; c < reps.cols(); ++c) {
    far_rep.At(reps.rows(), c) = 1000.0f;
  }
  RelaxTopK(points, far_rep, reps.rows(), &topk, nullptr);
  for (size_t i = 0; i < topk.distances.size(); ++i) {
    EXPECT_EQ(topk.distances[i], before.distances[i]);
    EXPECT_EQ(topk.rep_ids[i], before.rep_ids[i]);
  }
}

}  // namespace
}  // namespace tasti::cluster
