// Unit tests for cluster/: FPF selection, its 2-approximation property,
// mixed/random selection, and top-k distance computation with cracking
// updates.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>

#include "cluster/fpf.h"
#include "cluster/ivf.h"
#include "cluster/kmeans.h"
#include "cluster/pq.h"
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

// ---------- K-means ----------

TEST(KMeansTest, RecoversWellSeparatedClusters) {
  Rng rng(30);
  nn::Matrix points(300, 2);
  for (size_t i = 0; i < 300; ++i) {
    const int blob = static_cast<int>(i / 100);
    points.At(i, 0) = static_cast<float>(blob * 50.0 + rng.Normal());
    points.At(i, 1) = static_cast<float>(rng.Normal());
  }
  KMeansOptions opts;
  opts.num_clusters = 3;
  opts.seed = 31;
  KMeansResult result = KMeans(points, opts);
  ASSERT_EQ(result.centroids.rows(), 3u);
  // Every blob maps to a single cluster.
  for (int blob = 0; blob < 3; ++blob) {
    const uint32_t first = result.assignment[blob * 100];
    for (size_t i = 0; i < 100; ++i) {
      EXPECT_EQ(result.assignment[blob * 100 + i], first) << blob << "," << i;
    }
  }
  // Inertia is the within-blob variance (~2 for two unit-normal dims).
  EXPECT_LT(result.inertia, 4.0);
}

TEST(KMeansTest, InertiaDecreasesWithMoreClusters) {
  nn::Matrix points = RandomPoints(400, 4, 32);
  double previous = std::numeric_limits<double>::max();
  for (size_t k : {2, 8, 32}) {
    KMeansOptions opts;
    opts.num_clusters = k;
    opts.seed = 33;
    const double inertia = KMeans(points, opts).inertia;
    EXPECT_LT(inertia, previous);
    previous = inertia;
  }
}

TEST(KMeansTest, AssignmentIsNearestCentroid) {
  nn::Matrix points = RandomPoints(200, 3, 34);
  KMeansOptions opts;
  opts.num_clusters = 10;
  opts.seed = 35;
  KMeansResult result = KMeans(points, opts);
  for (size_t i = 0; i < points.rows(); ++i) {
    const float assigned =
        nn::SquaredDistance(points, i, result.centroids, result.assignment[i]);
    for (size_t c = 0; c < result.centroids.rows(); ++c) {
      EXPECT_LE(assigned, nn::SquaredDistance(points, i, result.centroids, c) +
                              1e-4f);
    }
  }
}

TEST(KMeansTest, DeterministicInSeed) {
  nn::Matrix points = RandomPoints(150, 4, 36);
  KMeansOptions opts;
  opts.num_clusters = 8;
  opts.seed = 37;
  KMeansResult a = KMeans(points, opts);
  KMeansResult b = KMeans(points, opts);
  for (size_t i = 0; i < a.assignment.size(); ++i) {
    EXPECT_EQ(a.assignment[i], b.assignment[i]);
  }
}

TEST(KMeansTest, SelectionReturnsDistinctMembers) {
  nn::Matrix points = RandomPoints(200, 4, 38);
  const auto selected = KMeansSelection(points, 20, 39);
  EXPECT_EQ(selected.size(), 20u);
  std::set<size_t> unique(selected.begin(), selected.end());
  EXPECT_EQ(unique.size(), 20u);
  for (size_t i : selected) EXPECT_LT(i, 200u);
}

TEST(KMeansTest, MoreClustersThanPointsClamps) {
  nn::Matrix points = RandomPoints(5, 2, 40);
  KMeansOptions opts;
  opts.num_clusters = 50;
  KMeansResult result = KMeans(points, opts);
  EXPECT_LE(result.centroids.rows(), 5u);
}

// ---------- IVF ----------

TEST(IvfTest, FullProbeMatchesBruteForce) {
  nn::Matrix reps = RandomPoints(200, 8, 41);
  nn::Matrix queries = RandomPoints(100, 8, 42);
  IvfOptions opts;
  opts.num_partitions = 10;
  opts.num_probes = 10;  // probe everything: must be exact
  IvfIndex ivf(reps, opts);
  TopKDistances approx = ivf.SearchAll(queries, 5);
  TopKDistances exact = ComputeTopK(queries, reps, 5);
  for (size_t i = 0; i < queries.rows(); ++i) {
    for (size_t j = 0; j < 5; ++j) {
      EXPECT_NEAR(approx.Dist(i, j), exact.Dist(i, j), 1e-5f) << i << "," << j;
    }
  }
}

TEST(IvfTest, PartialProbeHasHighRecall) {
  nn::Matrix reps = RandomPoints(500, 16, 43);
  nn::Matrix queries = RandomPoints(300, 16, 44);
  IvfOptions opts;
  opts.num_partitions = 25;
  opts.num_probes = 6;
  IvfIndex ivf(reps, opts);
  TopKDistances approx = ivf.SearchAll(queries, 1);
  TopKDistances exact = ComputeTopK(queries, reps, 1);
  size_t hits = 0;
  for (size_t i = 0; i < queries.rows(); ++i) {
    if (approx.RepId(i, 0) == exact.RepId(i, 0)) ++hits;
  }
  // Nearest-neighbor recall should be high even probing 6/25 partitions.
  EXPECT_GT(static_cast<double>(hits) / queries.rows(), 0.8);
}

TEST(IvfTest, DistancesAscendAndAreExactForFoundReps) {
  nn::Matrix reps = RandomPoints(300, 8, 45);
  nn::Matrix queries = RandomPoints(50, 8, 46);
  IvfIndex ivf(reps, IvfOptions{});
  TopKDistances topk = ivf.SearchAll(queries, 4);
  for (size_t i = 0; i < queries.rows(); ++i) {
    for (size_t j = 0; j < topk.k; ++j) {
      if (j > 0) {
        EXPECT_LE(topk.Dist(i, j - 1), topk.Dist(i, j));
      }
      // Reported distances are true distances to the reported rep.
      EXPECT_NEAR(topk.Dist(i, j),
                  nn::Distance(queries, i, reps, topk.RepId(i, j)), 1e-5f);
    }
  }
}

TEST(IvfTest, AddRoutesNewRepToSearch) {
  nn::Matrix reps = RandomPoints(100, 4, 47);
  IvfOptions opts;
  opts.num_partitions = 8;
  opts.num_probes = 8;
  IvfIndex ivf(reps, opts);

  // Append a rep identical to a query point: it must become the nearest.
  nn::Matrix extra = RandomPoints(1, 4, 48);
  nn::Matrix grown(101, 4);
  std::copy(reps.data(), reps.data() + reps.size(), grown.data());
  grown.SetRow(100, extra, 0);
  ivf.Add(grown, 100, 100);
  EXPECT_EQ(ivf.num_reps(), 101u);

  std::vector<uint32_t> ids;
  std::vector<float> dists;
  ivf.Search(extra, 0, 1, &ids, &dists);
  ASSERT_EQ(ids.size(), 1u);
  EXPECT_EQ(ids[0], 100u);
  EXPECT_NEAR(dists[0], 0.0f, 1e-6f);
}

TEST(IvfTest, DefaultPartitionsScaleWithReps) {
  nn::Matrix reps = RandomPoints(400, 4, 49);
  IvfIndex ivf(reps, IvfOptions{});
  EXPECT_EQ(ivf.num_partitions(), 20u);  // sqrt(400)
}

// ---------- Product quantization ----------

TEST(PqTest, TrainRejectsBadShapes) {
  nn::Matrix points = RandomPoints(50, 10, 50);
  PqOptions opts;
  opts.num_subspaces = 3;  // does not divide 10
  EXPECT_FALSE(ProductQuantizer::Train(points, opts).ok());
  EXPECT_FALSE(ProductQuantizer::Train(nn::Matrix(0, 8), PqOptions{}).ok());
}

TEST(PqTest, ReconstructionErrorIsSmallForClusteredData) {
  // Data drawn from few distinct prototypes is near-losslessly quantized.
  Rng rng(51);
  nn::Matrix prototypes = RandomPoints(8, 16, 52);
  nn::Matrix points(400, 16);
  for (size_t i = 0; i < 400; ++i) {
    const size_t p = rng.UniformInt(uint64_t{8});
    for (size_t d = 0; d < 16; ++d) {
      points.At(i, d) = prototypes.At(p, d) +
                        0.01f * static_cast<float>(rng.Normal());
    }
  }
  PqOptions opts;
  opts.num_subspaces = 4;
  opts.codebook_size = 16;
  Result<ProductQuantizer> pq = ProductQuantizer::Train(points, opts);
  ASSERT_TRUE(pq.ok());
  EXPECT_LT(pq->reconstruction_error(), 0.05);
  EXPECT_EQ(pq->num_codes(), 400u);
  EXPECT_EQ(pq->code_bytes(), 4u);
}

TEST(PqTest, DecodeApproximatesOriginal) {
  nn::Matrix points = RandomPoints(300, 16, 53);
  PqOptions opts;
  opts.num_subspaces = 8;
  Result<ProductQuantizer> pq = ProductQuantizer::Train(points, opts);
  ASSERT_TRUE(pq.ok());
  // Mean reconstruction error well below the data's own scale (~dim).
  double err = 0.0;
  for (size_t i = 0; i < 300; ++i) {
    err += nn::SquaredDistance(points, i, pq->Decode(i), 0);
  }
  err /= 300.0;
  EXPECT_LT(err, 8.0);  // raw squared norm is ~16
  EXPECT_NEAR(err, pq->reconstruction_error(), 1e-6);
}

TEST(PqTest, AsymmetricDistanceApproximatesTrue) {
  nn::Matrix points = RandomPoints(200, 16, 54);
  nn::Matrix queries = RandomPoints(20, 16, 55);
  PqOptions opts;
  opts.num_subspaces = 8;
  Result<ProductQuantizer> pq = ProductQuantizer::Train(points, opts);
  ASSERT_TRUE(pq.ok());
  for (size_t q = 0; q < queries.rows(); ++q) {
    const auto table = pq->BuildLookupTable(queries, q);
    for (size_t i = 0; i < 30; ++i) {
      const float adc = pq->AsymmetricDistance(table, i);
      const float truth = nn::Distance(queries, q, points, i);
      EXPECT_NEAR(adc, truth, 1.8f) << q << "," << i;
    }
  }
}

TEST(PqTest, SearchRecallAgainstExact) {
  nn::Matrix points = RandomPoints(500, 32, 56);
  nn::Matrix queries = RandomPoints(100, 32, 57);
  PqOptions opts;
  opts.num_subspaces = 16;
  Result<ProductQuantizer> pq = ProductQuantizer::Train(points, opts);
  ASSERT_TRUE(pq.ok());
  const TopKDistances exact = ComputeTopK(queries, points, 10);
  size_t hits = 0;
  std::vector<uint32_t> ids;
  std::vector<float> dists;
  for (size_t q = 0; q < queries.rows(); ++q) {
    pq->Search(queries, q, 10, &ids, &dists);
    // Is the exact nearest neighbor within the PQ top-10?
    for (uint32_t id : ids) {
      if (id == exact.RepId(q, 0)) {
        ++hits;
        break;
      }
    }
  }
  EXPECT_GT(static_cast<double>(hits) / queries.rows(), 0.8);
}

TEST(PqTest, EncodeAppendsNewVectors) {
  nn::Matrix points = RandomPoints(100, 16, 58);
  PqOptions opts;
  opts.num_subspaces = 4;
  Result<ProductQuantizer> pq = ProductQuantizer::Train(points, opts);
  ASSERT_TRUE(pq.ok());
  nn::Matrix extra = RandomPoints(20, 16, 59);
  const size_t first = pq->Encode(extra);
  EXPECT_EQ(first, 100u);
  EXPECT_EQ(pq->num_codes(), 120u);
  // Appended codes decode near their sources.
  for (size_t i = 0; i < 20; ++i) {
    EXPECT_LT(nn::SquaredDistance(extra, i, pq->Decode(100 + i), 0), 16.0f);
  }
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
