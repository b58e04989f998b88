// Tests for the batched distance-kernel layer (nn/kernels.h): equivalence
// with the scalar reference kernels across odd shapes, numeric-safety
// clamps, and end-to-end determinism of the consumers (ComputeTopK,
// FurthestPointFirst) against scalar reference implementations on the
// seed datasets.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <vector>

#include "cluster/fpf.h"
#include "cluster/topk.h"
#include "data/dataset.h"
#include "nn/kernels.h"
#include "nn/matrix.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace tasti {
namespace {

nn::Matrix RandomMatrix(size_t rows, size_t cols, uint64_t seed) {
  Rng rng(seed);
  nn::Matrix m(rows, cols);
  for (size_t i = 0; i < m.size(); ++i) {
    m.data()[i] = static_cast<float>(rng.Normal());
  }
  return m;
}

// Scalar reference: the pre-kernel GemmBT (row-by-row dot products).
void GemmBTScalar(const nn::Matrix& a, const nn::Matrix& b, nn::Matrix* c) {
  const size_t m = a.rows(), k = a.cols(), n = b.rows();
  if (c->rows() != m || c->cols() != n) *c = nn::Matrix(m, n);
  for (size_t i = 0; i < m; ++i) {
    for (size_t j = 0; j < n; ++j) {
      float acc = 0.0f;
      for (size_t p = 0; p < k; ++p) acc += a.At(i, p) * b.At(j, p);
      c->At(i, j) = acc;
    }
  }
}

// Scalar reference top-k: the pre-kernel ComputeTopK loop.
cluster::TopKDistances ComputeTopKScalar(const nn::Matrix& points,
                                         const nn::Matrix& reps, size_t k) {
  const size_t n = points.rows();
  const size_t r = reps.rows();
  k = std::min(k, r);
  cluster::TopKDistances topk;
  topk.k = k;
  topk.num_records = n;
  topk.rep_ids.assign(n * k, 0);
  topk.distances.assign(n * k, std::numeric_limits<float>::max());
  std::vector<float> best_d(k);
  std::vector<uint32_t> best_id(k);
  for (size_t i = 0; i < n; ++i) {
    size_t filled = 0;
    for (size_t j = 0; j < r; ++j) {
      const float d = nn::Distance(points, i, reps, j);
      if (filled < k || d < best_d[filled - 1]) {
        size_t pos = filled < k ? filled : k - 1;
        while (pos > 0 && best_d[pos - 1] > d) {
          best_d[pos] = best_d[pos - 1];
          best_id[pos] = best_id[pos - 1];
          --pos;
        }
        best_d[pos] = d;
        best_id[pos] = static_cast<uint32_t>(j);
        if (filled < k) ++filled;
      }
    }
    for (size_t j = 0; j < k; ++j) {
      topk.distances[i * k + j] = best_d[j];
      topk.rep_ids[i * k + j] = best_id[j];
    }
  }
  return topk;
}

// Scalar reference FPF: the pre-kernel relax-and-argmax loop.
cluster::FpfResult FurthestPointFirstScalar(const nn::Matrix& points, size_t k,
                                            size_t start_index) {
  const size_t n = points.rows();
  k = std::min(k, n);
  cluster::FpfResult result;
  result.min_distance.assign(n, std::numeric_limits<float>::max());
  result.assignment.assign(n, 0);
  size_t current = start_index;
  for (size_t iter = 0; iter < k; ++iter) {
    result.centers.push_back(current);
    float best = -1.0f;
    size_t arg = 0;
    for (size_t i = 0; i < n; ++i) {
      const float d = nn::Distance(points, i, points, current);
      if (d < result.min_distance[i]) {
        result.min_distance[i] = d;
        result.assignment[i] = static_cast<uint32_t>(iter);
      }
      if (result.min_distance[i] > best) {
        best = result.min_distance[i];
        arg = i;
      }
    }
    current = arg;
    if (best <= 0.0f && iter + 1 < k) break;
  }
  return result;
}

TEST(KernelsTest, SquaredDistanceBatchMatchesScalarAcrossShapes) {
  for (size_t cols : {1u, 7u, 64u, 130u}) {
    const nn::Matrix points = RandomMatrix(23, cols, 100 + cols);
    const nn::Matrix reps = RandomMatrix(151, cols, 200 + cols);
    const auto blocks = nn::PackBlocks(reps);
    std::vector<float> d2(nn::kDistanceBlockRows);
    for (size_t i = 0; i < points.rows(); ++i) {
      for (const nn::PackedBlock& block : blocks) {
        nn::SquaredDistanceBatch(points, i, block, d2.data());
        for (size_t j = 0; j < block.rows(); ++j) {
          const float exact =
              nn::SquaredDistance(points, i, reps, block.row_begin() + j);
          EXPECT_NEAR(d2[j], exact, 1e-4f * std::max(1.0f, exact))
              << "cols=" << cols << " i=" << i << " j=" << j;
        }
      }
    }
  }
}

TEST(KernelsTest, SquaredDistanceBatchClampsDuplicateRowsToZero) {
  // A rep that is a bitwise copy of the point must yield exactly zero:
  // the norms and the blocked dot accumulate in the same order, and the
  // kernel clamps any residual negative at zero.
  const nn::Matrix points = RandomMatrix(4, 64, 7);
  nn::Matrix reps(8, 64);
  for (size_t j = 0; j < reps.rows(); ++j) reps.SetRow(j, points, j % 4);
  const auto blocks = nn::PackBlocks(reps);
  std::vector<float> d2(nn::kDistanceBlockRows);
  for (size_t i = 0; i < points.rows(); ++i) {
    nn::SquaredDistanceBatch(points, i, blocks[0], d2.data());
    EXPECT_EQ(d2[i], 0.0f);
    EXPECT_EQ(d2[i + 4], 0.0f);
    for (size_t j = 0; j < 8; ++j) EXPECT_GE(d2[j], 0.0f);
  }
}

TEST(KernelsTest, EmptyBlockIsANoop) {
  const nn::Matrix points = RandomMatrix(2, 16, 3);
  nn::Matrix reps(0, 16);
  EXPECT_TRUE(nn::PackBlocks(reps).empty());
  nn::PackedBlock block;
  block.Pack(points, 1, 1);  // empty range
  EXPECT_TRUE(block.empty());
  float sentinel = 42.0f;
  nn::SquaredDistanceBatch(points, 0, block, &sentinel);
  EXPECT_EQ(sentinel, 42.0f);
}

TEST(KernelsTest, OneToManyMatchesScalar) {
  for (size_t cols : {1u, 7u, 64u, 130u}) {
    const nn::Matrix points = RandomMatrix(37, cols, 300 + cols);
    const nn::Matrix centers = RandomMatrix(3, cols, 400 + cols);
    std::vector<float> d2(points.rows());
    nn::SquaredDistanceOneToMany(points, 0, points.rows(), centers.Row(1),
                                 d2.data());
    for (size_t i = 0; i < points.rows(); ++i) {
      const float exact = nn::SquaredDistance(points, i, centers, 1);
      EXPECT_NEAR(d2[i], exact, 1e-4f * std::max(1.0f, exact));
    }
    // An empty range writes nothing.
    nn::SquaredDistanceOneToMany(points, 4, 4, centers.Row(0), nullptr);
  }
}

TEST(KernelsTest, GemmBTBlockedMatchesScalarAcrossShapes) {
  struct Shape {
    size_t m, k, n;
  };
  for (const Shape& s : {Shape{1, 1, 1}, Shape{3, 7, 5}, Shape{16, 64, 70},
                         Shape{5, 130, 129}, Shape{4, 32, 0}}) {
    const nn::Matrix a = RandomMatrix(s.m, s.k, s.m * 131 + s.k);
    const nn::Matrix b = RandomMatrix(s.n, s.k, s.n * 137 + s.k);
    nn::Matrix expected, actual;
    GemmBTScalar(a, b, &expected);
    nn::GemmBTBlocked(a, b, &actual);
    ASSERT_EQ(actual.rows(), s.m);
    ASSERT_EQ(actual.cols(), s.n);
    for (size_t i = 0; i < s.m; ++i) {
      for (size_t j = 0; j < s.n; ++j) {
        EXPECT_NEAR(actual.At(i, j), expected.At(i, j),
                    1e-4f * std::max(1.0f, std::fabs(expected.At(i, j))))
            << s.m << "x" << s.k << "x" << s.n;
      }
    }
  }
}

TEST(KernelsTest, ComputeTopKMatchesScalarReferenceOnRandomData) {
  const nn::Matrix points = RandomMatrix(500, 64, 11);
  const nn::Matrix reps = RandomMatrix(130, 64, 12);
  const auto fast = cluster::ComputeTopK(points, reps, 5);
  const auto ref = ComputeTopKScalar(points, reps, 5);
  ASSERT_EQ(fast.k, ref.k);
  for (size_t i = 0; i < points.rows(); ++i) {
    for (size_t j = 0; j < fast.k; ++j) {
      EXPECT_EQ(fast.RepId(i, j), ref.RepId(i, j)) << i << "," << j;
      EXPECT_EQ(fast.Dist(i, j), ref.Dist(i, j)) << i << "," << j;
    }
  }
}

TEST(KernelsTest, ComputeTopKHandlesKLargerThanReps) {
  const nn::Matrix points = RandomMatrix(20, 7, 21);
  const nn::Matrix reps = RandomMatrix(3, 7, 22);
  const auto topk = cluster::ComputeTopK(points, reps, 10);
  EXPECT_EQ(topk.k, 3u);  // clamped to the rep count
  const auto ref = ComputeTopKScalar(points, reps, 10);
  EXPECT_EQ(topk.rep_ids, ref.rep_ids);
  EXPECT_EQ(topk.distances, ref.distances);
}

TEST(KernelsTest, TopKDeterministicVsScalarOnSeedDataset) {
  data::DatasetOptions opts;
  opts.num_records = 1500;
  const data::Dataset dataset = data::MakeNightStreet(opts);
  const nn::Matrix& features = dataset.features;
  std::vector<size_t> rep_rows;
  for (size_t i = 0; i < 120; ++i) rep_rows.push_back(i * 12 + 1);
  const nn::Matrix reps = features.GatherRows(rep_rows);
  const auto fast = cluster::ComputeTopK(features, reps, 5);
  const auto ref = ComputeTopKScalar(features, reps, 5);
  EXPECT_EQ(fast.rep_ids, ref.rep_ids);
  EXPECT_EQ(fast.distances, ref.distances);
  // Run-to-run determinism of the batched implementation itself.
  const auto again = cluster::ComputeTopK(features, reps, 5);
  EXPECT_EQ(fast.rep_ids, again.rep_ids);
  EXPECT_EQ(fast.distances, again.distances);
}

TEST(KernelsTest, RelaxTopKCrackMatchesScalarOnGrownSet) {
  // Near-duplicates with large norms: every point and rep sits within
  // ~1e-2 of one shared vector of norm ~800, so the dot-trick's rounding
  // error dwarfs the true distances and the skip bound must let every
  // candidate through to the exact comparison.
  nn::Matrix near_dup = RandomMatrix(400, 64, 41);
  const nn::Matrix center = RandomMatrix(1, 64, 42);
  for (size_t i = 0; i < near_dup.rows(); ++i) {
    for (size_t c = 0; c < near_dup.cols(); ++c) {
      near_dup.At(i, c) = 100.0f * center.At(0, c) + 1e-2f * near_dup.At(i, c);
    }
  }
  struct Case {
    nn::Matrix points;
    nn::Matrix reps;  ///< base representatives followed by the crack batch
    size_t base;
  };
  const nn::Matrix points = RandomMatrix(300, 64, 31);
  std::vector<Case> cases;
  // B = 1, B = 32, B spanning several 64-row tiles, B larger than the base.
  for (size_t batch : {1u, 32u, 150u, 400u}) {
    cases.push_back({points, RandomMatrix(130 + batch, 64, 32 + batch), 130});
  }
  std::vector<size_t> dup_reps;
  for (size_t i = 0; i < 200; ++i) dup_reps.push_back(i * 2);
  cases.push_back({near_dup, near_dup.GatherRows(dup_reps), 20});

  for (const Case& c : cases) {
    std::vector<size_t> base_rows(c.base);
    for (size_t i = 0; i < c.base; ++i) base_rows[i] = i;
    cluster::TopKDistances topk =
        cluster::ComputeTopK(c.points, c.reps.GatherRows(base_rows), 5);
    cluster::RelaxTopK(c.points, c.reps, c.base, &topk, nullptr);
    const auto ref = ComputeTopKScalar(c.points, c.reps, 5);
    EXPECT_EQ(topk.rep_ids, ref.rep_ids) << "batch " << c.reps.rows() - c.base;
    EXPECT_EQ(topk.distances, ref.distances)
        << "batch " << c.reps.rows() - c.base;
  }
}

TEST(KernelsTest, EveryTileIsaMatchesSquaredDistanceBatchBitForBit) {
  // Each ISA variant of the register tile against the one-row batch kernel,
  // compared as floats with ==: every variant must return the same bits.
  // Block widths cover a lone rep, fewer than 16, a ragged 16-multiple
  // tail and a full 64-row tile; record counts cover 1..kTileRecords.
  const std::vector<nn::internal::TileKernel> kernels =
      nn::internal::HostTileKernels();
  ASSERT_FALSE(kernels.empty());
  EXPECT_STREQ(kernels.front().isa, "baseline");
  for (size_t cols : {1u, 7u, 64u, 130u}) {
    nn::Matrix points = RandomMatrix(11, cols, 500 + cols);
    // Rows 9 and 10 duplicate rows 0 and 1: their distances to the reps
    // that copy them must clamp to exactly zero on every variant.
    points.SetRow(9, points, 0);
    points.SetRow(10, points, 1);
    nn::Matrix reps = RandomMatrix(64, cols, 600 + cols);
    reps.SetRow(3, points, 0);
    reps.SetRow(40, points, 1);
    std::vector<float> norms(points.rows());
    for (size_t i = 0; i < points.rows(); ++i) {
      norms[i] = nn::RowSquaredNorm(points, i);
    }
    for (size_t width : {1u, 5u, 16u, 23u, 41u, 64u}) {
      nn::PackedBlock block;
      block.Pack(reps, 0, width);
      std::vector<float> want(width);
      std::vector<float> got(nn::kTileRecords * width);
      for (const nn::internal::TileKernel& kernel : kernels) {
        for (size_t count = 1; count <= nn::kTileRecords; ++count) {
          for (size_t first = 0; first + count <= points.rows(); ++first) {
            kernel.fn(points, first, count, norms.data() + first, block,
                      got.data());
            for (size_t r = 0; r < count; ++r) {
              nn::SquaredDistanceBatch(points, first + r, norms[first + r],
                                       block, want.data());
              for (size_t j = 0; j < width; ++j) {
                ASSERT_EQ(got[r * width + j], want[j])
                    << kernel.isa << " cols=" << cols << " width=" << width
                    << " count=" << count << " record=" << first + r
                    << " rep=" << j;
              }
            }
          }
        }
      }
      if (width > 40) {
        nn::SquaredDistanceTile(points, 9, 2, norms.data() + 9, block,
                                got.data());
        EXPECT_EQ(got[3], 0.0f);
        EXPECT_EQ(got[width + 40], 0.0f);
      }
    }
  }
}

TEST(KernelsTest, RelaxTopKRaggedShapesMatchScalarAndReportDirtyRows) {
  // Record counts off the 4-record tile and the 256-record chunk, crack
  // batches below, off and on the 16-rep tile and the 64-row block, reps
  // that duplicate each other and the records (exact ties, which go to the
  // lower id), and k above the base rep count. The dirty rows must be
  // exactly the rows whose list changed, each reported once.
  struct Shape {
    size_t records, base, batch, k;
  };
  const Shape shapes[] = {{1, 3, 1, 5},      {3, 7, 5, 4},
                          {257, 20, 16, 5},  {519, 40, 23, 5},
                          {300, 2, 80, 10},  {1030, 64, 150, 3}};
  for (const Shape& s : shapes) {
    SCOPED_TRACE(::testing::Message()
                 << "records=" << s.records << " base=" << s.base
                 << " batch=" << s.batch << " k=" << s.k);
    nn::Matrix points = RandomMatrix(s.records, 16, s.records + s.batch);
    nn::Matrix reps = RandomMatrix(s.base + s.batch, 16, s.base * 7 + s.k);
    // Ties: a new rep copying an old one, two identical new reps, and a
    // new rep copying a record.
    reps.SetRow(s.base, reps, 0);
    if (s.batch > 2) reps.SetRow(s.base + 2, reps, s.base + 1);
    if (s.batch > 3) reps.SetRow(s.base + 3, points, s.records / 2);
    std::vector<size_t> base_rows(s.base);
    for (size_t i = 0; i < s.base; ++i) base_rows[i] = i;
    const cluster::TopKDistances before =
        cluster::ComputeTopK(points, reps.GatherRows(base_rows), s.k);
    EXPECT_EQ(before.k, std::min(s.k, s.base));
    const auto ref_before =
        ComputeTopKScalar(points, reps.GatherRows(base_rows), s.k);
    EXPECT_EQ(before.rep_ids, ref_before.rep_ids);
    EXPECT_EQ(before.distances, ref_before.distances);

    cluster::TopKDistances after = before;
    std::vector<uint32_t> dirty;
    cluster::RelaxTopK(points, reps, s.base, &after, &dirty);
    cluster::TopKDistances ref = ComputeTopKScalar(points, reps, before.k);
    EXPECT_EQ(after.rep_ids, ref.rep_ids);
    EXPECT_EQ(after.distances, ref.distances);

    std::vector<uint32_t> changed;
    for (size_t i = 0; i < s.records; ++i) {
      for (size_t j = 0; j < after.k; ++j) {
        if (after.RepId(i, j) != before.RepId(i, j) ||
            after.Dist(i, j) != before.Dist(i, j)) {
          changed.push_back(static_cast<uint32_t>(i));
          break;
        }
      }
    }
    std::sort(dirty.begin(), dirty.end());
    EXPECT_EQ(dirty, changed);

    // Called from inside a pool task, the relax runs the whole range on
    // one thread in 256-record chunks; the answer must not change.
    cluster::TopKDistances nested = before;
    std::vector<uint32_t> nested_dirty;
    ParallelForDynamic(0, 2, [&](size_t lo, size_t, size_t) {
      if (lo == 0) {
        cluster::RelaxTopK(points, reps, s.base, &nested, &nested_dirty);
      }
    }, 1);
    EXPECT_EQ(nested.rep_ids, ref.rep_ids);
    EXPECT_EQ(nested.distances, ref.distances);
    std::sort(nested_dirty.begin(), nested_dirty.end());
    EXPECT_EQ(nested_dirty, changed);
  }
}

TEST(KernelsTest, FpfDeterministicVsScalarOnSeedDataset) {
  data::DatasetOptions opts;
  opts.num_records = 1200;
  const data::Dataset dataset = data::MakeNightStreet(opts);
  const auto fast = cluster::FurthestPointFirst(dataset.features, 40, 17);
  const auto ref = FurthestPointFirstScalar(dataset.features, 40, 17);
  ASSERT_EQ(fast.centers.size(), ref.centers.size());
  for (size_t c = 0; c < fast.centers.size(); ++c) {
    ASSERT_EQ(fast.centers[c], ref.centers[c]) << "center " << c;
  }
  const auto again = cluster::FurthestPointFirst(dataset.features, 40, 17);
  EXPECT_EQ(fast.centers, again.centers);
  EXPECT_EQ(fast.assignment, again.assignment);
}

TEST(KernelsTest, ParallelForDynamicCoversEveryIndexOnce) {
  const size_t n = 10007;
  std::vector<std::atomic<int>> hits(n);
  for (auto& h : hits) h.store(0);
  const size_t max_workers = ParallelForMaxWorkers();
  std::atomic<size_t> worker_bound{0};
  ParallelForDynamic(0, n, [&](size_t lo, size_t hi, size_t w) {
    size_t seen = worker_bound.load();
    while (w + 1 > seen && !worker_bound.compare_exchange_weak(seen, w + 1)) {
    }
    for (size_t i = lo; i < hi; ++i) hits[i].fetch_add(1);
  }, 64);
  for (size_t i = 0; i < n; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
  EXPECT_LE(worker_bound.load(), std::max<size_t>(1, max_workers));
  // Empty ranges are a no-op.
  ParallelForDynamic(5, 5, [&](size_t, size_t, size_t) { FAIL(); }, 16);
}

}  // namespace
}  // namespace tasti
