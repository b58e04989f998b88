#include "nn/kernels.h"

#include <algorithm>
#include <cstring>

#include "obs/metrics.h"
#include "util/status.h"

namespace tasti::nn {

namespace {

/// Accumulator lanes for the depth reduction in the one-to-many kernel.
/// Sixteen independent partial sums break the loop-carried add chain into
/// four vector chains — enough in-flight adds to hide FP add latency —
/// and the fixed-trip inner loop vectorizes without -ffast-math.
constexpr size_t kLanes = 16;

/// Force-inlined: at d = 64 the call overhead (prologue plus zeroing and
/// spilling the 16-float accumulator array through the stack) costs about
/// as much as the distance arithmetic itself, and GCC declines to inline
/// this on its own.
#if defined(__GNUC__)
__attribute__((always_inline))
#endif
inline float SquaredDistanceFlat(const float* x, const float* y, size_t d) {
  float acc[kLanes] = {0.0f};
  size_t p = 0;
  for (; p + kLanes <= d; p += kLanes) {
    for (size_t u = 0; u < kLanes; ++u) {
      const float diff = x[p + u] - y[p + u];
      acc[u] += diff * diff;
    }
  }
  float tail = 0.0f;
  for (; p < d; ++p) {
    const float diff = x[p] - y[p];
    tail += diff * diff;
  }
  // Fixed-shape pairwise combine keeps the final sum order deterministic.
  for (size_t width = kLanes / 2; width > 0; width /= 2) {
    for (size_t u = 0; u < width; ++u) acc[u] += acc[u + width];
  }
  return acc[0] + tail;
}

}  // namespace

float RowSquaredNorm(const Matrix& m, size_t row) {
  const float* x = m.Row(row);
  float acc = 0.0f;
  for (size_t p = 0; p < m.cols(); ++p) acc += x[p] * x[p];
  return acc;
}

void PackedBlock::Pack(const Matrix& reps, size_t row_begin, size_t row_end) {
  TASTI_CHECK(row_begin <= row_end && row_end <= reps.rows(),
              "PackedBlock row range out of bounds");
  row_begin_ = row_begin;
  rows_ = row_end - row_begin;
  dim_ = reps.cols();
  packed_.assign(dim_ * rows_, 0.0f);
  norms_.assign(rows_, 0.0f);
  for (size_t j = 0; j < rows_; ++j) {
    const float* src = reps.Row(row_begin + j);
    for (size_t p = 0; p < dim_; ++p) packed_[p * rows_ + j] = src[p];
    norms_[j] = RowSquaredNorm(reps, row_begin + j);
  }
}

std::vector<PackedBlock> PackBlocks(const Matrix& reps, size_t row_begin) {
  TASTI_CHECK(row_begin <= reps.rows(), "PackBlocks row_begin out of range");
  // Coarse counters only at kernel entry points that amortize over many
  // rows; the per-row inner kernels (DotBatch, SquaredDistanceBatch) stay
  // uninstrumented so the disabled path adds nothing measurable.
  if (obs::MetricsEnabled()) {
    static obs::Counter* const calls =
        obs::MetricsRegistry::Global().counter("kernels.pack_blocks.calls",
                                               "calls");
    static obs::Counter* const rows =
        obs::MetricsRegistry::Global().counter("kernels.pack_blocks.rows",
                                               "rows");
    calls->Increment();
    rows->Increment(reps.rows() - row_begin);
  }
  std::vector<PackedBlock> blocks;
  blocks.reserve((reps.rows() - row_begin + kDistanceBlockRows - 1) /
                 kDistanceBlockRows);
  for (size_t lo = row_begin; lo < reps.rows(); lo += kDistanceBlockRows) {
    blocks.emplace_back();
    blocks.back().Pack(reps, lo,
                       std::min(reps.rows(), lo + kDistanceBlockRows));
  }
  return blocks;
}

void DotBatch(const Matrix& points, size_t point_row, const PackedBlock& block,
              float* out) {
  TASTI_CHECK(points.cols() == block.dim(), "DotBatch dimension mismatch");
  const size_t nb = block.rows();
  const size_t d = block.dim();
  const float* x = points.Row(point_row);
  const float* pk = block.packed();
  // Register blocking: a fixed 16-wide column tile keeps the partial sums
  // in vector registers across the whole depth loop instead of spilling
  // `out` every step; the fully-unrolled inner loop vectorizes. Each
  // output still accumulates sequentially over p.
  constexpr size_t kJTile = 16;
  size_t j0 = 0;
  for (; j0 + kJTile <= nb; j0 += kJTile) {
    float acc[kJTile] = {0.0f};
    const float* tile = pk + j0;
    for (size_t p = 0; p < d; ++p) {
      const float xv = x[p];
      const float* row = tile + p * nb;
      for (size_t u = 0; u < kJTile; ++u) acc[u] += xv * row[u];
    }
    for (size_t u = 0; u < kJTile; ++u) out[j0 + u] = acc[u];
  }
  if (j0 < nb) {
    for (size_t j = j0; j < nb; ++j) out[j] = 0.0f;
    for (size_t p = 0; p < d; ++p) {
      const float xv = x[p];
      const float* row = pk + p * nb;
      for (size_t j = j0; j < nb; ++j) out[j] += xv * row[j];
    }
  }
}

void SquaredDistanceBatch(const Matrix& points, size_t point_row,
                          float point_norm, const PackedBlock& block,
                          float* out) {
  const size_t nb = block.rows();
  if (nb == 0) return;
  DotBatch(points, point_row, block, out);
  const float* norms = block.norms();
  for (size_t j = 0; j < nb; ++j) {
    const float d2 = point_norm + norms[j] - 2.0f * out[j];
    out[j] = d2 > 0.0f ? d2 : 0.0f;
  }
}

void SquaredDistanceBatch(const Matrix& points, size_t point_row,
                          const PackedBlock& block, float* out) {
  SquaredDistanceBatch(points, point_row, RowSquaredNorm(points, point_row),
                       block, out);
}

namespace {

/// GCC/clang vectors of 4, 8 and 16 floats: the native register width at
/// baseline x86-64 (xmm), AVX2 (ymm) and AVX-512F (zmm). Each lane is
/// plain IEEE single precision, so it rounds exactly as a scalar would.
typedef float Float4 __attribute__((vector_size(4 * sizeof(float))));
typedef float Float8 __attribute__((vector_size(8 * sizeof(float))));
typedef float Float16 __attribute__((vector_size(16 * sizeof(float))));

/// Reps per register tile: one 64-byte packed row segment.
constexpr size_t kTileReps = 16;

/// Squared distances of R records (row pointers `x`) against the `width`
/// packed-block columns starting at `tile` (row stride `nb`), written to
/// out[r * nb + u]. Each output accumulates sequentially over depth from
/// 0.0f, then takes (|x|^2 + |y|^2) - 2 dot with a clamp at zero: the
/// exact arithmetic of DotBatch + SquaredDistanceBatch, so every variant
/// below returns its bits. A full 16-column tile keeps its R x 16
/// accumulators in registers of vector type V, so one packed load feeds
/// R multiply-adds; a block's ragged tail (width < 16) takes the scalar
/// loop. Force-inlined so each target-specific wrapper compiles it for
/// its own ISA.
template <typename V, size_t R>
__attribute__((always_inline)) inline void SquaredDistanceColumns(
    const float* const* x, const float* point_norms, const float* tile,
    const float* rep_norms, size_t nb, size_t d, size_t width, float* out) {
  if (width == kTileReps) {
    constexpr size_t kLanes = sizeof(V) / sizeof(float);
    constexpr size_t kVecs = kTileReps / kLanes;
    V acc[R][kVecs] = {};
    for (size_t p = 0; p < d; ++p) {
      float xv[R];
      for (size_t r = 0; r < R; ++r) xv[r] = x[r][p];
      for (size_t v = 0; v < kVecs; ++v) {
        V row;
        std::memcpy(&row, tile + p * nb + v * kLanes, sizeof(row));
        for (size_t r = 0; r < R; ++r) acc[r][v] += xv[r] * row;
      }
    }
    for (size_t r = 0; r < R; ++r) {
      for (size_t v = 0; v < kVecs; ++v) {
        V norms;
        std::memcpy(&norms, rep_norms + v * kLanes, sizeof(norms));
        const V d2 = point_norms[r] + norms - 2.0f * acc[r][v];
        for (size_t u = 0; u < kLanes; ++u) {
          out[r * nb + v * kLanes + u] = d2[u] > 0.0f ? d2[u] : 0.0f;
        }
      }
    }
    return;
  }
  for (size_t r = 0; r < R; ++r) {
    for (size_t u = 0; u < width; ++u) {
      float acc = 0.0f;
      for (size_t p = 0; p < d; ++p) acc += x[r][p] * tile[p * nb + u];
      const float d2 = point_norms[r] + rep_norms[u] - 2.0f * acc;
      out[r * nb + u] = d2 > 0.0f ? d2 : 0.0f;
    }
  }
}

/// R records against a whole packed block, 16 reps at a time.
template <typename V, size_t R>
__attribute__((always_inline)) inline void SquaredDistanceTileBody(
    const float* const* x, const float* point_norms, const PackedBlock& block,
    float* out) {
  const size_t nb = block.rows();
  for (size_t j0 = 0; j0 < nb; j0 += kTileReps) {
    SquaredDistanceColumns<V, R>(x, point_norms, block.packed() + j0,
                                 block.norms() + j0, nb, block.dim(),
                                 std::min(kTileReps, nb - j0), out + j0);
  }
}

/// Dispatches `count` records to the R = kTileRecords tile, or one by one
/// for a short tail.
template <typename V>
__attribute__((always_inline)) inline void SquaredDistanceTileRows(
    const Matrix& points, size_t first_row, size_t count,
    const float* point_norms, const PackedBlock& block, float* out) {
  const float* x[kTileRecords];
  for (size_t r = 0; r < count; ++r) x[r] = points.Row(first_row + r);
  if (count == kTileRecords) {
    SquaredDistanceTileBody<V, kTileRecords>(x, point_norms, block, out);
    return;
  }
  for (size_t r = 0; r < count; ++r) {
    SquaredDistanceTileBody<V, 1>(x + r, point_norms + r, block,
                                  out + r * block.rows());
  }
}

void SquaredDistanceTileBaseline(const Matrix& points, size_t first_row,
                                 size_t count, const float* point_norms,
                                 const PackedBlock& block, float* out) {
  SquaredDistanceTileRows<Float4>(points, first_row, count, point_norms, block,
                                  out);
}

#if defined(__x86_64__)
__attribute__((target("avx2"))) void SquaredDistanceTileAvx2(
    const Matrix& points, size_t first_row, size_t count,
    const float* point_norms, const PackedBlock& block, float* out) {
  SquaredDistanceTileRows<Float8>(points, first_row, count, point_norms, block,
                                  out);
}

__attribute__((target("avx512f"))) void SquaredDistanceTileAvx512(
    const Matrix& points, size_t first_row, size_t count,
    const float* point_norms, const PackedBlock& block, float* out) {
  SquaredDistanceTileRows<Float16>(points, first_row, count, point_norms,
                                   block, out);
}
#endif

}  // namespace

namespace internal {

std::vector<TileKernel> HostTileKernels() {
  std::vector<TileKernel> kernels = {{"baseline", SquaredDistanceTileBaseline}};
#if defined(__x86_64__)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx2")) {
    kernels.push_back({"avx2", SquaredDistanceTileAvx2});
  }
  if (__builtin_cpu_supports("avx512f")) {
    kernels.push_back({"avx512f", SquaredDistanceTileAvx512});
  }
#endif
  return kernels;
}

}  // namespace internal

void SquaredDistanceTile(const Matrix& points, size_t first_row, size_t count,
                         const float* point_norms, const PackedBlock& block,
                         float* out) {
  TASTI_CHECK(points.cols() == block.dim(), "tile dimension mismatch");
  TASTI_CHECK(count >= 1 && count <= kTileRecords &&
                  first_row + count <= points.rows(),
              "tile record range out of bounds");
  static const auto kernel = internal::HostTileKernels().back().fn;
  kernel(points, first_row, count, point_norms, block, out);
}

void SquaredDistanceOneToMany(const Matrix& m, size_t lo, size_t hi,
                              const float* y, float* out) {
  TASTI_CHECK(lo <= hi && hi <= m.rows(), "OneToMany row range out of bounds");
  if (obs::MetricsEnabled()) {
    static obs::Counter* const rows =
        obs::MetricsRegistry::Global().counter("kernels.one_to_many.rows",
                                               "rows");
    rows->Increment(hi - lo);
  }
  const size_t d = m.cols();
  for (size_t i = lo; i < hi; ++i) {
    out[i - lo] = SquaredDistanceFlat(m.Row(i), y, d);
  }
}

void GemmBTBlocked(const Matrix& a, const Matrix& b, Matrix* c) {
  TASTI_CHECK(a.cols() == b.cols(), "GemmBT inner dimension mismatch");
  const size_t m = a.rows(), n = b.rows();
  if (obs::MetricsEnabled()) {
    static obs::Counter* const calls =
        obs::MetricsRegistry::Global().counter("kernels.gemmbt.calls", "calls");
    static obs::Counter* const cells =
        obs::MetricsRegistry::Global().counter("kernels.gemmbt.cells", "cells");
    calls->Increment();
    cells->Increment(static_cast<uint64_t>(m) * n);
  }
  if (c->rows() != m || c->cols() != n) *c = Matrix(m, n);
  const std::vector<PackedBlock> blocks = PackBlocks(b);
  for (const PackedBlock& block : blocks) {
    for (size_t i = 0; i < m; ++i) {
      DotBatch(a, i, block, c->Row(i) + block.row_begin());
    }
  }
}

}  // namespace tasti::nn
