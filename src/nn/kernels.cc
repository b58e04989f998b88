#include "nn/kernels.h"

#include <algorithm>

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
