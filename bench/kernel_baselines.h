#ifndef TASTI_BENCH_KERNEL_BASELINES_H_
#define TASTI_BENCH_KERNEL_BASELINES_H_

/// \file kernel_baselines.h
/// Scalar reference implementations of the distance kernels, frozen at
/// their pre-blocking form. The microbenchmarks and tools/bench_to_json
/// time these against the batched kernels in nn/kernels.h to track the
/// speedup across PRs; the kernel tests use them as ground truth.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "cluster/topk.h"
#include "nn/matrix.h"

/// The baselines must keep producing the *seed's* machine code: the repo
/// shipped with -O2, where GCC declines to vectorize these runtime-trip
/// reduction loops, and this is the codegen the "scalar" rows represent.
/// The library now builds at -O3 (which auto-vectorizes nn::Distance), so
/// the baselines carry their own distance loop pinned to -O2 — otherwise
/// the before/after comparison silently measures -O3 scalar code instead
/// of the pre-kernel implementation. noinline matters as much as the -O2
/// pin: inlining into an -O3 caller re-applies the caller's flags (and the
/// seed's nn::Distance was an out-of-line library call anyway).
#if defined(__GNUC__) && !defined(__clang__)
#define TASTI_BENCH_SEED_CODEGEN __attribute__((noinline, optimize("O2")))
#else
#define TASTI_BENCH_SEED_CODEGEN
#endif

namespace tasti::bench {

/// Pre-kernel Euclidean distance: the loop nn::Distance compiled to at
/// the seed's -O2 (single accumulator, not vectorized).
TASTI_BENCH_SEED_CODEGEN inline float ScalarDistance(const nn::Matrix& a,
                                                     size_t i,
                                                     const nn::Matrix& b,
                                                     size_t j) {
  const float* x = a.Row(i);
  const float* y = b.Row(j);
  float acc = 0.0f;
  for (size_t p = 0; p < a.cols(); ++p) {
    const float diff = x[p] - y[p];
    acc += diff * diff;
  }
  return std::sqrt(acc);
}

/// Pre-kernel ComputeTopK: one scalar distance per (record, rep) pair.
inline cluster::TopKDistances ComputeTopKScalar(const nn::Matrix& points,
                                                const nn::Matrix& reps,
                                                size_t k) {
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
      const float d = ScalarDistance(points, i, reps, j);
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

/// Scalar crack relax: merges reps [first_rep, reps.rows()) into existing
/// min-k lists, one scalar distance per (record, new rep) pair, records on
/// the outside and reps in ascending id (ties to the lower id).
inline void RelaxTopKScalar(const nn::Matrix& points, const nn::Matrix& reps,
                            size_t first_rep, cluster::TopKDistances* topk) {
  const size_t k = topk->k;
  for (size_t i = 0; i < points.rows(); ++i) {
    float* dist = topk->distances.data() + i * k;
    uint32_t* ids = topk->rep_ids.data() + i * k;
    for (size_t j = first_rep; j < reps.rows(); ++j) {
      const float d = ScalarDistance(points, i, reps, j);
      if (!(d < dist[k - 1])) continue;
      size_t pos = k - 1;
      while (pos > 0 && dist[pos - 1] > d) {
        dist[pos] = dist[pos - 1];
        ids[pos] = ids[pos - 1];
        --pos;
      }
      dist[pos] = d;
      ids[pos] = static_cast<uint32_t>(j);
    }
  }
}

/// Pre-kernel FPF relax pass: one scalar distance per point against the
/// new center, plus the min-distance update and running argmax.
inline size_t FpfRelaxScalar(const nn::Matrix& points, size_t center,
                             std::vector<float>* min_distance) {
  float best = -1.0f;
  size_t arg = 0;
  for (size_t i = 0; i < points.rows(); ++i) {
    const float d = ScalarDistance(points, i, points, center);
    if (d < (*min_distance)[i]) (*min_distance)[i] = d;
    if ((*min_distance)[i] > best) {
      best = (*min_distance)[i];
      arg = i;
    }
  }
  return arg;
}

/// Pre-kernel GemmBT: row-by-row dot products against strided B rows.
TASTI_BENCH_SEED_CODEGEN inline void GemmBTScalar(const nn::Matrix& a,
                                                  const nn::Matrix& b,
                                                  nn::Matrix* c) {
  const size_t m = a.rows(), k = a.cols(), n = b.rows();
  if (c->rows() != m || c->cols() != n) *c = nn::Matrix(m, n);
  for (size_t i = 0; i < m; ++i) {
    const float* arow = a.Row(i);
    float* crow = c->Row(i);
    for (size_t j = 0; j < n; ++j) {
      const float* brow = b.Row(j);
      float acc = 0.0f;
      for (size_t p = 0; p < k; ++p) acc += arow[p] * brow[p];
      crow[j] = acc;
    }
  }
}

}  // namespace tasti::bench

#endif  // TASTI_BENCH_KERNEL_BASELINES_H_
