#include "cluster/topk.h"

#include <algorithm>
#include <limits>
#include <mutex>

#include "nn/kernels.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace tasti::cluster {

TopKDistances ComputeTopK(const nn::Matrix& points, const nn::Matrix& reps,
                          size_t k) {
  TASTI_CHECK(reps.rows() > 0, "ComputeTopK requires at least one rep");
  TopKDistances topk;
  topk.k = std::min(k, reps.rows());
  topk.num_records = points.rows();
  topk.rep_ids.assign(points.rows() * topk.k, 0);
  topk.distances.assign(points.rows() * topk.k,
                        std::numeric_limits<float>::infinity());
  RelaxTopK(points, reps, 0, &topk, nullptr);
  return topk;
}

void RelaxTopK(const nn::Matrix& points, const nn::Matrix& reps,
               size_t first_rep, TopKDistances* topk,
               std::vector<uint32_t>* dirty_rows) {
  TASTI_CHECK(topk != nullptr, "RelaxTopK requires a topk");
  TASTI_CHECK(points.cols() == reps.cols(), "points/reps dim mismatch");
  TASTI_CHECK(points.rows() == topk->num_records, "topk record count mismatch");
  TASTI_CHECK(first_rep <= reps.rows(), "first_rep out of range");
  const size_t k = topk->k;
  if (k == 0 || first_rep == reps.rows()) return;

  // New representatives packed once into depth-major L1-sized tiles; every
  // record streams against each tile via the dot-trick batch kernel.
  const std::vector<nn::PackedBlock> blocks = nn::PackBlocks(reps, first_rep);

  // Skip bound. With unit roundoff u and g = (dim + 3) u, the batch kernel's
  // d2 is within 2g (|x|^2 + |y|^2) of the true squared distance D, and the
  // exact formula returns at least D (1 - g). So d2 > t2 + 4g (t2 + |x|^2 +
  // |y|^2), with t2 = thr * thr, implies the exact distance is >= thr. The
  // slack below is twice that 4g, to absorb the rounding of the test itself.
  const float slack = 4.0f * static_cast<float>(reps.cols() + 4) *
                      std::numeric_limits<float>::epsilon();

  std::mutex dirty_mu;
  ParallelForDynamic(0, points.rows(), [&](size_t lo, size_t hi,
                                           size_t /*worker*/) {
    std::vector<float> dist2(nn::kDistanceBlockRows);
    std::vector<uint32_t> chunk_dirty;
    for (size_t i = lo; i < hi; ++i) {
      float* dist = topk->distances.data() + i * k;
      uint32_t* ids = topk->rep_ids.data() + i * k;
      const float point_norm = nn::RowSquaredNorm(points, i);
      auto cutoff_for = [&](float thr) {
        const float thr2 = thr * thr;
        return thr2 + slack * (thr2 + point_norm);
      };
      float cutoff = cutoff_for(dist[k - 1]);
      bool changed = false;
      for (const nn::PackedBlock& block : blocks) {
        nn::SquaredDistanceBatch(points, i, point_norm, block, dist2.data());
        const float* rep_norms = block.norms();
        for (size_t j = 0; j < block.rows(); ++j) {
          if (dist2[j] > cutoff + slack * rep_norms[j]) continue;
          const uint32_t rep = static_cast<uint32_t>(block.row_begin() + j);
          const float d = nn::Distance(points, i, reps, rep);
          if (!(d < dist[k - 1])) continue;
          size_t pos = k - 1;
          while (pos > 0 && dist[pos - 1] > d) {
            dist[pos] = dist[pos - 1];
            ids[pos] = ids[pos - 1];
            --pos;
          }
          dist[pos] = d;
          ids[pos] = rep;
          cutoff = cutoff_for(dist[k - 1]);
          changed = true;
        }
      }
      if (changed && dirty_rows != nullptr) {
        chunk_dirty.push_back(static_cast<uint32_t>(i));
      }
    }
    if (!chunk_dirty.empty()) {
      std::lock_guard<std::mutex> lock(dirty_mu);
      dirty_rows->insert(dirty_rows->end(), chunk_dirty.begin(),
                         chunk_dirty.end());
    }
  }, 256);
}

}  // namespace tasti::cluster
