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

  // New representatives packed once into depth-major 16 KiB tiles. Each
  // chunk of records walks the tiles on the outside and its own records on
  // the inside, so a tile stays L1-resident while the chunk streams against
  // it; every record still sees the new reps in ascending id.
  const std::vector<nn::PackedBlock> blocks = nn::PackBlocks(reps, first_rep);

  // Skip bound. With unit roundoff u and g = (dim + 3) u, the batch kernel's
  // d2 is within 2g (|x|^2 + |y|^2) of the true squared distance D, and the
  // exact formula returns at least D (1 - g). So d2 > t2 + 4g (t2 + |x|^2 +
  // |y|^2), with t2 = thr * thr, implies the exact distance is >= thr. The
  // slack below is twice that 4g, to absorb the rounding of the test itself.
  // The tile kernel never fuses a multiply-add, on any ISA, so the bound
  // holds for every variant.
  const float slack = 4.0f * static_cast<float>(reps.cols() + 4) *
                      std::numeric_limits<float>::epsilon();
  auto cutoff_for = [slack](float thr, float point_norm) {
    const float thr2 = thr * thr;
    return thr2 + slack * (thr2 + point_norm);
  };

  // Relaxes records [lo, lo + m), m <= kChunk, appending the ids of those
  // whose list changed to `chunk_dirty`.
  constexpr size_t kChunk = 256;
  auto relax_chunk = [&](size_t lo, size_t m,
                         std::vector<uint32_t>* chunk_dirty) {
    float point_norm[kChunk];
    float cutoff[kChunk];
    bool changed[kChunk] = {};
    float dist2[nn::kTileRecords * nn::kDistanceBlockRows];
    for (size_t r = 0; r < m; ++r) {
      point_norm[r] = nn::RowSquaredNorm(points, lo + r);
      cutoff[r] = cutoff_for(topk->distances[(lo + r) * k + k - 1],
                             point_norm[r]);
    }
    for (const nn::PackedBlock& block : blocks) {
      const size_t nb = block.rows();
      const float* rep_norms = block.norms();
      for (size_t r0 = 0; r0 < m; r0 += nn::kTileRecords) {
        const size_t count = std::min(nn::kTileRecords, m - r0);
        nn::SquaredDistanceTile(points, lo + r0, count, point_norm + r0,
                                block, dist2);
        for (size_t t = 0; t < count; ++t) {
          const size_t r = r0 + t;
          const size_t i = lo + r;
          const float* d2 = dist2 + t * nb;
          float* dist = topk->distances.data() + i * k;
          uint32_t* ids = topk->rep_ids.data() + i * k;
          for (size_t j = 0; j < nb; ++j) {
            if (d2[j] > cutoff[r] + slack * rep_norms[j]) continue;
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
            cutoff[r] = cutoff_for(dist[k - 1], point_norm[r]);
            changed[r] = true;
          }
        }
      }
    }
    for (size_t r = 0; r < m; ++r) {
      if (changed[r]) chunk_dirty->push_back(static_cast<uint32_t>(lo + r));
    }
  };

  std::mutex dirty_mu;
  ParallelForDynamic(0, points.rows(), [&](size_t lo, size_t hi,
                                           size_t /*worker*/) {
    // A nested or single-worker call gets the whole range at once.
    std::vector<uint32_t> chunk_dirty;
    for (size_t c = lo; c < hi; c += kChunk) {
      relax_chunk(c, std::min(kChunk, hi - c), &chunk_dirty);
    }
    if (dirty_rows != nullptr && !chunk_dirty.empty()) {
      std::lock_guard<std::mutex> lock(dirty_mu);
      dirty_rows->insert(dirty_rows->end(), chunk_dirty.begin(),
                         chunk_dirty.end());
    }
  }, kChunk);
}

}  // namespace tasti::cluster
