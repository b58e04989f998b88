#ifndef TASTI_CLUSTER_TOPK_H_
#define TASTI_CLUSTER_TOPK_H_

/// \file topk.h
/// Exact k-nearest-representative computation (the "min-k distances" of
/// Algorithm 1). Construction, streaming appends and every crack merge
/// representatives into the min-k lists through one routine, RelaxTopK.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "nn/matrix.h"

namespace tasti::cluster {

/// For every record, its k nearest representatives (ascending by
/// distance). Stored flattened: record r's j-th neighbor sits at
/// index r * k + j.
struct TopKDistances {
  size_t k = 0;
  size_t num_records = 0;
  std::vector<uint32_t> rep_ids;  ///< indices into the representative list
  std::vector<float> distances;   ///< Euclidean distances, ascending per record

  uint32_t RepId(size_t record, size_t j) const { return rep_ids[record * k + j]; }
  float Dist(size_t record, size_t j) const { return distances[record * k + j]; }
};

/// Computes exact top-k over all representative rows: every list starts at
/// +inf and RelaxTopK merges representatives [0, reps.rows()) into it.
/// O(n * r * dim), parallelized over records.
TopKDistances ComputeTopK(const nn::Matrix& points, const nn::Matrix& reps,
                          size_t k);

/// Merges representative rows [first_rep, reps.rows()) of `reps` into every
/// record's min-k list in place; representative ids are row indices of
/// `reps`. Candidates are screened with the dot-trick batch kernel, but a
/// representative is skipped only when a conservative bound on that
/// kernel's rounding error proves it cannot beat the record's current k-th
/// distance. Every insertion is decided on the exact nn::Distance, scanning
/// representatives in ascending id, so ties go to the lower id and the
/// lists match a scalar brute-force scan of all rows bit for bit.
///
/// When `dirty_rows` is non-null, the ids of records whose top-k list
/// actually changed are appended to it (unsorted, but duplicate-free for a
/// single call). This is the ground truth the incremental propagation
/// engine keys on: a record's proxy score depends only on its own top-k
/// row, so exactly these rows need recomputing after the crack.
void RelaxTopK(const nn::Matrix& points, const nn::Matrix& reps,
               size_t first_rep, TopKDistances* topk,
               std::vector<uint32_t>* dirty_rows);

}  // namespace tasti::cluster

#endif  // TASTI_CLUSTER_TOPK_H_
