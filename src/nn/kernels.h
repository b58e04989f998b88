#ifndef TASTI_NN_KERNELS_H_
#define TASTI_NN_KERNELS_H_

/// \file kernels.h
/// Batched, cache-blocked distance kernels.
///
/// Index construction is dominated by all-records x all-representatives
/// distance computations (min-k top-k lists, FPF). The scalar
/// one-pair-at-a-time loops in matrix.cc are latency-bound: a float
/// reduction is a dependent add chain the compiler may not reassociate.
/// The kernels here restructure the work so the hot inner loops carry no
/// loop-carried dependence and auto-vectorize:
///
///  * Many-representative batches use the dot-trick
///    `d2(x, y) = |x|^2 + |y|^2 - 2 x.y` over a register-blocked GEMM with
///    cached per-row norms, clamped at zero (the subtraction can go
///    slightly negative for near-duplicate rows).
///  * One-center batches (triplet-mining candidate scans) keep the
///    cancellation-free `(x - y)^2` form but split the depth reduction
///    across independent accumulator lanes.
///
///  * The crack relax screens a chunk of records against each tile with a
///    multi-record register tile (SquaredDistanceTile), dispatched by ISA.
///
/// All kernels accumulate each output element sequentially over the depth
/// dimension, so results are deterministic and independent of threading
/// and of the ISA variant that runs.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "nn/matrix.h"

namespace tasti::nn {

/// Default number of representative rows per packed tile. 64 rows x 64
/// dims x 4 bytes = 16 KiB: the tile stays L1-resident while a chunk of
/// records streams against it.
inline constexpr size_t kDistanceBlockRows = 64;

/// Squared L2 norm of one row of `m`, accumulated sequentially (the same
/// order the blocked GEMM uses along depth, so `d2(x, x)` cancels to zero
/// exactly for bitwise-identical rows).
float RowSquaredNorm(const Matrix& m, size_t row);

/// A tile of representative rows packed depth-major (dim x rows) so the
/// batched kernels stream it with unit stride, plus cached squared norms.
class PackedBlock {
 public:
  PackedBlock() = default;

  /// Packs rows [row_begin, row_end) of `reps`.
  void Pack(const Matrix& reps, size_t row_begin, size_t row_end);

  size_t rows() const { return rows_; }
  size_t row_begin() const { return row_begin_; }
  size_t dim() const { return dim_; }
  bool empty() const { return rows_ == 0; }
  /// Depth-major data: element (p, j) = reps(row_begin + j, p) sits at
  /// p * rows() + j.
  const float* packed() const { return packed_.data(); }
  const float* norms() const { return norms_.data(); }

 private:
  size_t row_begin_ = 0;
  size_t rows_ = 0;
  size_t dim_ = 0;
  std::vector<float> packed_;
  std::vector<float> norms_;
};

/// Splits rows [row_begin, reps.rows()) of `reps` into consecutive packed
/// tiles of at most kDistanceBlockRows rows each.
std::vector<PackedBlock> PackBlocks(const Matrix& reps, size_t row_begin = 0);

/// Dot products of row `point_row` of `points` against every row of the
/// block: out[j] = points[point_row] . block_row_j. The j loop is unit
/// stride over the packed tile and carries no dependence, so it
/// vectorizes; the depth accumulation stays sequential per output.
void DotBatch(const Matrix& points, size_t point_row, const PackedBlock& block,
              float* out);

/// Batched squared distances via the dot-trick with a clamp at zero:
/// out[j] = max(0, point_norm + block_norm_j - 2 * dot_j) for every row j
/// of the block. `point_norm` must be RowSquaredNorm(points, point_row).
void SquaredDistanceBatch(const Matrix& points, size_t point_row,
                          float point_norm, const PackedBlock& block,
                          float* out);

/// Convenience overload that computes the point norm itself.
void SquaredDistanceBatch(const Matrix& points, size_t point_row,
                          const PackedBlock& block, float* out);

/// Records per register tile of SquaredDistanceTile.
inline constexpr size_t kTileRecords = 4;

/// SquaredDistanceBatch for `count` (1..kTileRecords) consecutive records
/// [first_row, first_row + count) of `points` at once:
/// out[r * block.rows() + j] is the squared distance of record
/// first_row + r to row j of the block, and `point_norms[r]` must be
/// RowSquaredNorm(points, first_row + r). A 4-record x 16-rep register
/// tile makes each packed load feed four multiply-adds.
///
/// The tile is compiled for baseline x86-64, AVX2 and AVX-512F, and the
/// widest variant the CPU supports is picked once. kernels.cc is built
/// with -ffp-contract=off, so no variant fuses a multiply and an add, and
/// every output sums over depth in the same sequential order: all variants
/// return exactly the bits SquaredDistanceBatch does.
void SquaredDistanceTile(const Matrix& points, size_t first_row, size_t count,
                         const float* point_norms, const PackedBlock& block,
                         float* out);

namespace internal {

/// One compiled variant of SquaredDistanceTile, same contract.
struct TileKernel {
  const char* isa;  ///< "baseline", "avx2" or "avx512f"
  void (*fn)(const Matrix& points, size_t first_row, size_t count,
             const float* point_norms, const PackedBlock& block, float* out);
};

/// The variants this CPU can run, narrowest first. SquaredDistanceTile
/// dispatches to the last one. Exposed so tests can check each variant.
std::vector<TileKernel> HostTileKernels();

}  // namespace internal

/// Cancellation-free one-to-many: out[i - lo] = |m_i - y|^2 for rows
/// [lo, hi) of `m`; `y` holds m.cols() floats. Used where a single vector
/// is compared against many rows (triplet-mining candidate scans) and the
/// dot-trick has no reuse to exploit.
void SquaredDistanceOneToMany(const Matrix& m, size_t lo, size_t hi,
                              const float* y, float* out);

/// Register-blocked C = A * B^T (same contract as GemmBT): B is packed
/// into depth-major tiles once and every row of A streams against each
/// tile while it is cache-hot.
void GemmBTBlocked(const Matrix& a, const Matrix& b, Matrix* c);

}  // namespace tasti::nn

#endif  // TASTI_NN_KERNELS_H_
