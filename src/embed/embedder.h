#ifndef TASTI_EMBED_EMBEDDER_H_
#define TASTI_EMBED_EMBEDDER_H_

/// \file embedder.h
/// The embedding DNN interface: features -> R^d vectors such that records
/// with similar target-labeler outputs are close (paper Section 3.1).

#include <cstddef>

#include "nn/matrix.h"

namespace tasti::embed {

/// Maps sensor features to semantic embeddings.
class Embedder {
 public:
  virtual ~Embedder() = default;

  /// Embeds a batch of records (rows). Thread-safe for const receivers.
  virtual nn::Matrix Embed(const nn::Matrix& features) const = 0;

  /// Output dimensionality.
  virtual size_t embedding_dim() const = 0;

  /// Feature width Embed accepts: every input row must have this many
  /// columns.
  virtual size_t input_dim() const = 0;
};

}  // namespace tasti::embed

#endif  // TASTI_EMBED_EMBEDDER_H_
