#ifndef TASTI_EMBED_PRETRAINED_H_
#define TASTI_EMBED_PRETRAINED_H_

/// \file pretrained.h
/// The TASTI-PT embedder: a generic, frozen embedding analogous to an
/// ImageNet-pretrained ResNet or off-the-shelf BERT (paper Section 3.1's
/// "pre-trained embeddings" option). Implemented as a fixed random
/// nonlinear projection followed by row L2 normalization.

#include <cstddef>
#include <cstdint>

#include "embed/embedder.h"
#include "nn/random_projection.h"

namespace tasti::embed {

/// Frozen generic embedder.
class PretrainedEmbedder : public Embedder {
 public:
  /// Projects `in_dim` features to `out_dim` embeddings; deterministic in
  /// `seed`.
  PretrainedEmbedder(size_t in_dim, size_t out_dim, uint64_t seed);

  nn::Matrix Embed(const nn::Matrix& features) const override;
  size_t embedding_dim() const override { return out_dim_; }
  size_t input_dim() const override { return in_dim_; }

  /// Construction parameter, exposed for serialization.
  uint64_t seed() const { return seed_; }

 private:
  size_t in_dim_;
  size_t out_dim_;
  uint64_t seed_;
  nn::RandomProjection projection_;
};

}  // namespace tasti::embed

#endif  // TASTI_EMBED_PRETRAINED_H_
