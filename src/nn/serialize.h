#ifndef TASTI_NN_SERIALIZE_H_
#define TASTI_NN_SERIALIZE_H_

/// \file serialize.h
/// Binary (de)serialization of MLPs, so a trained embedding network can be
/// persisted with its index and reused to embed new records (streaming
/// ingestion) without retraining.

#include <cstddef>
#include <string>

#include "nn/mlp.h"
#include "util/status.h"

namespace tasti::nn {

/// Serializes the architecture and weights of an MLP, with an integrity
/// footer (util/checksum.h). Fails on an unserializable layer type instead
/// of aborting.
Result<std::string> SerializeMlp(const Mlp& mlp);

/// Parses an MLP previously produced by SerializeMlp. The integrity footer
/// is verified first, so truncated or bit-flipped buffers fail cleanly.
Result<Mlp> DeserializeMlp(const std::string& buffer);

/// Appends a matrix as u64 rows, u64 cols, then its floats row-major. The
/// index serializer and the write-ahead log share this layout.
void PutMatrix(std::string* out, const Matrix& m);

/// Reads a PutMatrix block at `*at` and advances past it. Returns false,
/// allocating nothing, when the block is truncated or its shape claims
/// more floats than the bytes left (including a rows * cols overflow).
bool GetMatrix(const std::string& in, size_t* at, Matrix* m);

}  // namespace tasti::nn

#endif  // TASTI_NN_SERIALIZE_H_
