#ifndef TASTI_LABELER_LABEL_CODEC_H_
#define TASTI_LABELER_LABEL_CODEC_H_

/// \file label_codec.h
/// Binary (de)serialization of oracle labels (data::LabelerOutput).
///
/// The encoding — a one-byte modality tag followed by the variant's
/// payload, little-endian — is shared by the index serializer
/// (core/serialize.cc) and the write-ahead log (durable/wal.cc), which
/// captures the oracle labels a crack consumed so replay can reproduce the
/// exact representative placements. One codec keeps the two formats from
/// drifting apart.

#include <cstddef>
#include <string>

#include "data/schema.h"

namespace tasti::labeler {

/// Appends the encoded label to `out`.
void EncodeLabel(std::string* out, const data::LabelerOutput& label);

/// Decodes one label from `in` at `*at`, advancing `*at` past it. Returns
/// false (leaving `*label` unspecified) on truncation, on a box count the
/// remaining bytes cannot hold, or on an unknown tag.
bool DecodeLabel(const std::string& in, size_t* at, data::LabelerOutput* label);

}  // namespace tasti::labeler

#endif  // TASTI_LABELER_LABEL_CODEC_H_
