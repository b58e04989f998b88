#include "core/serialize.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "embed/pretrained.h"
#include "embed/triplet_trainer.h"
#include "labeler/label_codec.h"
#include "nn/serialize.h"
#include "util/bytes.h"
#include "util/checksum.h"

namespace tasti::core {

namespace {

constexpr uint32_t kMagic = 0x54535449;  // "TSTI"
// v3: per-representative validity flags (degraded builds) + integrity
// footer over the whole buffer.
constexpr uint32_t kVersion = 3;

// Largest pretrained random projection (in_dim x out_dim floats, 64 MiB)
// a loaded index may ask for.
constexpr uint64_t kMaxProjectionFloats = uint64_t{1} << 24;

template <typename T>
void PutVector(std::string* out, const std::vector<T>& v) {
  static_assert(std::is_trivially_copyable_v<T>, "PutVector requires POD");
  PutPod<uint64_t>(out, v.size());
  out->append(reinterpret_cast<const char*>(v.data()), v.size() * sizeof(T));
}

template <typename T>
bool GetVector(const std::string& in, size_t* at, std::vector<T>* v) {
  uint64_t n = 0;
  if (!GetPod(in, at, &n) || !CountFits(in, *at, n, sizeof(T))) return false;
  const size_t bytes = n * sizeof(T);
  v->resize(n);
  if (bytes > 0) std::memcpy(v->data(), in.data() + *at, bytes);
  *at += bytes;
  return true;
}

}  // namespace

Result<std::string> IndexSerializer::SerializeToString(const TastiIndex& index) {
  std::string out;
  PutPod<uint32_t>(&out, kMagic);
  PutPod<uint32_t>(&out, kVersion);

  // Options (only the fields that affect interpretation of the payload).
  PutPod<uint64_t>(&out, index.options().k);
  PutPod<uint64_t>(&out, index.options().embedding_dim);

  nn::PutMatrix(&out, index.embeddings_);
  nn::PutMatrix(&out, index.rep_embeddings_);

  // Representative record ids as u64.
  std::vector<uint64_t> rep_ids(index.rep_record_ids_.begin(),
                                index.rep_record_ids_.end());
  PutVector(&out, rep_ids);

  // Labels use the shared codec (labeler/label_codec.h) — the same
  // encoding the write-ahead log stores per crack.
  PutPod<uint64_t>(&out, index.rep_labels_.size());
  for (const data::LabelerOutput& label : index.rep_labels_) {
    labeler::EncodeLabel(&out, label);
  }
  // v3: validity flags (0 marks a representative whose annotation failed).
  PutVector(&out, index.rep_label_valid_);

  PutPod<uint64_t>(&out, index.topk_.k);
  PutPod<uint64_t>(&out, index.topk_.num_records);
  PutVector(&out, index.topk_.rep_ids);
  PutVector(&out, index.topk_.distances);

  // Embedder block (v2): lets a loaded index ingest new records.
  if (const auto* pretrained = dynamic_cast<const embed::PretrainedEmbedder*>(
          index.embedder_.get())) {
    PutPod<uint8_t>(&out, 1);
    PutPod<uint64_t>(&out, pretrained->input_dim());
    PutPod<uint64_t>(&out, pretrained->embedding_dim());
    PutPod<uint64_t>(&out, pretrained->seed());
  } else if (const auto* trained = dynamic_cast<const embed::TrainedEmbedder*>(
                 index.embedder_.get())) {
    PutPod<uint8_t>(&out, 2);
    PutPod<uint64_t>(&out, trained->embedding_dim());
    Result<std::string> blob = nn::SerializeMlp(trained->model());
    TASTI_RETURN_NOT_OK(blob.status());
    PutPod<uint64_t>(&out, blob->size());
    out.append(*blob);
  } else {
    PutPod<uint8_t>(&out, 0);  // no embedder (or an unknown custom type)
  }
  AppendChecksumFooter(&out);
  return out;
}

Result<TastiIndex> IndexSerializer::DeserializeFromString(
    const std::string& raw) {
  Result<size_t> payload_size = VerifyChecksumFooter(raw);
  TASTI_RETURN_NOT_OK(payload_size.status());
  const std::string buffer = raw.substr(0, *payload_size);
  size_t at = 0;
  uint32_t magic = 0, version = 0;
  if (!GetPod(buffer, &at, &magic) || magic != kMagic) {
    return Status::InvalidArgument("bad magic: not a TASTI index");
  }
  if (!GetPod(buffer, &at, &version) || version != kVersion) {
    return Status::InvalidArgument("unsupported index version");
  }

  TastiIndex index;
  uint64_t k = 0, embedding_dim = 0;
  if (!GetPod(buffer, &at, &k) || !GetPod(buffer, &at, &embedding_dim)) {
    return Status::InvalidArgument("truncated header");
  }
  index.options_.k = k;
  index.options_.embedding_dim = embedding_dim;

  if (!nn::GetMatrix(buffer, &at, &index.embeddings_) ||
      !nn::GetMatrix(buffer, &at, &index.rep_embeddings_)) {
    return Status::InvalidArgument("truncated embedding matrices");
  }

  std::vector<uint64_t> rep_ids;
  if (!GetVector(buffer, &at, &rep_ids)) {
    return Status::InvalidArgument("truncated representative ids");
  }
  index.rep_record_ids_.assign(rep_ids.begin(), rep_ids.end());

  uint64_t num_labels = 0;
  if (!GetPod(buffer, &at, &num_labels)) {
    return Status::InvalidArgument("truncated label count");
  }
  if (num_labels != rep_ids.size()) {
    return Status::InvalidArgument("label/representative count mismatch");
  }
  index.rep_labels_.resize(num_labels);
  for (uint64_t i = 0; i < num_labels; ++i) {
    if (!labeler::DecodeLabel(buffer, &at, &index.rep_labels_[i])) {
      return Status::InvalidArgument("truncated labels");
    }
  }

  if (!GetVector(buffer, &at, &index.rep_label_valid_)) {
    return Status::InvalidArgument("truncated validity flags");
  }
  if (index.rep_label_valid_.size() != num_labels) {
    return Status::InvalidArgument("validity/label count mismatch");
  }
  index.num_failed_reps_ = 0;
  for (uint8_t valid : index.rep_label_valid_) {
    if (valid == 0) ++index.num_failed_reps_;
  }

  uint64_t topk_k = 0, topk_n = 0;
  if (!GetPod(buffer, &at, &topk_k) || !GetPod(buffer, &at, &topk_n) ||
      !GetVector(buffer, &at, &index.topk_.rep_ids) ||
      !GetVector(buffer, &at, &index.topk_.distances)) {
    return Status::InvalidArgument("truncated top-k block");
  }
  index.topk_.k = topk_k;
  index.topk_.num_records = topk_n;
  // Propagation reads rep_scores[RepId(r, j)] and every crack relaxes the
  // lists against rep_embeddings_, so the block's shape and ids must agree
  // with the rest of the index. k * n is checked by division: no overflow.
  const size_t num_reps = rep_ids.size();
  const size_t cells = index.topk_.rep_ids.size();
  if (topk_k == 0 || topk_k > num_reps || cells % topk_k != 0 ||
      cells / topk_k != topk_n || index.topk_.distances.size() != cells) {
    return Status::InvalidArgument("top-k block size mismatch");
  }
  if (topk_n != index.embeddings_.rows() ||
      index.rep_embeddings_.rows() != num_reps ||
      index.rep_embeddings_.cols() != index.embeddings_.cols()) {
    return Status::InvalidArgument("top-k block does not match embeddings");
  }
  for (uint32_t id : index.topk_.rep_ids) {
    if (id >= num_reps) {
      return Status::InvalidArgument("top-k representative id out of range");
    }
  }

  index.is_rep_.assign(index.embeddings_.rows(), 0);
  for (size_t record : index.rep_record_ids_) {
    if (record >= index.is_rep_.size()) {
      return Status::InvalidArgument("representative id out of range");
    }
    index.is_rep_[record] = 1;
  }

  uint8_t embedder_tag = 0;
  if (!GetPod(buffer, &at, &embedder_tag)) {
    return Status::InvalidArgument("truncated embedder block");
  }
  switch (embedder_tag) {
    case 0:
      break;
    case 1: {
      uint64_t in_dim = 0, out_dim = 0, seed = 0;
      if (!GetPod(buffer, &at, &in_dim) || !GetPod(buffer, &at, &out_dim) ||
          !GetPod(buffer, &at, &seed)) {
        return Status::InvalidArgument("truncated pretrained embedder block");
      }
      // The projection is regenerated from the seed, so no payload bytes
      // bound its size: cap it before allocating.
      if (out_dim != index.embeddings_.cols() || in_dim == 0 ||
          out_dim == 0 || in_dim > kMaxProjectionFloats / out_dim) {
        return Status::InvalidArgument("implausible pretrained embedder shape");
      }
      index.embedder_ =
          std::make_unique<embed::PretrainedEmbedder>(in_dim, out_dim, seed);
      break;
    }
    case 2: {
      uint64_t dim = 0, blob_size = 0;
      if (!GetPod(buffer, &at, &dim) || !GetPod(buffer, &at, &blob_size) ||
          !CountFits(buffer, at, blob_size, 1)) {
        return Status::InvalidArgument("truncated trained embedder block");
      }
      if (dim != index.embeddings_.cols()) {
        return Status::InvalidArgument("trained embedder width mismatch");
      }
      Result<nn::Mlp> model =
          nn::DeserializeMlp(buffer.substr(at, blob_size));
      if (!model.ok()) return model.status();
      at += blob_size;
      index.embedder_ = std::make_unique<embed::TrainedEmbedder>(
          std::move(*model), dim);
      break;
    }
    default:
      return Status::InvalidArgument("unknown embedder tag");
  }
  if (at != buffer.size()) {
    return Status::InvalidArgument("trailing bytes after embedder block");
  }
  return index;
}

Status IndexSerializer::Save(const TastiIndex& index, const std::string& path) {
  Result<std::string> buffer = SerializeToString(index);
  TASTI_RETURN_NOT_OK(buffer.status());
  // Atomic publish: tmp file + fsync + rename. A crash mid-Save leaves at
  // most a stray tmp; `path` always holds a complete index (the old one
  // until the rename commits, the new one after).
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return Status::IOError("cannot open for writing: " + tmp + ": " +
                           std::strerror(errno));
  }
  size_t written = 0;
  while (written < buffer->size()) {
    const ssize_t n =
        ::write(fd, buffer->data() + written, buffer->size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      const std::string detail = std::strerror(errno);
      ::close(fd);
      ::remove(tmp.c_str());
      return Status::IOError("write failed: " + tmp + ": " + detail);
    }
    written += static_cast<size_t>(n);
  }
  if (::fsync(fd) != 0) {
    const std::string detail = std::strerror(errno);
    ::close(fd);
    ::remove(tmp.c_str());
    return Status::IOError("fsync failed: " + tmp + ": " + detail);
  }
  ::close(fd);
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    const std::string detail = std::strerror(errno);
    ::remove(tmp.c_str());
    return Status::IOError("rename failed: " + tmp + " -> " + path + ": " +
                           detail);
  }
  return Status::OK();
}

Result<TastiIndex> IndexSerializer::Load(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file) return Status::IOError("cannot open for reading: " + path);
  std::ostringstream buffer;
  buffer << file.rdbuf();
  return DeserializeFromString(buffer.str());
}

}  // namespace tasti::core
