#include "nn/serialize.h"

#include <cstdint>
#include <cstring>

#include "util/bytes.h"
#include "util/checksum.h"

namespace tasti::nn {

namespace {

constexpr uint32_t kMagic = 0x4D4C5054;  // "MLPT"

enum class LayerTag : uint8_t {
  kLinear = 0,
  kReLU = 1,
  kTanh = 2,
  kL2Normalize = 3,
};

}  // namespace

void PutMatrix(std::string* out, const Matrix& m) {
  PutPod<uint64_t>(out, m.rows());
  PutPod<uint64_t>(out, m.cols());
  out->append(reinterpret_cast<const char*>(m.data()), m.size() * sizeof(float));
}

bool GetMatrix(const std::string& in, size_t* at, Matrix* m) {
  uint64_t rows = 0, cols = 0;
  if (!GetPod(in, at, &rows) || !GetPod(in, at, &cols) ||
      !GridFits(in, *at, rows, cols, sizeof(float))) {
    return false;
  }
  const size_t bytes = rows * cols * sizeof(float);
  *m = Matrix(rows, cols);
  if (bytes > 0) std::memcpy(m->data(), in.data() + *at, bytes);
  *at += bytes;
  return true;
}

Result<std::string> SerializeMlp(const Mlp& mlp) {
  std::string out;
  PutPod<uint32_t>(&out, kMagic);
  PutPod<uint32_t>(&out, static_cast<uint32_t>(mlp.num_layers()));
  Status layer_status = Status::OK();
  mlp.VisitLayers([&out, &layer_status](const Layer& layer) {
    if (!layer_status.ok()) return;
    const std::string name = layer.Name();
    if (name == "Linear") {
      const auto& lin = static_cast<const Linear&>(layer);
      PutPod<uint8_t>(&out, static_cast<uint8_t>(LayerTag::kLinear));
      PutMatrix(&out, const_cast<Linear&>(lin).weight().value);
      PutMatrix(&out, const_cast<Linear&>(lin).bias().value);
    } else if (name == "ReLU") {
      PutPod<uint8_t>(&out, static_cast<uint8_t>(LayerTag::kReLU));
    } else if (name == "Tanh") {
      PutPod<uint8_t>(&out, static_cast<uint8_t>(LayerTag::kTanh));
    } else if (name == "L2Normalize") {
      PutPod<uint8_t>(&out, static_cast<uint8_t>(LayerTag::kL2Normalize));
    } else {
      layer_status =
          Status::InvalidArgument("unknown layer in SerializeMlp: " + name);
    }
  });
  TASTI_RETURN_NOT_OK(layer_status);
  AppendChecksumFooter(&out);
  return out;
}

Result<Mlp> DeserializeMlp(const std::string& buffer) {
  Result<size_t> payload_size = VerifyChecksumFooter(buffer);
  TASTI_RETURN_NOT_OK(payload_size.status());
  const std::string payload = buffer.substr(0, *payload_size);
  size_t at = 0;
  uint32_t magic = 0, num_layers = 0;
  if (!GetPod(payload, &at, &magic) || magic != kMagic) {
    return Status::InvalidArgument("bad magic: not a serialized MLP");
  }
  if (!GetPod(payload, &at, &num_layers)) {
    return Status::InvalidArgument("truncated MLP header");
  }
  Mlp mlp;
  Rng dummy(0);
  size_t width = 0;  // output width of the last Linear layer (0: none yet)
  for (uint32_t l = 0; l < num_layers; ++l) {
    uint8_t tag = 0;
    if (!GetPod(payload, &at, &tag)) {
      return Status::InvalidArgument("truncated layer tag");
    }
    switch (static_cast<LayerTag>(tag)) {
      case LayerTag::kLinear: {
        Matrix weight, bias;
        if (!GetMatrix(payload, &at, &weight) ||
            !GetMatrix(payload, &at, &bias)) {
          return Status::InvalidArgument("truncated Linear weights");
        }
        if (weight.rows() == 0 || weight.cols() == 0 ||
            weight.cols() != bias.cols() || bias.rows() != 1 ||
            (width != 0 && weight.rows() != width)) {
          return Status::InvalidArgument("inconsistent Linear shapes");
        }
        width = weight.cols();
        auto layer =
            std::make_unique<Linear>(weight.rows(), weight.cols(), &dummy);
        layer->weight().value = std::move(weight);
        layer->bias().value = std::move(bias);
        mlp.Append(std::move(layer));
        break;
      }
      case LayerTag::kReLU:
        mlp.Append(std::make_unique<ReLU>());
        break;
      case LayerTag::kTanh:
        mlp.Append(std::make_unique<Tanh>());
        break;
      case LayerTag::kL2Normalize:
        mlp.Append(std::make_unique<L2Normalize>());
        break;
      default:
        return Status::InvalidArgument("unknown layer tag");
    }
  }
  return mlp;
}

}  // namespace tasti::nn
