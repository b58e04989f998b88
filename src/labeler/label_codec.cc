#include "labeler/label_codec.h"

#include <cstdint>
#include <utility>

#include "util/bytes.h"

namespace tasti::labeler {

namespace {

enum class LabelTag : uint8_t { kVideo = 0, kText = 1, kSpeech = 2 };

// Encoded size of one box: class byte plus four floats.
constexpr size_t kBoxBytes = sizeof(uint8_t) + 4 * sizeof(float);

}  // namespace

void EncodeLabel(std::string* out, const data::LabelerOutput& label) {
  if (const auto* video = std::get_if<data::VideoLabel>(&label)) {
    PutPod<uint8_t>(out, static_cast<uint8_t>(LabelTag::kVideo));
    PutPod<uint32_t>(out, static_cast<uint32_t>(video->boxes.size()));
    for (const data::Box& box : video->boxes) {
      PutPod<uint8_t>(out, static_cast<uint8_t>(box.cls));
      PutPod<float>(out, box.x);
      PutPod<float>(out, box.y);
      PutPod<float>(out, box.w);
      PutPod<float>(out, box.h);
    }
    return;
  }
  if (const auto* text = std::get_if<data::TextLabel>(&label)) {
    PutPod<uint8_t>(out, static_cast<uint8_t>(LabelTag::kText));
    PutPod<uint8_t>(out, static_cast<uint8_t>(text->op));
    PutPod<int32_t>(out, text->num_predicates);
    return;
  }
  const auto& speech = std::get<data::SpeechLabel>(label);
  PutPod<uint8_t>(out, static_cast<uint8_t>(LabelTag::kSpeech));
  PutPod<uint8_t>(out, static_cast<uint8_t>(speech.gender));
  PutPod<int32_t>(out, speech.age_years);
}

bool DecodeLabel(const std::string& in, size_t* at,
                 data::LabelerOutput* label) {
  uint8_t tag = 0;
  if (!GetPod(in, at, &tag)) return false;
  switch (static_cast<LabelTag>(tag)) {
    case LabelTag::kVideo: {
      uint32_t count = 0;
      if (!GetPod(in, at, &count) || !CountFits(in, *at, count, kBoxBytes)) {
        return false;
      }
      data::VideoLabel video;
      video.boxes.reserve(count);
      for (uint32_t i = 0; i < count; ++i) {
        uint8_t cls = 0;
        data::Box box;
        if (!GetPod(in, at, &cls) || !GetPod(in, at, &box.x) ||
            !GetPod(in, at, &box.y) || !GetPod(in, at, &box.w) ||
            !GetPod(in, at, &box.h)) {
          return false;
        }
        box.cls = static_cast<data::ObjectClass>(cls);
        video.boxes.push_back(box);
      }
      *label = std::move(video);
      return true;
    }
    case LabelTag::kText: {
      uint8_t op = 0;
      int32_t preds = 0;
      if (!GetPod(in, at, &op) || !GetPod(in, at, &preds)) return false;
      data::TextLabel text;
      text.op = static_cast<data::SqlOp>(op);
      text.num_predicates = preds;
      *label = text;
      return true;
    }
    case LabelTag::kSpeech: {
      uint8_t gender = 0;
      int32_t age = 0;
      if (!GetPod(in, at, &gender) || !GetPod(in, at, &age)) return false;
      data::SpeechLabel speech;
      speech.gender = static_cast<data::Gender>(gender);
      speech.age_years = age;
      *label = speech;
      return true;
    }
  }
  return false;
}

}  // namespace tasti::labeler
