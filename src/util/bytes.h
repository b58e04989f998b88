#ifndef TASTI_UTIL_BYTES_H_
#define TASTI_UTIL_BYTES_H_

/// \file bytes.h
/// Raw little-endian field I/O over a std::string buffer, shared by every
/// binary codec (index and MLP serializers, label codec, checkpoint and
/// write-ahead log).
///
/// Decoders read untrusted bytes: a count or a shape read from the buffer
/// must pass CountFits / GridFits before anything is reserved, resized or
/// allocated for it, so a corrupt length yields a decode error rather
/// than an allocation failure or a wrapped size.

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <type_traits>

namespace tasti {

/// Appends the bytes of a trivially copyable value.
template <typename T>
void PutPod(std::string* out, const T& value) {
  static_assert(std::is_trivially_copyable_v<T>, "PutPod requires POD");
  out->append(reinterpret_cast<const char*>(&value), sizeof(T));
}

/// Reads a value at `*at` and advances past it; false if the buffer holds
/// fewer than sizeof(T) bytes there.
template <typename T>
bool GetPod(const std::string& in, size_t* at, T* value) {
  static_assert(std::is_trivially_copyable_v<T>, "GetPod requires POD");
  if (*at > in.size() || in.size() - *at < sizeof(T)) return false;
  std::memcpy(value, in.data() + *at, sizeof(T));
  *at += sizeof(T);
  return true;
}

/// True when `count` items of at least `item_bytes` bytes each fit in the
/// bytes of `in` after offset `at`.
inline bool CountFits(const std::string& in, size_t at, uint64_t count,
                      size_t item_bytes) {
  return at <= in.size() && count <= (in.size() - at) / item_bytes;
}

/// CountFits for a rows x cols grid; false when rows * cols overflows.
inline bool GridFits(const std::string& in, size_t at, uint64_t rows,
                     uint64_t cols, size_t item_bytes) {
  if (cols != 0 && rows > std::numeric_limits<uint64_t>::max() / cols) {
    return false;
  }
  return CountFits(in, at, rows * cols, item_bytes);
}

}  // namespace tasti

#endif  // TASTI_UTIL_BYTES_H_
