// Little binary serialization layer used by the net wire protocol and the
// telemetry frames. Values are written in native (little-endian) layout.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "common/buffer.hpp"
#include "common/error.hpp"

namespace dooc {

/// Append-only binary writer producing a DataBuffer.
class BinaryWriter {
 public:
  template <typename T>
  void put(const T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    const auto* p = reinterpret_cast<const std::byte*>(&value);
    out_.insert(out_.end(), p, p + sizeof(T));
  }

  void put_string(const std::string& s) {
    put<std::uint64_t>(s.size());
    const auto* p = reinterpret_cast<const std::byte*>(s.data());
    out_.insert(out_.end(), p, p + s.size());
  }

  template <typename T>
  void put_span(std::span<const T> values) {
    static_assert(std::is_trivially_copyable_v<T>);
    put<std::uint64_t>(values.size());
    const auto* p = reinterpret_cast<const std::byte*>(values.data());
    out_.insert(out_.end(), p, p + values.size_bytes());
  }

  void put_raw(const void* data, std::size_t size) {
    const auto* p = reinterpret_cast<const std::byte*>(data);
    out_.insert(out_.end(), p, p + size);
  }

  [[nodiscard]] std::size_t size() const noexcept { return out_.size(); }

  /// Move the accumulated bytes into a DataBuffer. The writer is reset.
  [[nodiscard]] DataBuffer take() {
    DataBuffer b = DataBuffer::copy_of(out_.data(), out_.size());
    out_.clear();
    return b;
  }

  [[nodiscard]] const std::vector<std::byte>& bytes() const noexcept { return out_; }

 private:
  std::vector<std::byte> out_;
};

/// Sequential binary reader over a borrowed byte extent. Throws IoError on
/// truncation so malformed messages/files fail loudly.
class BinaryReader {
 public:
  explicit BinaryReader(std::span<const std::byte> bytes) : bytes_(bytes) {}
  explicit BinaryReader(const DataBuffer& buffer) : bytes_(buffer.span()) {}

  template <typename T>
  T get() {
    static_assert(std::is_trivially_copyable_v<T>);
    need(sizeof(T));
    T value;
    std::memcpy(&value, bytes_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return value;
  }

  std::string get_string() {
    const auto n = get<std::uint64_t>();
    need(n);
    std::string s(reinterpret_cast<const char*>(bytes_.data() + pos_), n);
    pos_ += n;
    return s;
  }

  template <typename T>
  std::vector<T> get_vector() {
    static_assert(std::is_trivially_copyable_v<T>);
    const auto n = get<std::uint64_t>();
    need(n * sizeof(T));
    std::vector<T> values(n);
    if (n != 0) std::memcpy(values.data(), bytes_.data() + pos_, n * sizeof(T));
    pos_ += n * sizeof(T);
    return values;
  }

  void get_raw(void* out, std::size_t size) {
    need(size);
    std::memcpy(out, bytes_.data() + pos_, size);
    pos_ += size;
  }

  [[nodiscard]] std::size_t remaining() const noexcept { return bytes_.size() - pos_; }
  [[nodiscard]] bool exhausted() const noexcept { return remaining() == 0; }

 private:
  void need(std::size_t n) const {
    if (remaining() < n) throw IoError("binary reader: truncated input");
  }

  std::span<const std::byte> bytes_;
  std::size_t pos_ = 0;
};

}  // namespace dooc
