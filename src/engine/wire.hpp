#pragma once

/// \file wire.hpp
/// Fixed-width byte encoders and the bounds-checked decoder shared by
/// the two binary surfaces of the engine: the cache-*key* builder
/// (`engine::cache_key`) and the cache-*store* payload codecs (the
/// family descriptors in families.cpp, framed by cache_store.cpp).
/// Both append raw `memcpy` bytes of fixed-width types (little-endian
/// on every supported target), but they need different double
/// semantics — keys canonicalise −0.0 onto +0.0 so numerically equal
/// cells key identically, while stored outcomes must round-trip
/// bit-exactly — so both variants live here, explicitly named.

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <type_traits>

namespace rv::engine::wire {

/// Upper bound on a single key/payload/string size a reader will
/// believe.  A corrupt length field larger than this is treated as
/// garbage instead of an allocation request.
inline constexpr std::uint32_t kMaxFieldSize = 1u << 28;

/// Appends the raw bytes of a fixed-width value.  Doubles go through
/// raw, so stored payloads round-trip exactly (−0.0, NaN payloads and
/// all).
template <typename T>
inline void put(std::string& out, T v) {
  char bytes[sizeof(T)];
  std::memcpy(bytes, &v, sizeof(T));
  out.append(bytes, sizeof(T));
}

/// Doubles for *content keys*: −0.0 normalised onto +0.0 (the only
/// distinct representations that compare numerically equal here), so
/// equal cells produce equal keys.
inline void put_f64_canonical(std::string& out, double v) {
  v += 0.0;  // −0.0 → +0.0
  put(out, v);
}

/// A u32 length prefix, then the bytes.
inline void put_str(std::string& out, std::string_view s) {
  put<std::uint32_t>(out, static_cast<std::uint32_t>(s.size()));
  out += s;
}

/// A fixed-width field a codec may hand to `Writer`/`Reader` as raw
/// bytes.
template <typename T>
concept Scalar = std::is_arithmetic_v<T> || std::is_enum_v<T>;

/// The encoding half of a two-way codec.  A payload codec is written
/// once, as `fields(io, value)` calling `io(field)` for every field in
/// wire order, and runs unchanged with a `Writer` (encode) or a
/// `Reader` (decode), so the two directions cannot drift apart.
class Writer {
 public:
  static constexpr bool kWrites = true;
  explicit Writer(std::string& out) : out_(out) {}

  template <Scalar T>
  bool operator()(const T& v) {
    put(out_, v);
    return true;
  }
  bool operator()(const bool& v) {
    put<std::uint8_t>(out_, v ? 1 : 0);
    return true;
  }
  bool operator()(const std::string& s) {
    put_str(out_, s);
    return true;
  }
  /// Whether `count` items of `bytes_each` bytes can follow (always).
  [[nodiscard]] bool fits(std::uint32_t, std::size_t) const { return true; }

 private:
  std::string& out_;
};

/// Bounds-checked sequential reader over a payload: every read returns
/// false instead of reading past the end.  The decoding half of a
/// two-way codec (see `Writer`).
class Reader {
 public:
  static constexpr bool kWrites = false;
  explicit Reader(std::string_view data) : data_(data) {}

  template <Scalar T>
  bool operator()(T& v) {
    if (remaining() < sizeof(T)) return false;
    std::memcpy(&v, data_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return true;
  }
  bool operator()(bool& v) {
    std::uint8_t byte = 0;
    if (!(*this)(byte)) return false;
    v = byte != 0;
    return true;
  }
  bool operator()(std::string& s) {
    std::uint32_t size = 0;
    if (!(*this)(size) || size > kMaxFieldSize || remaining() < size) {
      return false;
    }
    s.assign(data_.data() + pos_, size);
    pos_ += size;
    return true;
  }
  /// Whether the rest of the payload can hold `count` items of
  /// `bytes_each` bytes: an untrusted count is checked before anything
  /// is allocated for it.
  [[nodiscard]] bool fits(std::uint32_t count, std::size_t bytes_each) const {
    return count <= remaining() / bytes_each;
  }

  [[nodiscard]] bool exhausted() const { return pos_ == data_.size(); }
  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }

 private:
  std::string_view data_;
  std::size_t pos_ = 0;
};

/// `T` as a codec sees it: const when writing, mutable when reading.
template <typename Io, typename T>
using Ref = std::conditional_t<Io::kWrites, const T&, T&>;

}  // namespace rv::engine::wire
