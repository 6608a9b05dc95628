// Compact deterministic binary serialization.
//
// Every protocol message in the library is encoded with this codec before it
// is sent, signed or hashed. Determinism matters: signatures are computed
// over the encoding, so two semantically equal values must encode to the
// same bytes. Integers are encoded as LEB128 varints; byte strings are
// length-prefixed; containers are size-prefixed and element-ordered.
//
// A type takes part by declaring its fields once, in wire order:
//
//     static auto fields(auto& m) { return std::tie(m.view, m.cmds, m.ui); }
//
// That one list serves both directions — write() walks it over a const
// object, read() over a default-constructed one — so a format cannot be
// stated twice and drift. Derived types inherit their base's list. A type
// with private state keeps `fields` private and befriends serde::Access.
// An optional member `void decoded()` runs after the last field is read:
// it throws DecodeError to reject a value the fields alone admit (an
// out-of-range enum, a restart before its crash), or rebuilds derived
// state. Every count is bounded by the remaining input and every integer
// by its field's range, so malformed input throws DecodeError and nothing
// else.
#pragma once

#include <algorithm>
#include <array>
#include <concepts>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/bytes.h"

namespace unidir::serde {

/// Thrown by Reader when the input is truncated or malformed. Protocols
/// treat this as "message from a Byzantine process": they catch it at the
/// deserialization boundary and drop the message.
class DecodeError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class Writer {
 public:
  Writer() = default;

  void u8(std::uint8_t v) {
    ensure(1);
    out_.push_back(v);
  }
  void boolean(bool v) { u8(v ? 1 : 0); }

  /// Unsigned LEB128.
  void uvarint(std::uint64_t v);
  /// Zig-zag signed varint.
  void svarint(std::int64_t v);

  /// Length-prefixed raw bytes.
  void bytes(ByteSpan data);
  void str(std::string_view s);

  /// Raw bytes with no length prefix (caller knows the length).
  void raw(ByteSpan data);

  /// Pre-sizes the buffer for `additional` more bytes. Encoders that know
  /// their payload size call this once so the appends below never
  /// reallocate; bytes()/str() also reserve internally before appending.
  void reserve(std::size_t additional) { out_.reserve(out_.size() + additional); }

  const Bytes& buffer() const { return out_; }
  Bytes take() { return std::move(out_); }
  /// Empties the buffer but keeps its capacity, for reuse as scratch.
  void clear() { out_.clear(); }

 private:
  /// A protocol message encodes to a few dozen bytes, so the first growth
  /// reserves this much at once instead of doubling up from one byte. 112
  /// keeps the block within glibc's fast bins (chunks up to 128 B): a 128-B
  /// floor put every small message into one 144-B chunk class and cost the
  /// live UDP cluster about 5% of its throughput.
  static constexpr std::size_t kInitialCapacity = 112;

  /// Internal growth: like reserve(), but never shrinks the doubling
  /// schedule — repeated small appends stay amortized O(1) instead of
  /// reallocating to each exact size.
  void ensure(std::size_t additional) {
    const std::size_t need = out_.size() + additional;
    if (need > out_.capacity())
      out_.reserve(std::max({need, out_.capacity() * 2, kInitialCapacity}));
  }

  Bytes out_;
};

/// A Writer borrowed from a per-thread pool, for bytes that exist only to be
/// hashed, MAC'd or compared and die with the full expression or scope that
/// holds them (signed bindings, digest inputs). The writer goes back to the
/// pool cleared, with its capacity kept, so a binding built on every
/// message allocates only while the pool warms up. Worlds are
/// thread-confined, so one pool per thread serves every replica on it.
class ScratchWriter {
 public:
  ScratchWriter();
  ~ScratchWriter();
  ScratchWriter(ScratchWriter&&) noexcept = default;
  ScratchWriter& operator=(ScratchWriter&&) = delete;

  Writer& operator*() const { return *w_; }
  Writer* operator->() const { return w_.get(); }
  const Bytes& buffer() const { return w_->buffer(); }

 private:
  std::unique_ptr<Writer> w_;
};

class Reader {
 public:
  explicit Reader(ByteSpan data) : data_(data) {}

  std::uint8_t u8();
  bool boolean();
  std::uint64_t uvarint();
  std::int64_t svarint();
  Bytes bytes();
  std::string str();
  Bytes raw(std::size_t n);
  /// A length-prefixed field that must be exactly `out.size()` bytes long
  /// (a digest or a MAC), decoded into `out`; any other length is a
  /// DecodeError.
  void fixed(std::span<std::uint8_t> out);

  bool done() const { return pos_ == data_.size(); }
  std::size_t remaining() const { return data_.size() - pos_; }
  /// Byte offset of the next read; decode boundaries use it for error
  /// context.
  std::size_t position() const { return pos_; }

  /// Throws DecodeError unless all input has been consumed. Call at the end
  /// of a message decode to reject trailing garbage.
  void expect_done() const;

 private:
  void need(std::size_t n) const;

  ByteSpan data_;
  std::size_t pos_ = 0;
};

// ---- generic encode/decode ------------------------------------------------

/// The codec's one way into a type's field list and decoded() hook. A
/// type with private state declares `friend struct serde::Access;`.
struct Access {
  template <typename T>
  static auto fields(T& v) -> decltype(std::remove_const_t<T>::fields(v)) {
    return std::remove_const_t<T>::fields(v);
  }
  template <typename T>
  static auto decoded(T& v) -> decltype(v.decoded()) {
    return v.decoded();
  }
};

/// A type that declares its field list.
template <typename T>
concept Fielded = requires(T& v) { Access::fields(v); };

/// An enum stored in one byte.
template <typename T>
concept ByteEnum =
    std::is_enum_v<T> && std::same_as<std::underlying_type_t<T>, std::uint8_t>;

template <typename T>
  requires std::unsigned_integral<T>
void write(Writer& w, T v) {
  w.uvarint(v);
}

template <typename T>
  requires std::signed_integral<T>
void write(Writer& w, T v) {
  w.svarint(v);
}

inline void write(Writer& w, bool v) { w.boolean(v); }
inline void write(Writer& w, const Bytes& v) { w.bytes(v); }
inline void write(Writer& w, const std::string& v) { w.str(v); }

template <ByteEnum T>
void write(Writer& w, T v) {
  w.u8(static_cast<std::uint8_t>(v));
}

/// A digest or MAC: length-prefixed, like any byte string.
template <std::size_t N>
void write(Writer& w, const std::array<std::uint8_t, N>& v) {
  w.bytes(v);
}

template <Fielded T>
void write(Writer& w, const T& v) {
  std::apply([&w](const auto&... f) { (write(w, f), ...); },
             Access::fields(v));
}

template <typename T>
void write(Writer& w, const std::vector<T>& v)
  requires(!std::same_as<T, std::uint8_t>)
{
  w.uvarint(v.size());
  for (const T& e : v) write(w, e);
}

template <typename T>
void write(Writer& w, const std::optional<T>& v) {
  w.boolean(v.has_value());
  if (v) write(w, *v);
}

template <typename A, typename B>
void write(Writer& w, const std::pair<A, B>& v) {
  write(w, v.first);
  write(w, v.second);
}

template <typename K, typename V>
void write(Writer& w, const std::map<K, V>& v) {
  w.uvarint(v.size());
  for (const auto& [k, val] : v) {
    write(w, k);
    write(w, val);
  }
}

/// Writes every field of `v` but the last — for a message whose last field
/// is a signature, the body that signature covers.
template <Fielded T>
void write_all_but_last(Writer& w, const T& v) {
  const auto f = Access::fields(v);
  constexpr std::size_t n = std::tuple_size_v<decltype(f)>;
  [&]<std::size_t... I>(std::index_sequence<I...>) {
    (write(w, std::get<I>(f)), ...);
  }(std::make_index_sequence<n - 1>{});
}

template <typename T>
struct Decode;  // primary template: specialized below

template <typename T>
  requires std::unsigned_integral<T>
struct Decode<T> {
  static T run(Reader& r) {
    std::uint64_t v = r.uvarint();
    if (v > std::numeric_limits<T>::max())
      throw DecodeError("integer out of range");
    return static_cast<T>(v);
  }
};

template <typename T>
  requires std::signed_integral<T>
struct Decode<T> {
  static T run(Reader& r) {
    std::int64_t v = r.svarint();
    if (v > std::numeric_limits<T>::max() || v < std::numeric_limits<T>::min())
      throw DecodeError("integer out of range");
    return static_cast<T>(v);
  }
};

template <>
struct Decode<bool> {
  static bool run(Reader& r) { return r.boolean(); }
};

/// The one place a length-prefixed byte string field is read.
template <>
struct Decode<Bytes> {
  static Bytes run(Reader& r) { return r.bytes(); }
};

template <>
struct Decode<std::string> {
  static std::string run(Reader& r) { return r.str(); }
};

/// Any byte is representable; a type whose enum has gaps rejects the
/// values it does not name in its decoded() hook.
template <ByteEnum T>
struct Decode<T> {
  static T run(Reader& r) { return static_cast<T>(r.u8()); }
};

/// A length other than N is a DecodeError.
template <std::size_t N>
struct Decode<std::array<std::uint8_t, N>> {
  static std::array<std::uint8_t, N> run(Reader& r) {
    std::array<std::uint8_t, N> out{};
    r.fixed(out);
    return out;
  }
};

template <Fielded T>
struct Decode<T> {
  static T run(Reader& r) {
    T v;
    std::apply(
        [&r](auto&... f) {
          ((f = Decode<std::remove_reference_t<decltype(f)>>::run(r)), ...);
        },
        Access::fields(v));
    if constexpr (requires { Access::decoded(v); }) Access::decoded(v);
    return v;
  }
};

template <typename T>
  requires(!std::same_as<T, std::uint8_t>)
struct Decode<std::vector<T>> {
  static std::vector<T> run(Reader& r) {
    std::uint64_t n = r.uvarint();
    // Guard against absurd sizes from malformed input before allocating.
    if (n > r.remaining()) throw DecodeError("vector length exceeds input");
    std::vector<T> out;
    out.reserve(static_cast<std::size_t>(n));
    for (std::uint64_t i = 0; i < n; ++i) out.push_back(Decode<T>::run(r));
    return out;
  }
};

template <typename T>
struct Decode<std::optional<T>> {
  static std::optional<T> run(Reader& r) {
    if (!r.boolean()) return std::nullopt;
    return Decode<T>::run(r);
  }
};

template <typename A, typename B>
struct Decode<std::pair<A, B>> {
  static std::pair<A, B> run(Reader& r) {
    A a = Decode<A>::run(r);
    B b = Decode<B>::run(r);
    return {std::move(a), std::move(b)};
  }
};

template <typename K, typename V>
struct Decode<std::map<K, V>> {
  static std::map<K, V> run(Reader& r) {
    std::uint64_t n = r.uvarint();
    if (n > r.remaining()) throw DecodeError("map length exceeds input");
    std::map<K, V> out;
    for (std::uint64_t i = 0; i < n; ++i) {
      K k = Decode<K>::run(r);
      V v = Decode<V>::run(r);
      out.emplace(std::move(k), std::move(v));
    }
    return out;
  }
};

template <typename T>
T read(Reader& r) {
  return Decode<T>::run(r);
}

/// Encodes a single value to a fresh buffer.
template <typename T>
Bytes encode(const T& v) {
  Writer w;
  write(w, v);
  return w.take();
}

/// Decodes a single value, requiring the buffer to be fully consumed.
template <typename T>
T decode(ByteSpan data) {
  Reader r(data);
  T v = read<T>(r);
  r.expect_done();
  return v;
}

}  // namespace unidir::serde
