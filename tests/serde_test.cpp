#include <gtest/gtest.h>

#include <array>
#include <map>
#include <optional>
#include <tuple>

#include "common/serde.h"

namespace unidir::serde {
namespace {

template <typename T>
T round_trip(const T& v) {
  return decode<T>(encode(v));
}

TEST(Serde, UnsignedVarints) {
  for (std::uint64_t v : {0ULL, 1ULL, 127ULL, 128ULL, 300ULL, 16383ULL,
                          16384ULL, ~0ULL, 1ULL << 63}) {
    EXPECT_EQ(round_trip(v), v) << v;
  }
}

TEST(Serde, SignedVarints) {
  const std::vector<std::int64_t> values = {
      0, 1, -1, 63, -64, 1000000, -1000000,
      std::numeric_limits<std::int64_t>::max(),
      std::numeric_limits<std::int64_t>::min()};
  for (std::int64_t v : values) {
    EXPECT_EQ(round_trip(v), v) << v;
  }
}

TEST(Serde, VarintEncodingIsCompact) {
  EXPECT_EQ(encode(std::uint64_t{0}).size(), 1u);
  EXPECT_EQ(encode(std::uint64_t{127}).size(), 1u);
  EXPECT_EQ(encode(std::uint64_t{128}).size(), 2u);
  EXPECT_EQ(encode(~std::uint64_t{0}).size(), 10u);
}

TEST(Serde, NarrowIntegerRangeChecked) {
  const Bytes wide = encode(std::uint64_t{300});
  EXPECT_THROW(decode<std::uint8_t>(wide), DecodeError);
  EXPECT_EQ(decode<std::uint16_t>(wide), 300u);
}

TEST(Serde, Booleans) {
  EXPECT_EQ(round_trip(true), true);
  EXPECT_EQ(round_trip(false), false);
  EXPECT_THROW(decode<bool>(Bytes{2}), DecodeError);
}

TEST(Serde, BytesAndStrings) {
  const Bytes b = {0, 1, 2, 255};
  EXPECT_EQ(round_trip(b), b);
  const std::string s = "sequenced reliable broadcast";
  EXPECT_EQ(round_trip(s), s);
  EXPECT_EQ(round_trip(std::string{}), "");
}

TEST(Serde, Vectors) {
  const std::vector<std::uint64_t> v = {1, 2, 3, 1ULL << 40};
  EXPECT_EQ(round_trip(v), v);
  EXPECT_EQ(round_trip(std::vector<std::uint64_t>{}),
            std::vector<std::uint64_t>{});
}

TEST(Serde, NestedContainers) {
  const std::vector<std::vector<std::string>> v = {{"a", "b"}, {}, {"c"}};
  EXPECT_EQ(round_trip(v), v);
}

TEST(Serde, Optionals) {
  EXPECT_EQ(round_trip(std::optional<std::uint64_t>{42}),
            std::optional<std::uint64_t>{42});
  EXPECT_EQ(round_trip(std::optional<std::uint64_t>{}),
            std::optional<std::uint64_t>{});
}

TEST(Serde, Pairs) {
  const std::pair<std::string, std::uint64_t> p = {"seq", 7};
  EXPECT_EQ(round_trip(p), p);
}

TEST(Serde, Maps) {
  const std::map<std::uint32_t, std::string> m = {{1, "one"}, {2, "two"}};
  EXPECT_EQ(round_trip(m), m);
}

TEST(Serde, TruncatedInputRejected) {
  Bytes enc = encode(std::string("hello"));
  enc.pop_back();
  EXPECT_THROW(decode<std::string>(enc), DecodeError);
}

TEST(Serde, TrailingGarbageRejected) {
  Bytes enc = encode(std::uint64_t{5});
  enc.push_back(0);
  EXPECT_THROW(decode<std::uint64_t>(enc), DecodeError);
}

TEST(Serde, NonCanonicalVarintRejected) {
  // 0x80 0x00 is a two-byte encoding of 0; the canonical one is 0x00.
  const Bytes non_canonical = {0x80, 0x00};
  EXPECT_THROW(decode<std::uint64_t>(non_canonical), DecodeError);
}

TEST(Serde, AbsurdVectorLengthRejectedBeforeAllocation) {
  Writer w;
  w.uvarint(1ULL << 40);  // claims 2^40 elements in a 6-byte buffer
  EXPECT_THROW(decode<std::vector<std::uint64_t>>(w.buffer()), DecodeError);
}

TEST(Serde, DeterministicEncoding) {
  const std::map<std::uint32_t, std::string> m = {{3, "c"}, {1, "a"}, {2, "b"}};
  EXPECT_EQ(encode(m), encode(m));
  // std::map iterates in key order, so insertion order cannot matter.
  std::map<std::uint32_t, std::string> m2;
  m2.emplace(1, "a");
  m2.emplace(2, "b");
  m2.emplace(3, "c");
  EXPECT_EQ(encode(m), encode(m2));
}

struct Point {
  std::uint64_t x = 0;
  std::uint64_t y = 0;
  bool operator==(const Point&) const = default;
  static auto fields(auto& m) { return std::tie(m.x, m.y); }
};

TEST(Serde, UserTypesViaMemberFunctions) {
  const Point p{10, 20};
  EXPECT_EQ(round_trip(p), p);
  const std::vector<Point> pts = {{1, 2}, {3, 4}};
  EXPECT_EQ(round_trip(pts), pts);
}

TEST(Serde, FieldListIsTheWireOrder) {
  EXPECT_EQ(encode(Point{1, 300}), (Bytes{0x01, 0xAC, 0x02}));
}

/// A derived type inherits its base's field list.
struct Labeled : Point {};

TEST(Serde, DerivedTypesInheritTheFieldList) {
  Labeled l;
  l.x = 5;
  l.y = 6;
  EXPECT_EQ(encode(l), encode(Point{5, 6}));
  EXPECT_EQ(round_trip(l).y, 6u);
}

enum class Color : std::uint8_t { Red = 1, Blue = 2 };

struct Paint {
  Color color = Color::Red;
  std::uint32_t tint = 0;
  std::array<std::uint8_t, 4> code{};

  static auto fields(auto& m) { return std::tie(m.color, m.tint, m.code); }
  void decoded() const {
    if (color != Color::Red && color != Color::Blue)
      throw DecodeError("bad color");
  }
};

TEST(Serde, EnumsArrayAndNarrowFields) {
  const Paint p{Color::Blue, 7, {1, 2, 3, 4}};
  // One byte of enum, a varint, then the array as length-prefixed bytes.
  EXPECT_EQ(encode(p), (Bytes{0x02, 0x07, 0x04, 1, 2, 3, 4}));
  const Paint back = round_trip(p);
  EXPECT_EQ(back.color, Color::Blue);
  EXPECT_EQ(back.code, p.code);
}

TEST(Serde, MalformedFieldsThrowDecodeError) {
  const std::vector<Bytes> bad = {
      {0x03, 0x07, 0x04, 1, 2, 3, 4},                    // decoded() rejects
      {0x01, 0x80, 0x80, 0x80, 0x80, 0x10, 0x04, 1, 2, 3, 4},  // tint > 2^32
      {0x01, 0x07, 0x03, 1, 2, 3},                       // array too short
      {0x01, 0x07, 0x05, 1, 2, 3, 4, 5},                 // array too long
  };
  for (const Bytes& b : bad)
    EXPECT_THROW((void)decode<Paint>(b), DecodeError) << to_hex(b);
}

/// Private state stays private: only the codec sees the field list.
class Counter {
 public:
  void bump() { ++n_; }
  std::uint64_t value() const { return n_; }
  std::uint64_t doubled() const { return doubled_; }

 private:
  friend struct serde::Access;
  static auto fields(auto& m) { return std::tie(m.n_); }
  void decoded() { doubled_ = 2 * n_; }  // derived state, never on the wire

  std::uint64_t n_ = 0;
  std::uint64_t doubled_ = 0;
};

TEST(Serde, PrivateFieldsAndDerivedStateThroughAccess) {
  Counter c;
  c.bump();
  c.bump();
  EXPECT_EQ(encode(c), (Bytes{0x02}));
  const Counter back = round_trip(c);
  EXPECT_EQ(back.value(), 2u);
  EXPECT_EQ(back.doubled(), 4u);
}

TEST(Serde, WriteAllButLastOmitsTheTrailingField) {
  Writer w;
  write_all_but_last(w, Paint{Color::Blue, 7, {1, 2, 3, 4}});
  EXPECT_EQ(w.buffer(), (Bytes{0x02, 0x07}));
}

}  // namespace
}  // namespace unidir::serde
