#include "common/serde.h"

#include <bit>
#include <cstring>

namespace unidir::serde {

namespace {
// A uvarint occupies at most 10 bytes; reserving prefix + payload in one
// step caps any length-prefixed append at a single reallocation.
constexpr std::size_t kMaxVarintSize = 10;

/// This thread's idle scratch writers.
thread_local std::vector<std::unique_ptr<Writer>> t_scratch_pool;
}  // namespace

ScratchWriter::ScratchWriter() {
  if (t_scratch_pool.empty()) {
    w_ = std::make_unique<Writer>();
  } else {
    w_ = std::move(t_scratch_pool.back());
    t_scratch_pool.pop_back();
  }
}

ScratchWriter::~ScratchWriter() {
  if (w_ == nullptr) return;  // moved from
  w_->clear();
  t_scratch_pool.push_back(std::move(w_));
}

void Writer::uvarint(std::uint64_t v) {
  ensure((static_cast<std::size_t>(std::bit_width(v | 1)) + 6) / 7);
  while (v >= 0x80) {
    out_.push_back(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out_.push_back(static_cast<std::uint8_t>(v));
}

void Writer::svarint(std::int64_t v) {
  // Zig-zag: maps small-magnitude signed values to small unsigned values.
  const auto u = static_cast<std::uint64_t>(v);
  uvarint((u << 1) ^ static_cast<std::uint64_t>(v >> 63));
}

void Writer::bytes(ByteSpan data) {
  ensure(kMaxVarintSize + data.size());
  uvarint(data.size());
  raw(data);
}

void Writer::str(std::string_view s) {
  ensure(kMaxVarintSize + s.size());
  uvarint(s.size());
  out_.insert(out_.end(), s.begin(), s.end());
}

void Writer::raw(ByteSpan data) {
  ensure(data.size());
  out_.insert(out_.end(), data.begin(), data.end());
}

void Reader::need(std::size_t n) const {
  if (remaining() < n)
    throw DecodeError("truncated input: need " + std::to_string(n) +
                      " byte(s) at offset " + std::to_string(pos_) + " of " +
                      std::to_string(data_.size()));
}

std::uint8_t Reader::u8() {
  need(1);
  return data_[pos_++];
}

bool Reader::boolean() {
  std::uint8_t v = u8();
  if (v > 1) throw DecodeError("invalid boolean");
  return v == 1;
}

std::uint64_t Reader::uvarint() {
  std::uint64_t out = 0;
  for (unsigned shift = 0; shift < 64; shift += 7) {
    std::uint8_t b = u8();
    out |= static_cast<std::uint64_t>(b & 0x7F) << shift;
    if ((b & 0x80) == 0) {
      // Reject non-canonical encodings (trailing 0x80-chained zero bytes),
      // so each value has exactly one encoding — required for signing.
      if (b == 0 && shift != 0) throw DecodeError("non-canonical varint");
      return out;
    }
  }
  throw DecodeError("varint too long");
}

std::int64_t Reader::svarint() {
  std::uint64_t u = uvarint();
  return static_cast<std::int64_t>((u >> 1) ^ (~(u & 1) + 1));
}

Bytes Reader::bytes() {
  std::uint64_t n = uvarint();
  need(static_cast<std::size_t>(n));
  return raw(static_cast<std::size_t>(n));
}

std::string Reader::str() {
  const std::uint64_t n = uvarint();
  need(static_cast<std::size_t>(n));
  const auto* p = reinterpret_cast<const char*>(data_.data() + pos_);
  pos_ += static_cast<std::size_t>(n);
  return std::string(p, static_cast<std::size_t>(n));
}

void Reader::fixed(std::span<std::uint8_t> out) {
  if (uvarint() != out.size())
    throw DecodeError("fixed-size field: expected " +
                      std::to_string(out.size()) + " byte(s)");
  need(out.size());
  std::memcpy(out.data(), data_.data() + pos_, out.size());
  pos_ += out.size();
}

Bytes Reader::raw(std::size_t n) {
  need(n);
  Bytes out(data_.begin() + static_cast<std::ptrdiff_t>(pos_),
            data_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
  pos_ += n;
  return out;
}

void Reader::expect_done() const {
  if (!done())
    throw DecodeError("trailing bytes after value: " +
                      std::to_string(remaining()) + " byte(s) left at offset " +
                      std::to_string(pos_) + " of " +
                      std::to_string(data_.size()));
}

}  // namespace unidir::serde
