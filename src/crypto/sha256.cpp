#include "crypto/sha256.h"

#include <bit>
#include <cstring>
#include <stdexcept>

#include "common/check.h"

#if defined(__x86_64__) && defined(__GNUC__)
#define UNIDIR_SHA_NI_CANDIDATE 1
#include <immintrin.h>
#endif

namespace unidir::crypto {

namespace {

constexpr std::array<std::uint32_t, 64> kRoundConstants = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

constexpr std::array<std::uint32_t, 8> kInitialState = {
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
    0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};

std::uint32_t load_be32(const std::uint8_t* p) {
  return (std::uint32_t{p[0]} << 24) | (std::uint32_t{p[1]} << 16) |
         (std::uint32_t{p[2]} << 8) | std::uint32_t{p[3]};
}

void store_be32(std::uint8_t* p, std::uint32_t v) {
  p[0] = static_cast<std::uint8_t>(v >> 24);
  p[1] = static_cast<std::uint8_t>(v >> 16);
  p[2] = static_cast<std::uint8_t>(v >> 8);
  p[3] = static_cast<std::uint8_t>(v);
}

using State = std::array<std::uint32_t, 8>;

/// Portable multi-block compression: the working variables stay in locals
/// across the whole run of blocks; state_ is touched once per call.
void compress_portable(State& state, const std::uint8_t* data,
                       std::size_t blocks) {
  std::uint32_t s0v = state[0], s1v = state[1], s2v = state[2],
                s3v = state[3], s4v = state[4], s5v = state[5],
                s6v = state[6], s7v = state[7];
  for (std::size_t blk = 0; blk < blocks; ++blk, data += 64) {
    std::array<std::uint32_t, 64> w;
    for (std::size_t i = 0; i < 16; ++i) w[i] = load_be32(data + 4 * i);
    for (std::size_t i = 16; i < 64; ++i) {
      const std::uint32_t s0 = std::rotr(w[i - 15], 7) ^
                               std::rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      const std::uint32_t s1 = std::rotr(w[i - 2], 17) ^
                               std::rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    std::uint32_t a = s0v, b = s1v, c = s2v, d = s3v, e = s4v, f = s5v,
                  g = s6v, h = s7v;
    for (std::size_t i = 0; i < 64; ++i) {
      const std::uint32_t s1 =
          std::rotr(e, 6) ^ std::rotr(e, 11) ^ std::rotr(e, 25);
      const std::uint32_t ch = (e & f) ^ (~e & g);
      const std::uint32_t t1 = h + s1 + ch + kRoundConstants[i] + w[i];
      const std::uint32_t s0 =
          std::rotr(a, 2) ^ std::rotr(a, 13) ^ std::rotr(a, 22);
      const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      const std::uint32_t t2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + t1;
      d = c;
      c = b;
      b = a;
      a = t1 + t2;
    }
    s0v += a;
    s1v += b;
    s2v += c;
    s3v += d;
    s4v += e;
    s5v += f;
    s6v += g;
    s7v += h;
  }
  state[0] = s0v;
  state[1] = s1v;
  state[2] = s2v;
  state[3] = s3v;
  state[4] = s4v;
  state[5] = s5v;
  state[6] = s6v;
  state[7] = s7v;
}

#ifdef UNIDIR_SHA_NI_CANDIDATE

/// Four rounds: two sha256rnds2 issues consuming the low/high halves of the
/// prepared message+constant vector. A named function (not a lambda) because
/// lambdas do not inherit the enclosing function's target attribute.
__attribute__((target("sha,sse4.1,ssse3"), always_inline)) inline void
shani_rounds(__m128i& state0, __m128i& state1, __m128i msg_k) {
  state1 = _mm_sha256rnds2_epu32(state1, state0, msg_k);
  state0 =
      _mm_sha256rnds2_epu32(state0, state1, _mm_shuffle_epi32(msg_k, 0x0E));
}

/// x86 SHA extensions path (standard _mm_sha256* round sequence). Selected
/// at startup only when CPUID reports SHA support.
__attribute__((target("sha,sse4.1,ssse3"))) void compress_shani(
    State& state, const std::uint8_t* data, std::size_t blocks) {
  const __m128i kShuffle =
      _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);
  const auto* k = kRoundConstants.data();

  // state_ holds a..h; the SHA-NI registers want ABEF / CDGH lanes.
  __m128i tmp = _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[0]));
  __m128i state1 =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[4]));
  tmp = _mm_shuffle_epi32(tmp, 0xB1);        // CDAB
  state1 = _mm_shuffle_epi32(state1, 0x1B);  // EFGH
  __m128i state0 = _mm_alignr_epi8(tmp, state1, 8);  // ABEF
  state1 = _mm_blend_epi16(state1, tmp, 0xF0);       // CDGH

  while (blocks-- > 0) {
    const __m128i abef_save = state0;
    const __m128i cdgh_save = state1;

    __m128i msg0 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 0));
    __m128i msg1 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 16));
    __m128i msg2 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 32));
    __m128i msg3 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 48));
    msg0 = _mm_shuffle_epi8(msg0, kShuffle);
    msg1 = _mm_shuffle_epi8(msg1, kShuffle);
    msg2 = _mm_shuffle_epi8(msg2, kShuffle);
    msg3 = _mm_shuffle_epi8(msg3, kShuffle);

    auto kvec = [&](std::size_t i) {
      return _mm_set_epi32(static_cast<int>(k[i + 3]),
                           static_cast<int>(k[i + 2]),
                           static_cast<int>(k[i + 1]),
                           static_cast<int>(k[i + 0]));
    };
    // Rounds 0-15.
    shani_rounds(state0, state1, _mm_add_epi32(msg0, kvec(0)));
    shani_rounds(state0, state1, _mm_add_epi32(msg1, kvec(4)));
    shani_rounds(state0, state1, _mm_add_epi32(msg2, kvec(8)));
    shani_rounds(state0, state1, _mm_add_epi32(msg3, kvec(12)));

    // Rounds 16-63: four message-schedule extensions per 16 rounds.
    for (std::size_t i = 16; i < 64; i += 16) {
      msg0 = _mm_sha256msg1_epu32(msg0, msg1);
      msg0 = _mm_add_epi32(msg0, _mm_alignr_epi8(msg3, msg2, 4));
      msg0 = _mm_sha256msg2_epu32(msg0, msg3);
      shani_rounds(state0, state1, _mm_add_epi32(msg0, kvec(i)));

      msg1 = _mm_sha256msg1_epu32(msg1, msg2);
      msg1 = _mm_add_epi32(msg1, _mm_alignr_epi8(msg0, msg3, 4));
      msg1 = _mm_sha256msg2_epu32(msg1, msg0);
      shani_rounds(state0, state1, _mm_add_epi32(msg1, kvec(i + 4)));

      msg2 = _mm_sha256msg1_epu32(msg2, msg3);
      msg2 = _mm_add_epi32(msg2, _mm_alignr_epi8(msg1, msg0, 4));
      msg2 = _mm_sha256msg2_epu32(msg2, msg1);
      shani_rounds(state0, state1, _mm_add_epi32(msg2, kvec(i + 8)));

      msg3 = _mm_sha256msg1_epu32(msg3, msg0);
      msg3 = _mm_add_epi32(msg3, _mm_alignr_epi8(msg2, msg1, 4));
      msg3 = _mm_sha256msg2_epu32(msg3, msg2);
      shani_rounds(state0, state1, _mm_add_epi32(msg3, kvec(i + 12)));
    }

    state0 = _mm_add_epi32(state0, abef_save);
    state1 = _mm_add_epi32(state1, cdgh_save);
    data += 64;
  }

  tmp = _mm_shuffle_epi32(state0, 0x1B);      // FEBA
  state1 = _mm_shuffle_epi32(state1, 0xB1);   // DCHG
  state0 = _mm_blend_epi16(tmp, state1, 0xF0);  // DCBA
  state1 = _mm_alignr_epi8(state1, tmp, 8);     // EFGH lanes
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[0]), state0);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[4]), state1);
}

bool sha_ni_supported() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("sha") && __builtin_cpu_supports("sse4.1") &&
         __builtin_cpu_supports("ssse3");
}

#endif  // UNIDIR_SHA_NI_CANDIDATE

using CompressFn = void (*)(State&, const std::uint8_t*, std::size_t);

CompressFn pick_compress() {
#ifdef UNIDIR_SHA_NI_CANDIDATE
  if (sha_ni_supported()) return &compress_shani;
#endif
  return &compress_portable;
}

const CompressFn kCompress = pick_compress();

}  // namespace

bool Sha256::hardware_accelerated() {
  return kCompress != &compress_portable;
}

Sha256::Sha256() : Sha256(kCompress) {}

Sha256::Sha256(Compress compress)
    : compress_(compress), state_(kInitialState), buffer_{} {}

void Sha256::update(ByteSpan data) {
  UNIDIR_CHECK_MSG(!finished_, "Sha256 reused after finish()");
  UNIDIR_CHECK(buffered_ < 64);
  total_bytes_ += data.size();
  std::size_t offset = 0;
  if (buffered_ > 0) {
    const std::size_t take = std::min(data.size(), 64 - buffered_);
    std::memcpy(buffer_.data() + buffered_, data.data(), take);
    buffered_ += take;
    offset = take;
    if (buffered_ == 64) {
      compress_(state_, buffer_.data(), 1);
      buffered_ = 0;
    }
  }
  // Multi-block fast path: all full blocks in one compression call.
  const std::size_t blocks = (data.size() - offset) / 64;
  if (blocks > 0) {
    compress_(state_, data.data() + offset, blocks);
    offset += blocks * 64;
  }
  if (offset < data.size()) {
    buffered_ = data.size() - offset;
    std::memcpy(buffer_.data(), data.data() + offset, buffered_);
  }
}

Digest Sha256::finish() {
  UNIDIR_CHECK_MSG(!finished_, "Sha256 reused after finish()");
  UNIDIR_CHECK(buffered_ < 64);
  finished_ = true;

  // Pad in place: 0x80, zeros to byte 56 (mod 64), 8-byte big-endian bit
  // length — driving the compression directly, no update() re-entry.
  const std::uint64_t bit_len = total_bytes_ * 8;
  buffer_[buffered_++] = 0x80;
  if (buffered_ > 56) {
    std::memset(buffer_.data() + buffered_, 0, 64 - buffered_);
    compress_(state_, buffer_.data(), 1);
    buffered_ = 0;
  }
  std::memset(buffer_.data() + buffered_, 0, 56 - buffered_);
  for (int i = 0; i < 8; ++i)
    buffer_[56 + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(bit_len >> (56 - 8 * i));
  compress_(state_, buffer_.data(), 1);
  buffered_ = 0;

  Digest out;
  for (std::size_t i = 0; i < 8; ++i) store_be32(out.data() + 4 * i, state_[i]);
  return out;
}

Digest Sha256::hash(ByteSpan data) {
  Sha256 h;
  h.update(data);
  return h.finish();
}

Digest detail::hash_portable(ByteSpan data) {
  Sha256 h(&compress_portable);
  h.update(data);
  return h.finish();
}

Bytes digest_bytes(const Digest& d) {
  return Bytes(d.begin(), d.end());
}

Digest digest_from_bytes(ByteSpan data) {
  if (data.size() != kSha256DigestSize)
    throw std::invalid_argument("digest_from_bytes: wrong size");
  Digest d;
  std::memcpy(d.data(), data.data(), kSha256DigestSize);
  return d;
}

}  // namespace unidir::crypto
