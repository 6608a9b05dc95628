#include <gtest/gtest.h>

#include <set>

#include "common/check.h"
#include "crypto/sha256.h"

namespace unidir::crypto {
namespace {

std::string hash_hex(std::string_view msg) {
  const Digest d = Sha256::hash(bytes_of(msg));
  return to_hex(ByteSpan(d.data(), d.size()));
}

// NIST FIPS 180-4 / well-known test vectors.
TEST(Sha256, EmptyString) {
  EXPECT_EQ(hash_hex(""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  EXPECT_EQ(hash_hex("abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  EXPECT_EQ(hash_hex("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, QuickBrownFox) {
  EXPECT_EQ(hash_hex("The quick brown fox jumps over the lazy dog"),
            "d7a8fbb307d7809469ca9abcb0082e4f8d5651e46d3cdb762d02d0bf37c9e592");
}

TEST(Sha256, MillionAs) {
  Sha256 h;
  const Bytes chunk(1000, static_cast<std::uint8_t>('a'));
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  const Digest d = h.finish();
  EXPECT_EQ(to_hex(ByteSpan(d.data(), d.size())),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, IncrementalMatchesOneShot) {
  const std::string msg =
      "incremental hashing must match one-shot hashing regardless of "
      "chunk boundaries, including boundaries at 64-byte block edges";
  const Digest whole = Sha256::hash(bytes_of(msg));
  for (std::size_t split = 0; split <= msg.size(); split += 7) {
    Sha256 h;
    h.update(bytes_of(msg.substr(0, split)));
    h.update(bytes_of(msg.substr(split)));
    EXPECT_EQ(h.finish(), whole) << "split at " << split;
  }
}

TEST(Sha256, BoundaryLengths) {
  // Exercise padding at lengths around the 56-byte and 64-byte boundaries.
  for (std::size_t len : {55u, 56u, 57u, 63u, 64u, 65u, 119u, 120u, 128u}) {
    const Bytes msg(len, 0x42);
    const Digest a = Sha256::hash(msg);
    Sha256 h;
    for (std::size_t i = 0; i < len; ++i)
      h.update(ByteSpan(&msg[i], 1));
    EXPECT_EQ(h.finish(), a) << "len " << len;
  }
}

TEST(Sha256, PortableBackendMatchesSelectedBackend) {
  // On an SHA-NI host Sha256 never runs the portable compression function,
  // so compare it directly against the selected backend at every length up
  // to 1000 bytes: each 55/56/63/64-byte padding seam of the first 15
  // blocks. The FIPS vector covers hosts where both sides are portable.
  Bytes data(1000);
  for (std::size_t i = 0; i < data.size(); ++i)
    data[i] = static_cast<std::uint8_t>(i * 131 + 7);
  for (std::size_t len = 0; len <= data.size(); ++len) {
    const ByteSpan msg(data.data(), len);
    ASSERT_EQ(detail::hash_portable(msg), Sha256::hash(msg)) << "len " << len;
  }
  const Digest abc = detail::hash_portable(bytes_of("abc"));
  EXPECT_EQ(to_hex(ByteSpan(abc.data(), abc.size())),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, ReuseAfterFinishRejected) {
  Sha256 h;
  h.update(bytes_of("x"));
  (void)h.finish();
  EXPECT_THROW(h.update(bytes_of("y")), InternalError);
  EXPECT_THROW((void)h.finish(), InternalError);
}

TEST(Sha256, DigestBytesRoundTrip) {
  const Digest d = Sha256::hash(bytes_of("round trip"));
  EXPECT_EQ(digest_from_bytes(digest_bytes(d)), d);
}

TEST(Sha256, DigestFromBytesRejectsWrongSize) {
  EXPECT_THROW(digest_from_bytes(Bytes(31, 0)), std::invalid_argument);
  EXPECT_THROW(digest_from_bytes(Bytes(33, 0)), std::invalid_argument);
}

TEST(Sha256, DistinctInputsDistinctDigests) {
  // Not a security proof, just a smoke test over many short inputs.
  std::set<std::string> seen;
  for (int i = 0; i < 1000; ++i) {
    const Digest d = Sha256::hash(bytes_of("input-" + std::to_string(i)));
    seen.insert(to_hex(ByteSpan(d.data(), d.size())));
  }
  EXPECT_EQ(seen.size(), 1000u);
}

TEST(Sha256, CopyResumesFromMidstate) {
  // HmacKey stores hashers that have absorbed the key pads and copies them
  // per MAC: a copy must continue from the midstate, buffered partial block
  // included, and leave the original untouched.
  Bytes data(300);
  for (std::size_t i = 0; i < data.size(); ++i)
    data[i] = static_cast<std::uint8_t>(i * 37 + 11);
  const Digest whole = Sha256::hash(data);
  for (std::size_t split = 0; split <= data.size(); ++split) {
    Sha256 h;
    h.update(ByteSpan(data.data(), split));
    Sha256 copy = h;
    copy.update(ByteSpan(data.data() + split, data.size() - split));
    ASSERT_EQ(copy.finish(), whole) << "copy at " << split;
    h.update(ByteSpan(data.data() + split, data.size() - split));
    ASSERT_EQ(h.finish(), whole) << "original at " << split;
  }
}

}  // namespace
}  // namespace unidir::crypto
