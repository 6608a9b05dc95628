#include <gtest/gtest.h>

#include <algorithm>

#include "crypto/hmac.h"

namespace unidir::crypto {
namespace {

std::string hmac_hex(const Bytes& key, const Bytes& msg) {
  const Digest d = hmac_sha256(key, msg);
  return to_hex(ByteSpan(d.data(), d.size()));
}

// RFC 2104 spelled out over one-shot SHA-256, with no midstate reuse:
// H((K ^ opad) || H((K ^ ipad) || m)), K zero-padded to one block and
// hashed first if longer than a block.
Digest reference_hmac(const Bytes& key, const Bytes& msg) {
  Bytes k(64, 0);
  if (key.size() > k.size()) {
    const Digest kd = Sha256::hash(key);
    std::copy(kd.begin(), kd.end(), k.begin());
  } else {
    std::copy(key.begin(), key.end(), k.begin());
  }
  Bytes inner;
  for (const std::uint8_t b : k) inner.push_back(static_cast<std::uint8_t>(b ^ 0x36));
  inner.insert(inner.end(), msg.begin(), msg.end());
  const Digest inner_digest = Sha256::hash(inner);
  Bytes outer;
  for (const std::uint8_t b : k) outer.push_back(static_cast<std::uint8_t>(b ^ 0x5c));
  outer.insert(outer.end(), inner_digest.begin(), inner_digest.end());
  return Sha256::hash(outer);
}

Bytes patterned(std::size_t len, std::uint8_t salt) {
  Bytes b(len);
  for (std::size_t i = 0; i < len; ++i)
    b[i] = static_cast<std::uint8_t>(i * 29 + salt);
  return b;
}

// RFC 4231 test vectors.
TEST(Hmac, Rfc4231Case1) {
  const Bytes key(20, 0x0b);
  EXPECT_EQ(hmac_hex(key, bytes_of("Hi There")),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(Hmac, Rfc4231Case2) {
  EXPECT_EQ(
      hmac_hex(bytes_of("Jefe"), bytes_of("what do ya want for nothing?")),
      "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(Hmac, Rfc4231Case3) {
  const Bytes key(20, 0xaa);
  const Bytes msg(50, 0xdd);
  EXPECT_EQ(hmac_hex(key, msg),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

TEST(Hmac, Rfc4231Case6LongKey) {
  const Bytes key(131, 0xaa);
  EXPECT_EQ(hmac_hex(key, bytes_of("Test Using Larger Than Block-Size Key - "
                                   "Hash Key First")),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(Hmac, KeySensitivity) {
  const Bytes msg = bytes_of("same message");
  EXPECT_NE(hmac_sha256(bytes_of("key-a"), msg),
            hmac_sha256(bytes_of("key-b"), msg));
}

TEST(Hmac, MessageSensitivity) {
  const Bytes key = bytes_of("same key");
  EXPECT_NE(hmac_sha256(key, bytes_of("message a")),
            hmac_sha256(key, bytes_of("message b")));
}

TEST(Hmac, EmptyKeyAndMessageAccepted) {
  const Digest d = hmac_sha256({}, {});
  EXPECT_EQ(d.size(), kSha256DigestSize);
}

TEST(Hmac, KeyScheduleMatchesRfc2104Construction) {
  // One schedule per key serves every message: mac() must resume from the
  // stored midstates without consuming them.
  for (const std::size_t key_len : {0u, 1u, 31u, 32u, 63u, 64u, 65u, 100u, 131u}) {
    const Bytes key = patterned(key_len, 3);
    const HmacKey schedule{key};
    for (std::size_t msg_len = 0; msg_len <= 200; msg_len += 9) {
      const Bytes msg = patterned(msg_len, 101);
      EXPECT_EQ(schedule.mac(msg), reference_hmac(key, msg))
          << "key " << key_len << " msg " << msg_len;
    }
  }
}

TEST(Hmac, LongKeyEquivalentToItsDigest) {
  // RFC 2104: a key longer than the 64-byte block is replaced by its hash.
  const Bytes msg = bytes_of("message under a long key");
  for (const std::size_t key_len : {65u, 96u, 128u, 150u}) {
    const Bytes key = patterned(key_len, 17);
    const Digest kd = Sha256::hash(key);
    EXPECT_EQ(hmac_sha256(key, msg), hmac_sha256(Bytes(kd.begin(), kd.end()), msg))
        << "key " << key_len;
  }
  // A 64-byte key is used as is, not hashed.
  const Bytes block_key = patterned(64, 17);
  const Digest bd = Sha256::hash(block_key);
  EXPECT_NE(hmac_sha256(block_key, msg),
            hmac_sha256(Bytes(bd.begin(), bd.end()), msg));
}

}  // namespace
}  // namespace unidir::crypto
