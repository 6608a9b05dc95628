#include "crypto/hmac.h"

#include <array>

namespace unidir::crypto {

HmacKey::HmacKey(ByteSpan key) {
  constexpr std::size_t kBlock = 64;
  std::array<std::uint8_t, kBlock> k{};
  if (key.size() > kBlock) {
    const Digest kd = Sha256::hash(key);
    std::copy(kd.begin(), kd.end(), k.begin());
  } else {
    std::copy(key.begin(), key.end(), k.begin());
  }

  std::array<std::uint8_t, kBlock> ipad;
  std::array<std::uint8_t, kBlock> opad;
  for (std::size_t i = 0; i < kBlock; ++i) {
    ipad[i] = static_cast<std::uint8_t>(k[i] ^ 0x36);
    opad[i] = static_cast<std::uint8_t>(k[i] ^ 0x5c);
  }

  // Each pad is exactly one SHA-256 block, so after these updates both
  // hashers sit on a block boundary with the pad fully compressed: the
  // stored objects are pure midstates with nothing buffered.
  inner_.update(ipad);
  outer_.update(opad);
}

Digest HmacKey::mac(ByteSpan message) const {
  Sha256 inner = inner_;
  inner.update(message);
  const Digest inner_digest = inner.finish();

  Sha256 outer = outer_;
  outer.update(inner_digest);
  return outer.finish();
}

Digest hmac_sha256(ByteSpan key, ByteSpan message) {
  return HmacKey(key).mac(message);
}

}  // namespace unidir::crypto
