// HMAC-SHA256 (RFC 2104).
//
// Besides the one-shot hmac_sha256(), this header offers HmacKey: a
// precomputed key schedule holding the SHA-256 midstates that result from
// absorbing the ipad- and opad-xored key blocks. Long-lived keys (the
// KeyRegistry signs and verifies thousands of messages per key) skip two
// compression-function calls per MAC by resuming from the midstates instead
// of rehashing the pads every time.
#pragma once

#include "common/bytes.h"
#include "crypto/sha256.h"

namespace unidir::crypto {

/// Precomputed HMAC-SHA256 key schedule. Copyable value type.
class HmacKey {
 public:
  HmacKey() = default;  // empty-key schedule (valid but rarely useful)
  explicit HmacKey(ByteSpan key);

  /// HMAC-SHA256(key, message) resuming from the cached midstates.
  Digest mac(ByteSpan message) const;

 private:
  Sha256 inner_;  // midstate after absorbing key ^ ipad
  Sha256 outer_;  // midstate after absorbing key ^ opad
};

/// Computes HMAC-SHA256(key, message). One-shot; for repeated use of the
/// same key, build an HmacKey once and call mac().
Digest hmac_sha256(ByteSpan key, ByteSpan message);

}  // namespace unidir::crypto
