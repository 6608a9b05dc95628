// Byte-buffer utilities used for message payloads, signatures and hashing.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace unidir {

/// The wire representation of every message, attestation and proof in the
/// library. Protocols serialize their structs to Bytes (see serde.h) so that
/// signing and hashing operate on a canonical encoding.
using Bytes = std::vector<std::uint8_t>;
using ByteSpan = std::span<const std::uint8_t>;

/// Renders bytes as lowercase hex (for logs and test diagnostics).
std::string to_hex(ByteSpan data);

/// Parses lowercase/uppercase hex. Throws std::invalid_argument on bad input.
Bytes from_hex(std::string_view hex);

/// Copies a UTF-8/ASCII string into a byte buffer.
Bytes bytes_of(std::string_view s);

/// Interprets a byte buffer as a string (no validation).
std::string string_of(ByteSpan data);

/// Appends `src` to `dst`.
void append(Bytes& dst, ByteSpan src);

/// Constant-time equality, as used for comparing authenticators. Returns
/// false on length mismatch without early exit on content.
bool constant_time_equal(ByteSpan a, ByteSpan b);

/// FNV-1a 64-bit hash. Non-cryptographic: used for content fingerprints in
/// schedule-trace keys, never for authentication.
std::uint64_t fnv1a64(ByteSpan data);

/// Word-at-a-time 64-bit content fingerprint (FNV-style over 8-byte chunks
/// with an avalanche finish) — ~8x fnv1a64's rate on verification-sized
/// payloads. Non-cryptographic, and easy to collide on purpose: the crypto
/// verify memo uses it only to pick and pre-screen a slot, then compares
/// the message itself (see KeyRegistry); never for authentication.
std::uint64_t fingerprint64(ByteSpan data);

}  // namespace unidir
