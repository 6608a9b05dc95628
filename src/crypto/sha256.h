// SHA-256 (FIPS 180-4), implemented from scratch.
//
// Used as the hash underlying HMAC signatures, attestation digests, and
// hash-chained trusted logs. Two compression backends, selected once at
// startup by CPUID, share one incremental front end:
//
//  * a portable C++ path that processes runs of blocks with the working
//    state kept in locals (the multi-block fast path), and
//  * an x86 SHA-NI path, ~5-10x faster.
//
// Digests are identical bit-for-bit on both paths; which one runs never
// affects simulation results, only wall-clock time.
//
// Sha256 objects are copyable: a copy resumes hashing from the same
// midstate. HMAC key schedules (hmac.h) rely on this to precompute the
// ipad/opad block once per key.
#pragma once

#include <array>
#include <cstdint>

#include "common/bytes.h"

namespace unidir::crypto {

inline constexpr std::size_t kSha256DigestSize = 32;

using Digest = std::array<std::uint8_t, kSha256DigestSize>;

namespace detail {
/// SHA-256 through the portable compression function, whichever backend
/// the CPU selected for Sha256. Tests compare the two with it on hosts
/// where the portable path never runs otherwise, and bench_hotpath times
/// it as a calibration workload that runs the same code on every host.
Digest hash_portable(ByteSpan data);
}  // namespace detail

/// Incremental SHA-256.
class Sha256 {
 public:
  Sha256();

  void update(ByteSpan data);
  /// Finalizes and returns the digest. The object must not be reused after.
  Digest finish();

  /// One-shot convenience.
  static Digest hash(ByteSpan data);

  /// True iff the CPU's SHA extensions drive compression (bench reporting).
  static bool hardware_accelerated();

 private:
  using Compress = void (*)(std::array<std::uint32_t, 8>&,
                            const std::uint8_t*, std::size_t);
  explicit Sha256(Compress compress);
  friend Digest detail::hash_portable(ByteSpan data);

  Compress compress_;
  std::array<std::uint32_t, 8> state_;
  std::array<std::uint8_t, 64> buffer_;
  std::size_t buffered_ = 0;
  std::uint64_t total_bytes_ = 0;
  bool finished_ = false;
};

/// Digest as a Bytes value (for serialization).
Bytes digest_bytes(const Digest& d);

/// Parses a 32-byte buffer into a Digest. Throws on size mismatch.
Digest digest_from_bytes(ByteSpan data);

}  // namespace unidir::crypto
