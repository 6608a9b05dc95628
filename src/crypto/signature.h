// Unforgeable transferable signatures (simulated PKI).
//
// The paper assumes processes hold unforgeable transferable signatures. We
// simulate them with HMAC-SHA256 under per-key secrets held by a
// KeyRegistry, which models the PKI/trusted setup:
//
//  * Unforgeability: the only way to produce a valid MAC for key k is
//    through a Signer capability bound to k. Byzantine process code in the
//    simulator is handed only its own Signer, never another's, so it cannot
//    forge — exactly the guarantee a real signature scheme provides.
//  * Transferability: verification needs only the public KeyRegistry and the
//    signer's key id, so any process can verify and forward a signature.
//
// Hot-path engineering: each key stores a precomputed HMAC schedule
// (hmac.h), and verification runs through a small direct-mapped memo table
// of short messages, indexed by (key id, payload fingerprint) and confirmed
// by comparing the stored message. Broadcast protocols verify the same
// certificate once per receiver; the memo collapses those repeats to a
// single HMAC computation. The registry is per-world, and worlds are
// thread-confined, so the unsynchronized mutable cache is safe.
//
// A production deployment would swap this for Ed25519; every protocol in the
// library goes through the Signer/Verifier interfaces and would not change.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <string_view>
#include <tuple>
#include <type_traits>
#include <unordered_map>

#include "common/bytes.h"
#include "common/serde.h"
#include "crypto/hmac.h"
#include "crypto/sha256.h"

namespace unidir::crypto {

/// Identifies a signing key in the registry. Key ids are public.
using KeyId = std::uint64_t;

/// A detached signature: which key signed, and the authenticator.
struct Signature {
  KeyId key = 0;
  Digest mac{};  // HMAC-SHA256 tag

  bool operator==(const Signature&) const = default;

  /// A tag of any length but 32 bytes is a DecodeError.
  static auto fields(auto& m) { return std::tie(m.key, m.mac); }
};

/// What a signed message's trailing signature covers: a domain tag, then
/// every field before the signature, encoded as on the wire.
template <serde::Fielded M>
serde::ScratchWriter signed_binding(std::string_view tag, const M& m) {
  using Fields = decltype(serde::Access::fields(m));
  static_assert(
      std::is_same_v<std::remove_cvref_t<std::tuple_element_t<
                         std::tuple_size_v<Fields> - 1, Fields>>,
                     Signature>,
      "a signed message's last field is its signature");
  serde::ScratchWriter w;
  w->str(tag);
  serde::write_all_but_last(*w, m);
  return w;
}

/// Counters for the verification memo (bench reporting).
struct VerifyStats {
  std::uint64_t verifies = 0;   // verify() calls
  std::uint64_t memo_hits = 0;  // verifies answered from the memo table
  std::uint64_t macs = 0;       // HMAC computations (sign + verify misses)
  // Always 0: the registry verifies one signature per call. Kept because
  // the repository benchmark (perfbench/) still sums them.
  std::uint64_t batches = 0;
  std::uint64_t batch_jobs = 0;
};

class Signer;

/// The trusted key store. One per simulated world.
class KeyRegistry {
 public:
  KeyRegistry() = default;
  KeyRegistry(const KeyRegistry&) = delete;
  KeyRegistry& operator=(const KeyRegistry&) = delete;

  /// Creates a fresh key and returns a Signer capability for it. The secret
  /// never leaves the registry.
  Signer generate_key();

  /// Verifies `sig` over `message`. Unknown keys verify as false.
  bool verify(const Signature& sig, ByteSpan message) const;

  std::size_t key_count() const { return keys_.size(); }

  const VerifyStats& verify_stats() const { return stats_; }

 private:
  friend class Signer;

  struct KeyMaterial {
    Bytes secret;
    HmacKey schedule;
  };

  // Direct-mapped memo of true MACs over messages of up to kMemoBytes,
  // slotted by (key, payload fingerprint). fingerprint64 is not
  // collision-resistant: a peer can solve for a same-length message with
  // an honest message's fingerprint. So a hit also compares the message
  // itself, which the slot stores in memo_bytes_; the fingerprint only
  // rejects misses cheaply. Longer messages (view changes, state replies)
  // bypass the memo. The table is bounded: a new entry simply evicts
  // whatever shared its slot.
  struct MemoEntry {
    KeyId key = 0;  // 0 = empty (key ids start at 1)
    std::uint64_t fingerprint = 0;
    std::uint64_t length = 0;
    Digest mac{};
  };
  static constexpr std::size_t kMemoSlots = 1024;  // power of two
  // Every signed binding on the protocols' hot paths (votes, checkpoints,
  // enclave reports) encodes to under 64 bytes.
  static constexpr std::size_t kMemoBytes = 64;

  Signature sign_internal(KeyId key, ByteSpan message) const;

  /// True MAC for (key, message), memoized. Empty if the key is unknown.
  std::optional<Digest> true_mac(KeyId key, ByteSpan message) const;

  std::unordered_map<KeyId, KeyMaterial> keys_;
  KeyId next_key_ = 1;
  std::uint64_t seed_counter_ = 0x9e3779b97f4a7c15ULL;

  mutable std::array<MemoEntry, kMemoSlots> memo_{};
  /// Slot i's message is bytes [i * kMemoBytes, i * kMemoBytes + length).
  /// Left uninitialized: only bytes a filled slot wrote are ever read, and
  /// a registry is built per world.
  std::unique_ptr<std::uint8_t[]> memo_bytes_{
      std::make_unique_for_overwrite<std::uint8_t[]>(kMemoSlots * kMemoBytes)};
  mutable VerifyStats stats_;
};

/// Capability to sign with one key. Copyable (a process may hand it to the
/// protocol objects it hosts), but only obtainable from the registry.
class Signer {
 public:
  Signer() = default;  // null signer; sign() throws

  KeyId key() const { return key_; }
  bool valid() const { return registry_ != nullptr; }

  Signature sign(ByteSpan message) const;

 private:
  friend class KeyRegistry;
  Signer(const KeyRegistry* registry, KeyId key)
      : registry_(registry), key_(key) {}

  const KeyRegistry* registry_ = nullptr;
  KeyId key_ = 0;
};

}  // namespace unidir::crypto
