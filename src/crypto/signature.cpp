#include "crypto/signature.h"

#include <cstring>

#include "common/check.h"

namespace unidir::crypto {

Signer KeyRegistry::generate_key() {
  const KeyId id = next_key_++;
  // Derive a per-key secret deterministically so whole-world executions are
  // reproducible from the simulator seed alone.
  serde::Writer w;
  w.uvarint(seed_counter_);
  w.uvarint(id);
  seed_counter_ = seed_counter_ * 6364136223846793005ULL + 1442695040888963407ULL;
  const Digest d = Sha256::hash(w.buffer());
  Bytes secret(d.begin(), d.end());
  HmacKey schedule{ByteSpan(secret.data(), secret.size())};
  keys_.emplace(id, KeyMaterial{std::move(secret), schedule});
  return Signer(this, id);
}

std::optional<Digest> KeyRegistry::true_mac(KeyId key,
                                            ByteSpan message) const {
  auto it = keys_.find(key);
  if (it == keys_.end()) return std::nullopt;
  if (message.size() > kMemoBytes) {
    ++stats_.macs;
    return it->second.schedule.mac(message);
  }

  const std::uint64_t fp = fingerprint64(message);
  const std::size_t index =
      (fp ^ key * 0x9e3779b97f4a7c15ULL) & (kMemoSlots - 1);
  MemoEntry& slot = memo_[index];
  std::uint8_t* stored = memo_bytes_.get() + index * kMemoBytes;
  if (slot.key == key && slot.fingerprint == fp &&
      slot.length == message.size() &&
      (message.empty() ||
       std::memcmp(stored, message.data(), message.size()) == 0)) {
    ++stats_.memo_hits;
    return slot.mac;
  }

  ++stats_.macs;
  slot.key = key;
  slot.fingerprint = fp;
  slot.length = message.size();
  slot.mac = it->second.schedule.mac(message);
  if (!message.empty()) std::memcpy(stored, message.data(), message.size());
  return slot.mac;
}

Signature KeyRegistry::sign_internal(KeyId key, ByteSpan message) const {
  const std::optional<Digest> mac = true_mac(key, message);
  UNIDIR_CHECK_MSG(mac.has_value(), "signing with unknown key");
  return Signature{key, *mac};
}

bool KeyRegistry::verify(const Signature& sig, ByteSpan message) const {
  ++stats_.verifies;
  const std::optional<Digest> mac = true_mac(sig.key, message);
  if (!mac) return false;
  return constant_time_equal(*mac, sig.mac);
}

Signature Signer::sign(ByteSpan message) const {
  UNIDIR_REQUIRE_MSG(registry_ != nullptr, "sign() on a null Signer");
  return registry_->sign_internal(key_, message);
}

}  // namespace unidir::crypto
