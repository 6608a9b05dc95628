// USIG — Unique Sequential Identifier Generator (Veronese et al.,
// "Efficient Byzantine fault-tolerance", the MinBFT trusted service) —
// implemented as a program *inside* the SGX-style enclave.
//
// createUI(m) binds a fresh, strictly increasing counter value to the hash
// of m, attested by the enclave key. A replica therefore cannot assign the
// same counter value to two different messages: the non-equivocation
// primitive MinBFT builds its n = 2f+1 protocol on.
#pragma once

#include <functional>
#include <memory>
#include <utility>

#include "crypto/sha256.h"
#include "trusted/sgx.h"

namespace unidir::trusted {

struct UniqueIdentifier {
  SeqNum counter = 0;
  crypto::Digest digest{};  // SHA-256 of the certified message
  crypto::Signature sig;    // enclave attestation over (counter, digest)

  bool operator==(const UniqueIdentifier&) const = default;

  /// Decoded at the wire boundary from attacker-controlled bytes: a bad
  /// digest length is a DecodeError (counted, dropped).
  static auto fields(auto& m) { return std::tie(m.counter, m.digest, m.sig); }
};

class UsigEnclave {
 public:
  explicit UsigEnclave(crypto::KeyRegistry& keys);

  /// Certifies `message` with the next counter value (1, 2, 3, …).
  UniqueIdentifier create_ui(const Bytes& message);

  /// The enclave attestation key other replicas verify against.
  crypto::KeyId key() const { return enclave_.attestation_key(); }

  SeqNum last_counter() const { return last_; }

  /// verifyUI: `ui` certifies `message` under the USIG with key `key`.
  static bool verify_ui(const crypto::KeyRegistry& keys, crypto::KeyId key,
                        const UniqueIdentifier& ui, const Bytes& message);

  // -- crash-recovery (see DESIGN.md §9) ------------------------------------
  /// The enclave's sealed counter blob, suitable for a DurableStore.
  Bytes save_state() const { return enclave_.sealed_state(); }
  /// Reinstalls a blob produced by save_state after a restart.
  void load_state(Bytes data);
  /// Deliberately models an un-sealed counter: it rewinds to 0 while the
  /// attestation key survives, so the enclave will re-issue already-used
  /// counter values for different messages. Negative-test only.
  void reset_for_power_loss();

  /// Write-through persistence: after every create_ui the freshly sealed
  /// counter blob is handed to `sink` before the UI escapes the enclave.
  /// Wired to a durable-store put, this is the counter-then-send ordering
  /// that makes the counter survive kill -9: no UI a peer can ever see has
  /// a counter value that was not first on stable media. Leaving the sink
  /// unset models the PR-4 "volatile counter" negative experiment.
  void set_nvram(std::function<void(const Bytes&)> sink) {
    nvram_ = std::move(sink);
  }

 private:
  SgxEnclave enclave_;
  SeqNum last_ = 0;  // mirror for introspection; truth lives in the enclave
  std::function<void(const Bytes&)> nvram_;
};

}  // namespace unidir::trusted
