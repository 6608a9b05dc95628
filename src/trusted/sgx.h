// SGX-style enclave simulation.
//
// The paper groups Intel SGX / ARM TrustZone with the trusted-log
// mechanisms: "from the perspective of providing non-equivocation
// guarantees [they] are similar to A2M and TrInc, though in addition they
// allow for more expressive computations". This class models exactly that
// power: a deterministic program running over sealed state, whose outputs
// are signed with an enclave attestation key the host never sees.
//
// Substitution note (DESIGN.md): linking the real SGX SDK requires SGX
// hardware; the BFT protocols built on enclaves use only the contract
// "sealed state + attested outputs", which this simulation provides. The
// host can crash the enclave or withhold calls — it cannot fork the state
// (no rollback API is exposed) or forge outputs.
#pragma once

#include <functional>

#include "common/bytes.h"
#include "common/types.h"
#include "crypto/signature.h"

namespace unidir::trusted {

/// Output of an enclave call: the program's result plus the enclave
/// signature binding it: sig covers the output under an "sgx-report" tag.
struct SealedOutput {
  Bytes output;
  crypto::Signature sig;
};

class SgxEnclave {
 public:
  /// A deterministic program: mutates sealed state, returns an output.
  using Program = std::function<Bytes(Bytes& state, const Bytes& input)>;

  /// `keys` plays the role of the remote-attestation infrastructure.
  SgxEnclave(crypto::KeyRegistry& keys, Program program, Bytes initial_state);

  /// Runs the program inside the enclave; the returned output is attested.
  SealedOutput call(const Bytes& input);

  /// The enclave's attestation key id (public; used to verify outputs).
  crypto::KeyId attestation_key() const { return key_.key(); }

  /// Verifies that `sig` attests `output` as produced by the enclave with
  /// key `key` (a SealedOutput's two fields).
  static bool verify(const crypto::KeyRegistry& keys, crypto::KeyId key,
                     ByteSpan output, const crypto::Signature& sig);

  // -- sealed-storage export (crash-recovery model) -------------------------
  // Real SGX seals state to disk encrypted under a key derived from the
  // CPU; the host can store and return the blob but not read or forge it.
  // We model the blob as the raw state bytes and rely on the crash-recovery
  // fault model: durable storage is written only by the honest host path,
  // so rollback attacks are out of scope (a Byzantine host is modelled by
  // not calling the device at all, never by feeding it stale blobs).

  /// The current sealed blob, for persisting to durable storage.
  const Bytes& sealed_state() const { return state_; }

  /// Reinstalls a previously exported blob after a restart. The attestation
  /// key is burned into the device and is NOT part of the blob — it always
  /// survives.
  void restore_sealed_state(Bytes state) { state_ = std::move(state); }

 private:
  Program program_;
  Bytes state_;  // sealed: reachable only through program_
  crypto::Signer key_;
};

}  // namespace unidir::trusted
