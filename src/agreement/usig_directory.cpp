#include "agreement/usig_directory.h"

#include "common/check.h"

namespace unidir::agreement {

// ---- SGX-backed -----------------------------------------------------------------

trusted::UsigEnclave& SgxUsigDirectory::enclave_for(ProcessId p) {
  auto it = enclaves_.find(p);
  if (it == enclaves_.end())
    it = enclaves_.emplace(p, std::make_unique<trusted::UsigEnclave>(keys_))
             .first;
  return *it->second;
}

trusted::UniqueIdentifier SgxUsigDirectory::create_ui(ProcessId p,
                                                      const Bytes& message) {
  return enclave_for(p).create_ui(message);
}

bool SgxUsigDirectory::verify(ProcessId p,
                              const trusted::UniqueIdentifier& ui,
                              const Bytes& message) const {
  auto it = enclaves_.find(p);
  if (it == enclaves_.end()) return false;
  return trusted::UsigEnclave::verify_ui(keys_, it->second->key(), ui,
                                         message);
}

void SgxUsigDirectory::restart_device(ProcessId p, bool durable_state) {
  auto it = enclaves_.find(p);
  if (it == enclaves_.end()) return;  // device never used: nothing to lose
  if (durable_state) {
    // Round-trip through the sealed blob — the NVRAM boot read — so the
    // serialization path is exercised on every recovery.
    it->second->load_state(it->second->save_state());
  } else {
    it->second->reset_for_power_loss();
  }
}

// ---- TrInc-backed ---------------------------------------------------------------

trusted::Trinket& TrincUsigDirectory::trinket_for(ProcessId p) {
  auto it = trinkets_.find(p);
  if (it == trinkets_.end())
    it = trinkets_
             .emplace(p, std::make_unique<trusted::Trinket>(
                             authority_.make_trinket(p)))
             .first;
  return *it->second;
}

trusted::UniqueIdentifier TrincUsigDirectory::create_ui(ProcessId p,
                                                        const Bytes& message) {
  trusted::Trinket& trinket = trinket_for(p);
  const crypto::Digest digest = crypto::Sha256::hash(message);
  const auto attestation =
      trinket.attest(trinket.last_used() + 1, crypto::digest_bytes(digest));
  UNIDIR_CHECK(attestation.has_value());
  trusted::UniqueIdentifier ui;
  ui.counter = attestation->seq;
  ui.digest = digest;
  ui.sig = attestation->device_sig;
  return ui;
}

bool TrincUsigDirectory::verify(ProcessId p,
                                const trusted::UniqueIdentifier& ui,
                                const Bytes& message) const {
  if (ui.counter == 0) return false;
  if (crypto::Sha256::hash(message) != ui.digest) return false;
  // Reconstruct the attestation this UI must have come from: the directory
  // only ever attests consecutively, so prev = seq − 1.
  trusted::TrincAttestation attestation;
  attestation.owner = p;
  attestation.counter = 0;
  attestation.prev = ui.counter - 1;
  attestation.seq = ui.counter;
  attestation.message = crypto::digest_bytes(ui.digest);
  attestation.device_sig = ui.sig;
  return authority_.check(attestation, p);
}

void TrincUsigDirectory::restart_device(ProcessId p, bool durable_state) {
  auto it = trinkets_.find(p);
  if (it == trinkets_.end()) return;  // device never used: nothing to lose
  if (durable_state) {
    it->second->load_counters(it->second->save_counters());
  } else {
    it->second->reset_for_power_loss();
  }
}

}  // namespace unidir::agreement
