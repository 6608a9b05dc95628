#include "trusted/usig.h"

#include "common/check.h"
#include "common/serde.h"

namespace unidir::trusted {

namespace {

/// The enclave's output for one UI: (counter, digest).
serde::ScratchWriter ui_output(SeqNum counter, const crypto::Digest& digest) {
  serde::ScratchWriter w;
  w->uvarint(counter);
  w->bytes(digest);
  return w;
}

/// The enclave program: sealed state is the varint-encoded counter; each
/// call increments it and emits (counter, input digest).
Bytes usig_program(Bytes& state, const Bytes& input) {
  const auto counter = serde::decode<SeqNum>(state) + 1;
  state = serde::encode(counter);
  // Input is the raw 32-byte digest computed at the call boundary.
  return ui_output(counter, crypto::digest_from_bytes(input)).buffer();
}

}  // namespace

UsigEnclave::UsigEnclave(crypto::KeyRegistry& keys)
    : enclave_(keys, usig_program, serde::encode(SeqNum{0})) {}

UniqueIdentifier UsigEnclave::create_ui(const Bytes& message) {
  const crypto::Digest digest = crypto::Sha256::hash(message);
  const SealedOutput out = enclave_.call(crypto::digest_bytes(digest));
  UniqueIdentifier ui;
  ui.counter = ++last_;
  ui.digest = digest;
  ui.sig = out.sig;
  UNIDIR_CHECK_MSG(out.output == ui_output(ui.counter, digest).buffer(),
                   "USIG mirror desynchronized from enclave");
  // Persist BEFORE returning: the caller only gets (and can only send) the
  // UI after the advanced counter reached the nvram sink.
  if (nvram_) nvram_(enclave_.sealed_state());
  return ui;
}

void UsigEnclave::load_state(Bytes data) {
  last_ = serde::decode<SeqNum>(data);
  enclave_.restore_sealed_state(std::move(data));
}

void UsigEnclave::reset_for_power_loss() {
  last_ = 0;
  enclave_.restore_sealed_state(serde::encode(SeqNum{0}));
}

bool UsigEnclave::verify_ui(const crypto::KeyRegistry& keys,
                            crypto::KeyId key, const UniqueIdentifier& ui,
                            const Bytes& message) {
  if (crypto::Sha256::hash(message) != ui.digest) return false;
  return SgxEnclave::verify(
      keys, key, ui_output(ui.counter, ui.digest).buffer(), ui.sig);
}

}  // namespace unidir::trusted
