#include "trusted/sgx.h"

#include "common/check.h"
#include "common/serde.h"

namespace unidir::trusted {

namespace {

/// What the attestation key signs: the output under a domain tag.
serde::ScratchWriter report_binding(ByteSpan output) {
  serde::ScratchWriter w;
  w->str("sgx-report");
  w->bytes(output);
  return w;
}

}  // namespace

SgxEnclave::SgxEnclave(crypto::KeyRegistry& keys, Program program,
                       Bytes initial_state)
    : program_(std::move(program)),
      state_(std::move(initial_state)),
      key_(keys.generate_key()) {
  UNIDIR_REQUIRE(program_ != nullptr);
}

SealedOutput SgxEnclave::call(const Bytes& input) {
  SealedOutput out;
  out.output = program_(state_, input);
  out.sig = key_.sign(report_binding(out.output).buffer());
  return out;
}

bool SgxEnclave::verify(const crypto::KeyRegistry& keys, crypto::KeyId key,
                        ByteSpan output, const crypto::Signature& sig) {
  if (sig.key != key) return false;
  return keys.verify(sig, report_binding(output).buffer());
}

}  // namespace unidir::trusted
