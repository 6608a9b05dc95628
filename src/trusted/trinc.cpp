#include "trusted/trinc.h"

#include "common/check.h"

namespace unidir::trusted {

Bytes TrincAttestation::signing_bytes() const {
  return crypto::signed_binding("trinc-attest", *this).buffer();
}

Trinket TrincAuthority::make_trinket(ProcessId owner) {
  UNIDIR_REQUIRE_MSG(!device_keys_.contains(owner),
                     "owner already holds a Trinket");
  crypto::Signer key = keys_.generate_key();
  device_keys_.emplace(owner, key.key());
  return Trinket(owner, key);
}

bool TrincAuthority::check(const TrincAttestation& a, ProcessId q) const {
  if (a.owner != q) return false;
  auto it = device_keys_.find(q);
  if (it == device_keys_.end()) return false;
  if (a.device_sig.key != it->second) return false;
  return keys_.verify(a.device_sig, a.signing_bytes());
}

std::optional<TrincAttestation> Trinket::attest_on(CounterId counter,
                                                   SeqNum c, const Bytes& m) {
  SeqNum& last = last_[counter];
  if (c <= last) return std::nullopt;  // the whole point of the device
  TrincAttestation a;
  a.owner = owner_;
  a.counter = counter;
  a.prev = last;
  a.seq = c;
  a.message = m;
  a.device_sig = device_key_.sign(a.signing_bytes());
  last = c;
  return a;
}

SeqNum Trinket::last_used(CounterId counter) const {
  auto it = last_.find(counter);
  return it == last_.end() ? 0 : it->second;
}

Bytes Trinket::save_counters() const { return serde::encode(last_); }

void Trinket::load_counters(ByteSpan data) {
  last_ = serde::decode<std::map<CounterId, SeqNum>>(data);
}

}  // namespace unidir::trusted
