#include "trusted/a2m.h"

#include "common/check.h"

namespace unidir::trusted {

Bytes A2mAttestation::signing_bytes() const {
  return crypto::signed_binding("a2m-attest", *this).buffer();
}

A2m A2mAuthority::make_device(ProcessId owner) {
  UNIDIR_REQUIRE_MSG(!device_keys_.contains(owner),
                     "owner already holds an A2M device");
  crypto::Signer key = keys_.generate_key();
  device_keys_.emplace(owner, key.key());
  return A2m(owner, key);
}

bool A2mAuthority::check(const A2mAttestation& a, ProcessId q) const {
  if (a.owner != q) return false;
  auto it = device_keys_.find(q);
  if (it == device_keys_.end()) return false;
  if (a.device_sig.key != it->second) return false;
  return keys_.verify(a.device_sig, a.signing_bytes());
}

LogId A2m::create_log() {
  const LogId id = next_log_++;
  logs_.emplace(id, std::vector<Bytes>{});
  return id;
}

std::optional<SeqNum> A2m::append(LogId id, Bytes x) {
  auto it = logs_.find(id);
  if (it == logs_.end()) return std::nullopt;
  it->second.push_back(std::move(x));
  return it->second.size();
}

A2mAttestation A2m::make(A2mAttestation::Kind kind, LogId id, SeqNum seq,
                         Bytes value, const Bytes& nonce) const {
  A2mAttestation a;
  a.owner = owner_;
  a.kind = kind;
  a.log = id;
  a.seq = seq;
  a.value = std::move(value);
  a.nonce = nonce;
  a.device_sig = device_key_.sign(a.signing_bytes());
  return a;
}

std::optional<A2mAttestation> A2m::lookup(LogId id, SeqNum s,
                                          const Bytes& nonce) const {
  auto it = logs_.find(id);
  if (it == logs_.end()) return std::nullopt;
  if (s == 0 || s > it->second.size()) return std::nullopt;
  return make(A2mAttestation::Kind::Lookup, id, s, it->second[s - 1], nonce);
}

std::optional<A2mAttestation> A2m::end(LogId id, const Bytes& nonce) const {
  auto it = logs_.find(id);
  if (it == logs_.end()) return std::nullopt;
  const SeqNum len = it->second.size();
  Bytes last = len == 0 ? Bytes{} : it->second.back();
  return make(A2mAttestation::Kind::End, id, len, std::move(last), nonce);
}

std::optional<SeqNum> A2m::length(LogId id) const {
  auto it = logs_.find(id);
  if (it == logs_.end()) return std::nullopt;
  return it->second.size();
}

Bytes A2m::save_state() const {
  serde::Writer w;
  w.uvarint(next_log_);
  serde::write(w, logs_);
  return w.take();
}

void A2m::load_state(ByteSpan data) {
  serde::Reader r(data);
  next_log_ = r.uvarint();
  logs_ = serde::read<std::map<LogId, std::vector<Bytes>>>(r);
  r.expect_done();
}

}  // namespace unidir::trusted
