#include "trusted/trinc_from_srb.h"

namespace unidir::trusted {

namespace {

struct AttestWire {
  static constexpr wire::MsgDesc kDesc{1, "trinc-attest"};

  SeqNum c = 0;
  Bytes m;

  static auto fields(auto& a) { return std::tie(a.c, a.m); }
};

}  // namespace

TrincFromSrb::TrincFromSrb(broadcast::SrbEndpoint& srb, ProcessId self,
                           wire::StatsHub* hub)
    : srb_(srb),
      payload_router_([hub]() { return hub; }, wire::kTrincAttestCh),
      self_(self) {
  srb_.set_deliver([this](const broadcast::Delivery& d) { on_delivery(d); });
  // The delivery's seq (k) rides alongside; the handler reads it from the
  // in-flight delivery, so register once and stash the seq per dispatch.
  payload_router_.on<AttestWire>([this](ProcessId from, AttestWire wire) {
    // The paper's filter: accept only strictly increasing counter values.
    // SRB's total per-sender order makes this filter agree at all correct
    // processes.
    SeqNum& high = counters_[from];
    if (wire.c <= high) return;
    high = wire.c;
    SrbAttestation a;
    a.owner = from;
    a.broadcast_seq = dispatching_seq_;
    a.seq = wire.c;
    a.message = std::move(wire.m);
    stored_.emplace(std::make_pair(from, a.seq), std::move(a));
  });
}

std::optional<SrbAttestation> TrincFromSrb::attest(SeqNum c, const Bytes& m) {
  if (c <= my_last_c_) return std::nullopt;
  my_last_c_ = c;
  srb_.broadcast(wire::encode_tagged(AttestWire{c, m}));
  SrbAttestation a;
  a.owner = self_;
  a.broadcast_seq = ++my_next_k_;  // k: our next SRB sequence number
  a.seq = c;
  a.message = m;
  return a;
}

void TrincFromSrb::on_delivery(const broadcast::Delivery& d) {
  // A Byzantine process broadcasting junk attests nothing: the router
  // counts it as dropped_malformed and the handler never runs.
  dispatching_seq_ = d.seq;
  payload_router_.dispatch(d.sender, d.message);
}

bool TrincFromSrb::check(const SrbAttestation& a, ProcessId q) const {
  if (a.owner != q) return false;
  auto it = stored_.find({q, a.seq});
  return it != stored_.end() && it->second == a;
}

SeqNum TrincFromSrb::counter_of(ProcessId q) const {
  auto it = counters_.find(q);
  return it == counters_.end() ? 0 : it->second;
}

}  // namespace unidir::trusted
