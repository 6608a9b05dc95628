#include "broadcast/srb_hub.h"

#include "common/serde.h"

namespace unidir::broadcast {

namespace {

/// Wire format of a hub-authenticated copy.
struct HubWire {
  static constexpr wire::MsgDesc kDesc{1, "srb-hub-copy"};

  ProcessId sender = kNoProcess;
  SeqNum seq = 0;
  Bytes message;
  crypto::Signature hub_sig;

  static auto fields(auto& m) {
    return std::tie(m.sender, m.seq, m.message, m.hub_sig);
  }
};

}  // namespace

SrbHub::SrbHub(sim::World& world, sim::Channel channel)
    : world_(world), channel_(channel), hub_key_(world.keys().generate_key()) {}

std::unique_ptr<SrbHubEndpoint> SrbHub::make_endpoint(sim::Process& host) {
  return std::unique_ptr<SrbHubEndpoint>(new SrbHubEndpoint(*this, host));
}

SeqNum SrbHub::submit(ProcessId sender, const Bytes& message) {
  const SeqNum seq = ++next_seq_[sender];
  HubWire wire;
  wire.sender = sender;
  wire.seq = seq;
  wire.message = message;
  wire.hub_sig =
      hub_key_.sign(crypto::signed_binding("srb-hub", wire).buffer());
  // Ship one copy per process (including the sender: RB delivers to self),
  // each under independent adversary control.
  wire::broadcast(world_, sender, channel_, wire, /*include_self=*/true);
  return seq;
}

bool SrbHub::verify(ProcessId sender, SeqNum seq, const Bytes& message,
                    const crypto::Signature& sig) const {
  HubWire wire;
  wire.sender = sender;
  wire.seq = seq;
  wire.message = message;
  return world_.keys().verify(
      sig, crypto::signed_binding("srb-hub", wire).buffer());
}

SrbHubEndpoint::SrbHubEndpoint(SrbHub& hub, sim::Process& host)
    : hub_(hub), host_(host), router_(host, hub.channel_), self_(host.id()) {
  // The envelope's `from` is ignored: authenticity comes from the hub
  // signature, not the (spoofable) sender id.
  router_.on<HubWire>([this](ProcessId, HubWire wire) {
    on_copy(wire.sender, wire.seq, std::move(wire.message), wire.hub_sig);
  });
}

void SrbHubEndpoint::broadcast(Bytes message) {
  hub_.submit(self_, std::move(message));
}

void SrbHubEndpoint::on_copy(ProcessId sender, SeqNum seq, Bytes message,
                             const crypto::Signature& hub_sig) {
  // The hub signature is what makes the primitive trusted: a Byzantine
  // process sending directly on this channel cannot produce it.
  if (!hub_.verify(sender, seq, message, hub_sig)) return;
  if (seq <= delivered_up_to(sender)) return;  // duplicate
  pending_[sender][seq] = std::move(message);
  try_deliver(sender);
}

void SrbHubEndpoint::try_deliver(ProcessId sender) {
  auto& buffer = pending_[sender];
  while (true) {
    const SeqNum next = delivered_up_to(sender) + 1;
    auto it = buffer.find(next);
    if (it == buffer.end()) return;
    Delivery d;
    d.sender = sender;
    d.seq = next;
    d.message = std::move(it->second);
    buffer.erase(it);
    host_.output("srb-deliver", serde::encode(std::pair<ProcessId, SeqNum>{
                                    d.sender, d.seq}));
    record_delivery(std::move(d));
  }
}

}  // namespace unidir::broadcast
