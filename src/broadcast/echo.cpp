#include "broadcast/echo.h"

#include "common/serde.h"

namespace unidir::broadcast {

namespace {

// The old single Wire struct switched on a type byte in both encode and
// decode; each phase is now its own typed message.
struct SendMsg {
  static constexpr wire::MsgDesc kDesc{1, "echo-send"};

  SeqNum seq = 0;
  Bytes message;

  static auto fields(auto& m) { return std::tie(m.seq, m.message); }
};

struct EchoVote {
  static constexpr wire::MsgDesc kDesc{2, "echo-vote"};

  SeqNum seq = 0;
  crypto::Signature echo_sig;

  static auto fields(auto& m) { return std::tie(m.seq, m.echo_sig); }
};

struct FinalMsg {
  static constexpr wire::MsgDesc kDesc{3, "echo-final"};

  SeqNum seq = 0;
  Bytes message;
  std::vector<std::pair<ProcessId, crypto::Signature>> certificate;

  static auto fields(auto& m) {
    return std::tie(m.seq, m.message, m.certificate);
  }
};

}  // namespace

EchoBroadcastEndpoint::EchoBroadcastEndpoint(sim::Process& host,
                                             sim::Channel channel,
                                             std::size_t n, std::size_t f)
    : host_(host), router_(host, channel), n_(n), f_(f) {
  UNIDIR_REQUIRE_MSG(n > 3 * f, "echo broadcast requires n > 3f");
  // seq 0 means "none yet" library-wide; a wire message carrying it is
  // Byzantine noise.
  router_.on<SendMsg>([this](ProcessId from, SendMsg m) {
    if (m.seq == 0) return;
    handle_send(from, m.seq, std::move(m.message));
  });
  router_.on<EchoVote>([this](ProcessId from, EchoVote m) {
    if (m.seq == 0) return;
    handle_echo(from, m.seq, m.echo_sig);
  });
  router_.on<FinalMsg>([this](ProcessId from, FinalMsg m) {
    if (m.seq == 0) return;
    handle_final(from, m.seq, std::move(m.message), m.certificate);
  });
}

Bytes EchoBroadcastEndpoint::echo_binding(ProcessId sender, SeqNum seq,
                                          const Bytes& message) {
  serde::Writer w;
  w.str("echo-bcast");
  w.uvarint(sender);
  w.uvarint(seq);
  w.bytes(crypto::Sha256::hash(message));
  return w.take();
}

void EchoBroadcastEndpoint::broadcast(Bytes message) {
  const SeqNum seq = ++my_seq_;
  SenderSlot& slot = my_slots_[seq];
  slot.message = message;
  // Echo our own copy locally.
  slot.echoes.emplace(
      host_.id(),
      host_.signer().sign(echo_binding(host_.id(), seq, message)));
  sent_ += host_.world().size() - 1;
  router_.broadcast(SendMsg{seq, std::move(message)});
}

void EchoBroadcastEndpoint::handle_send(ProcessId from, SeqNum seq,
                                        Bytes message) {
  // One echo per (sender, seq), ever — the consistency anchor.
  auto [it, fresh] = echoed_.emplace(std::make_pair(from, seq), message);
  if (!fresh) return;
  ++sent_;
  router_.send(from,
               EchoVote{seq, host_.signer().sign(echo_binding(from, seq,
                                                              message))});
}

void EchoBroadcastEndpoint::handle_echo(ProcessId from, SeqNum seq,
                                        const crypto::Signature& sig) {
  auto it = my_slots_.find(seq);
  if (it == my_slots_.end() || it->second.finalized) return;
  SenderSlot& slot = it->second;
  if (sig.key != host_.world().key_of(from)) return;
  if (!host_.world().keys().verify(
          sig, echo_binding(host_.id(), seq, slot.message)))
    return;
  slot.echoes.emplace(from, sig);
  if (slot.echoes.size() < quorum()) return;

  slot.finalized = true;
  FinalMsg fin;
  fin.seq = seq;
  fin.message = slot.message;
  for (const auto& [pid, s] : slot.echoes) fin.certificate.emplace_back(pid, s);
  sent_ += host_.world().size() - 1;
  router_.broadcast(fin);
  // Deliver locally: the certificate is ours.
  accepted_[host_.id()][seq] = slot.message;
  flush(host_.id());
}

void EchoBroadcastEndpoint::handle_final(
    ProcessId from, SeqNum seq, Bytes message,
    const std::vector<std::pair<ProcessId, crypto::Signature>>& certificate) {
  if (seq <= delivered_up_to(from)) return;
  const Bytes binding = echo_binding(from, seq, message);
  std::set<ProcessId> voters;
  for (const auto& [pid, sig] : certificate) {
    if (pid >= host_.world().size()) continue;
    if (sig.key != host_.world().key_of(pid)) continue;
    if (!host_.world().keys().verify(sig, binding)) continue;
    voters.insert(pid);
  }
  if (voters.size() < quorum()) return;
  accepted_[from][seq] = std::move(message);
  flush(from);
}

void EchoBroadcastEndpoint::flush(ProcessId sender) {
  auto& buffer = accepted_[sender];
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
