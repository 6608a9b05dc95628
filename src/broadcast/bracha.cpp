#include "broadcast/bracha.h"

#include "common/serde.h"

namespace unidir::broadcast {

namespace {

// INITIAL/ECHO/READY share one body; each phase is its own wire type so
// the router handles tag dispatch (and counts per-phase traffic).
struct Body {
  ProcessId sender = kNoProcess;
  SeqNum seq = 0;
  Bytes message;

  static auto fields(auto& m) { return std::tie(m.sender, m.seq, m.message); }
};

struct InitialMsg : Body {
  static constexpr wire::MsgDesc kDesc{1, "bracha-initial"};
};
struct EchoMsg : Body {
  static constexpr wire::MsgDesc kDesc{2, "bracha-echo"};
};
struct ReadyMsg : Body {
  static constexpr wire::MsgDesc kDesc{3, "bracha-ready"};
};

}  // namespace

BrachaEndpoint::BrachaEndpoint(sim::Process& host, sim::Channel channel,
                               std::size_t n, std::size_t f)
    : host_(host), router_(host, channel), n_(n), f_(f) {
  UNIDIR_REQUIRE_MSG(n > 3 * f, "Bracha requires n > 3f");
  router_.on<InitialMsg>([this](ProcessId from, InitialMsg m) {
    handle(from, Type::Initial, m.sender, m.seq, m.message);
  });
  router_.on<EchoMsg>([this](ProcessId from, EchoMsg m) {
    handle(from, Type::Echo, m.sender, m.seq, m.message);
  });
  router_.on<ReadyMsg>([this](ProcessId from, ReadyMsg m) {
    handle(from, Type::Ready, m.sender, m.seq, m.message);
  });
}

void BrachaEndpoint::broadcast(Bytes message) {
  const SeqNum seq = ++my_seq_;
  // The sender participates in its own instance: record the INITIAL
  // locally, then ship it.
  handle(host_.id(), Type::Initial, host_.id(), seq, message);
  send_to_all(Type::Initial, host_.id(), seq, message);
}

void BrachaEndpoint::send_to_all(Type type, ProcessId sender, SeqNum seq,
                                 const Bytes& message) {
  const Body body{sender, seq, message};
  sent_ += host_.world().size() - 1;
  switch (type) {
    case Type::Initial:
      router_.broadcast(InitialMsg{body});
      break;
    case Type::Echo:
      router_.broadcast(EchoMsg{body});
      break;
    case Type::Ready:
      router_.broadcast(ReadyMsg{body});
      break;
  }
}

void BrachaEndpoint::handle(ProcessId from, Type type, ProcessId sender,
                            SeqNum seq, const Bytes& message) {
  if (seq == 0) return;
  Instance& inst = instances_[{sender, seq}];
  switch (type) {
    case Type::Initial:
      // Only the sender itself may open its instance; keep the first value.
      if (from != sender) return;
      if (inst.initial.has_value()) return;
      inst.initial = message;
      break;
    case Type::Echo:
      inst.echoes[message].insert(from);
      break;
    case Type::Ready:
      inst.readies[message].insert(from);
      break;
  }
  step(sender, seq);
}

void BrachaEndpoint::step(ProcessId sender, SeqNum seq) {
  Instance& inst = instances_[{sender, seq}];

  if (!inst.echoed && inst.initial.has_value()) {
    inst.echoed = true;
    // Count own echo locally; ship to the others.
    inst.echoes[*inst.initial].insert(host_.id());
    send_to_all(Type::Echo, sender, seq, *inst.initial);
  }

  if (!inst.readied) {
    for (const auto& [value, voters] : inst.echoes) {
      if (voters.size() >= echo_quorum()) {
        inst.readied = true;
        inst.readies[value].insert(host_.id());
        send_to_all(Type::Ready, sender, seq, value);
        break;
      }
    }
  }
  if (!inst.readied) {
    for (const auto& [value, voters] : inst.readies) {
      if (voters.size() >= f_ + 1) {
        inst.readied = true;
        inst.readies[value].insert(host_.id());
        send_to_all(Type::Ready, sender, seq, value);
        break;
      }
    }
  }

  if (!inst.accepted) {
    for (const auto& [value, voters] : inst.readies) {
      if (voters.size() >= 2 * f_ + 1) {
        inst.accepted = true;
        accept(sender, seq, value);
        break;
      }
    }
  }
}

void BrachaEndpoint::accept(ProcessId sender, SeqNum seq,
                            const Bytes& message) {
  accepted_buffer_[sender][seq] = message;
  flush(sender);
}

void BrachaEndpoint::flush(ProcessId sender) {
  auto& buffer = accepted_buffer_[sender];
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
