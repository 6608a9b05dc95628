#include "broadcast/rb_uni_round.h"

#include "common/serde.h"

namespace unidir::broadcast {

namespace {

Bytes phase1_signing_bytes(ProcessId origin, RoundNum round,
                           const Bytes& value) {
  serde::Writer w;
  w.str("rb-uni-round");
  w.uvarint(origin);
  w.uvarint(round);
  w.bytes(value);
  return w.take();
}

/// A signed phase-1 value as carried inside phase-2 forwards.
struct ForwardedVal {
  ProcessId origin = kNoProcess;
  Bytes value;
  crypto::Signature sig;

  static auto fields(auto& m) { return std::tie(m.origin, m.value, m.sig); }
};

// The old Wire struct switched on a phase byte; each phase is now its own
// typed message routed by tag.
struct Phase1Msg {
  static constexpr wire::MsgDesc kDesc{1, "rb-uni-phase1"};

  RoundNum round = 0;
  Bytes value;
  crypto::Signature sig;

  static auto fields(auto& m) { return std::tie(m.round, m.value, m.sig); }
};

struct Phase2Msg {
  static constexpr wire::MsgDesc kDesc{2, "rb-uni-phase2"};

  RoundNum round = 0;
  std::vector<ForwardedVal> forwards;

  static auto fields(auto& m) { return std::tie(m.round, m.forwards); }
};

}  // namespace

RbUniRoundDriver::RbUniRoundDriver(sim::Process& host, SrbHub& hub)
    : host_(host),
      rb_(hub.make_endpoint(host)),
      payload_router_([this]() { return &host_.world().wire_stats(); },
                      wire::kRbUniPayloadCh) {
  UNIDIR_REQUIRE_MSG(host.world().size() >= 3,
                     "RB->uni corner case requires n >= 3");
  rb_->set_deliver([this](const Delivery& d) { on_delivery(d); });
  payload_router_.on<Phase1Msg>([this](ProcessId from, Phase1Msg m) {
    const sim::World& world = host_.world();
    // The RB layer authenticates `from`; the signature makes the value
    // *transferable* inside phase-2 forwards.
    if (m.sig.key != world.key_of(from)) return;
    if (!world.keys().verify(m.sig,
                             phase1_signing_bytes(from, m.round, m.value)))
      return;
    absorb_phase1(from, m.round, Phase1Entry{std::move(m.value), m.sig});
    check_progress();
  });
  payload_router_.on<Phase2Msg>([this](ProcessId from, Phase2Msg m) {
    const sim::World& world = host_.world();
    // Validate forwards; a phase-2 message counts toward the quorum only
    // if it carries valid values from >= 2 distinct originators.
    std::set<ProcessId> origins;
    for (ForwardedVal& f : m.forwards) {
      if (f.origin >= world.size()) continue;
      if (f.sig.key != world.key_of(f.origin)) continue;
      if (!world.keys().verify(
              f.sig, phase1_signing_bytes(f.origin, m.round, f.value)))
        continue;
      origins.insert(f.origin);
      absorb_phase1(f.origin, m.round, Phase1Entry{std::move(f.value), f.sig});
    }
    if (origins.size() >= 2) phase2_senders_[m.round].insert(from);
    check_progress();
  });
}

void RbUniRoundDriver::start_round(Bytes message,
                                   rounds::RoundDriver::Callback done) {
  active_round_ = begin(message);
  done_ = std::move(done);
  stage_ = 1;
  Phase1Msg m;
  m.round = active_round_;
  m.value = std::move(message);
  m.sig = host_.signer().sign(
      phase1_signing_bytes(host_.id(), active_round_, m.value));
  rb_->broadcast(wire::encode_tagged(m));
  check_progress();  // early arrivals may already satisfy the quorum
}

void RbUniRoundDriver::absorb_phase1(ProcessId origin, RoundNum round,
                                     Phase1Entry entry) {
  auto [it, inserted] = phase1_[round].emplace(origin, std::move(entry));
  if (inserted && origin != host_.id()) add_fresh(origin, it->second.value);
}

void RbUniRoundDriver::on_delivery(const Delivery& d) {
  // A Byzantine payload inside the trusted RB envelope is counted as
  // dropped_malformed on the pseudo-channel.
  payload_router_.dispatch(d.sender, d.message);
}

void RbUniRoundDriver::check_progress() {
  if (stage_ == 1) {
    const auto& p1 = phase1_[active_round_];
    if (p1.size() < quorum()) return;
    // Phase 2: forward everything received.
    Phase2Msg m;
    m.round = active_round_;
    for (const auto& [origin, entry] : p1)
      m.forwards.push_back({origin, entry.value, entry.sig});
    stage_ = 2;
    rb_->broadcast(wire::encode_tagged(m));
  }
  if (stage_ == 2) {
    if (phase2_senders_[active_round_].size() < quorum()) return;
    stage_ = 0;
    const RoundNum round = active_round_;
    active_round_ = 0;
    std::vector<rounds::Received> received;
    for (const auto& [origin, entry] : phase1_[round]) {
      if (origin == host_.id()) continue;
      received.push_back({origin, entry.value});
    }
    auto done = std::move(done_);
    done_ = nullptr;
    finish(std::move(received), done);
  }
}

}  // namespace unidir::broadcast
