#include "broadcast/srb_from_uni.h"

#include <algorithm>

namespace unidir::broadcast {

// ---- wire types --------------------------------------------------------------

Bytes SignedVal::signing_bytes() const {
  return crypto::signed_binding("srb-uni-val", *this).buffer();
}

Bytes CopyVote::signing_bytes(const SignedVal& val) {
  serde::Writer w;
  w.str("srb-uni-copy");
  w.uvarint(val.sender);
  w.uvarint(val.seq);
  w.bytes(val.msg);
  return w.take();
}

Bytes L1Proof::signing_bytes() const {
  serde::Writer w;
  w.str("srb-uni-l1");
  w.uvarint(val.sender);
  w.uvarint(val.seq);
  w.bytes(val.msg);
  std::vector<ProcessId> ids;
  ids.reserve(copies.size());
  for (const CopyVote& c : copies) ids.push_back(c.copier);
  std::sort(ids.begin(), ids.end());
  w.uvarint(ids.size());
  for (ProcessId id : ids) w.uvarint(id);
  return w.take();
}

// ---- validation ----------------------------------------------------------------

bool valid_signed_val(const sim::World& w, const SignedVal& val) {
  if (val.seq == 0) return false;
  if (val.sender >= w.size()) return false;
  if (val.sender_sig.key != w.key_of(val.sender)) return false;
  return w.keys().verify(val.sender_sig, val.signing_bytes());
}

bool valid_copy(const sim::World& w, const SignedVal& val, const CopyVote& c) {
  if (c.copier >= w.size()) return false;
  if (c.sig.key != w.key_of(c.copier)) return false;
  return w.keys().verify(c.sig, CopyVote::signing_bytes(val));
}

bool valid_l1(const sim::World& w, const L1Proof& p, std::size_t t) {
  if (!valid_signed_val(w, p.val)) return false;
  if (p.compiler >= w.size()) return false;
  std::set<ProcessId> copiers;
  for (const CopyVote& c : p.copies) {
    if (!valid_copy(w, p.val, c)) return false;
    copiers.insert(c.copier);
  }
  if (copiers.size() < t + 1) return false;
  if (p.compiler_sig.key != w.key_of(p.compiler)) return false;
  return w.keys().verify(p.compiler_sig, p.signing_bytes());
}

bool valid_l2(const sim::World& w, const L2Proof& p, std::size_t t) {
  if (!valid_signed_val(w, p.val)) return false;
  std::set<ProcessId> compilers;
  for (const L1Proof& l1 : p.l1s) {
    if (!l1.val.same_value(p.val)) return false;
    if (!valid_l1(w, l1, t)) return false;
    compilers.insert(l1.compiler);
  }
  // t+1 distinct compilers ⇒ at least one correct process vouched, which
  // is the anchor of the no-conflicting-L2 argument.
  return compilers.size() >= t + 1;
}

// ---- engine ---------------------------------------------------------------------

UniSrbEndpoint::UniSrbEndpoint(sim::Process& host, rounds::RoundDriver& driver,
                               std::size_t n, std::size_t t,
                               UniSrbOptions options)
    : host_(host),
      driver_(driver),
      payload_router_([this]() { return &host_.world().wire_stats(); },
                      wire::kUniSrbPayloadCh),
      n_(n),
      t_(t),
      options_(options) {
  UNIDIR_REQUIRE_MSG(n >= 2 * t + 1, "Algorithm 1 requires n >= 2t+1");
  payload_router_.on<UniSlotPayload>(
      [this](ProcessId from, UniSlotPayload p) { on_payload(from, std::move(p)); });
  driver_.set_activity_listener([this] {
    if (started_ && parked_) {
      idle_rounds_ = 0;
      ensure_rounding();
    }
  });
}

void UniSrbEndpoint::start() {
  if (started_) return;
  started_ = true;
  ensure_rounding();
}

void UniSrbEndpoint::broadcast(Bytes message) {
  SignedVal val;
  val.sender = host_.id();
  val.seq = ++my_seq_;
  val.msg = std::move(message);
  val.sender_sig = host_.signer().sign(val.signing_bytes());
  my_history_.push_back(std::move(val));
  dirty_ = true;
  if (started_) {
    idle_rounds_ = 0;
    ensure_rounding();
  }
}

bool UniSrbEndpoint::poisoned(ProcessId sender) const {
  auto it = senders_.find(sender);
  return it != senders_.end() && it->second.poisoned;
}

UniSrbEndpoint::SenderState& UniSrbEndpoint::state_of(ProcessId sender) {
  return senders_[sender];
}

void UniSrbEndpoint::ensure_rounding() {
  if (!started_ || driver_.round_in_flight()) return;
  parked_ = false;
  run_round();
}

void UniSrbEndpoint::run_round() {
  dirty_ = false;
  Bytes payload = build_payload();
  payload_bytes_ += payload.size();
  driver_.start_round(std::move(payload),
                      [this](RoundNum, const std::vector<rounds::Received>& r) {
                        on_round_done(r);
                      });
}

void UniSrbEndpoint::on_round_done(const std::vector<rounds::Received>&) {
  // Consume everything newly observed — reads of registers return the full
  // past, not just same-round entries. The round boundary itself is what
  // gates the L1/L2 compilations below (end_of_round_transitions), which
  // is all the safety argument needs.
  for (const rounds::Received& r : driver_.take_fresh()) {
    if (r.from == host_.id()) continue;
    payload_router_.dispatch(r.from, r.message);
  }
  // The sender participates in its own broadcast like any replica: it
  // trivially "receives" its own next value and counter-signs a copy.
  // Without this, t+1 copy quorums could be unreachable when only t+1
  // correct processes (including the sender) are around.
  SenderState& self_state = state_of(host_.id());
  if (self_state.next <= my_history_.size())
    consider_val(host_.id(), my_history_[self_state.next - 1]);
  end_of_round_transitions();

  if (dirty_) {
    idle_rounds_ = 0;
  } else {
    ++idle_rounds_;
  }
  if (idle_rounds_ < options_.idle_limit) {
    run_round();
  } else {
    parked_ = true;
  }
}

Bytes UniSrbEndpoint::build_payload() {
  UniSlotPayload p;
  p.my_vals = my_history_;
  for (auto& [sender, st] : senders_) {
    if (st.adopted && st.my_copy)
      p.copies.emplace_back(*st.adopted, *st.my_copy);
    if (st.my_l1) p.l1s.push_back(*st.my_l1);
  }
  for (const auto& [key, proof] : l2_store_) p.l2s.push_back(proof);
  return wire::encode_tagged(p);
}

void UniSrbEndpoint::on_payload(ProcessId from, UniSlotPayload p) {
  for (const SignedVal& val : p.my_vals) consider_val(from, val);
  for (const auto& [val, vote] : p.copies) consider_copy(from, val, vote);
  for (const L1Proof& l1 : p.l1s) consider_l1(from, l1);
  for (const L2Proof& l2 : p.l2s) consider_l2(l2);
}

void UniSrbEndpoint::note_equivocation(SenderState& st, const SignedVal& val) {
  st.seen_msgs.insert(val.msg);
  if (st.seen_msgs.size() >= 2 && !st.poisoned) {
    st.poisoned = true;
    dirty_ = true;
  }
}

void UniSrbEndpoint::consider_val(ProcessId relay, const SignedVal& val) {
  // A value counts as "received from the sender" only out of the sender's
  // own slot — mirroring reads of the sender's register.
  if (val.sender != relay) return;
  SenderState& st = state_of(val.sender);
  if (val.seq != st.next) return;
  if (!valid_signed_val(host_.world(), val)) return;
  note_equivocation(st, val);
  if (st.phase != SenderState::Phase::WaitForSender || st.adopted) return;
  // Adopt: counter-sign and advance to WaitForL1 (Alg. 1 line "Send
  // sign(val) to all; state = WaitForL1Proof").
  st.adopted = val;
  CopyVote mine;
  mine.copier = host_.id();
  mine.sig = host_.signer().sign(CopyVote::signing_bytes(val));
  st.my_copy = mine;
  st.copies[mine.copier] = mine;
  st.phase = SenderState::Phase::WaitForL1;
  // Our copy first travels in the NEXT round; only a round completed after
  // that may compile an L1 proof.
  st.earliest_l1_round = driver_.completed_rounds() + 1;
  dirty_ = true;
}

void UniSrbEndpoint::consider_copy(ProcessId relay, const SignedVal& val,
                                   const CopyVote& vote) {
  // Copies are only accepted out of the copier's own slot.
  if (vote.copier != relay) return;
  SenderState& st = state_of(val.sender);
  if (val.seq != st.next) return;
  if (!valid_signed_val(host_.world(), val)) return;
  note_equivocation(st, val);
  if (!st.adopted || !st.adopted->same_value(val)) return;
  if (!valid_copy(host_.world(), val, vote)) return;
  if (st.copies.emplace(vote.copier, vote).second) dirty_ = true;
}

void UniSrbEndpoint::consider_l1(ProcessId relay, const L1Proof& proof) {
  if (proof.compiler != relay) return;
  SenderState& st = state_of(proof.val.sender);
  if (proof.val.seq != st.next) return;
  if (!valid_l1(host_.world(), proof, t_)) return;
  note_equivocation(st, proof.val);
  if (!st.adopted || !st.adopted->same_value(proof.val)) return;
  if (st.l1s.emplace(proof.compiler, proof).second) dirty_ = true;
}

void UniSrbEndpoint::consider_l2(const L2Proof& proof) {
  const auto key = std::make_pair(proof.val.sender, proof.val.seq);
  if (l2_store_.contains(key)) return;
  if (proof.val.seq <= delivered_up_to(proof.val.sender)) return;
  if (!valid_l2(host_.world(), proof, t_)) return;
  l2_store_.emplace(key, proof);
  dirty_ = true;
  maybe_deliver(proof.val.sender);
}

void UniSrbEndpoint::end_of_round_transitions() {
  const RoundNum completed = driver_.completed_rounds();
  for (auto& [sender, st] : senders_) {
    if (st.phase == SenderState::Phase::WaitForL1 && !st.poisoned &&
        st.copies.size() >= t_ + 1 && completed >= st.earliest_l1_round) {
      L1Proof l1;
      l1.val = *st.adopted;
      for (const auto& [copier, vote] : st.copies) l1.copies.push_back(vote);
      l1.compiler = host_.id();
      l1.compiler_sig = host_.signer().sign(l1.signing_bytes());
      st.my_l1 = l1;
      st.l1s[host_.id()] = std::move(l1);
      st.phase = SenderState::Phase::WaitForL2;
      st.earliest_l2_round = completed + 1;
      dirty_ = true;
    }
    if (st.phase == SenderState::Phase::WaitForL2 &&
        st.l1s.size() >= t_ + 1 && completed >= st.earliest_l2_round) {
      L2Proof l2;
      l2.val = *st.adopted;
      for (const auto& [compiler, proof] : st.l1s) l2.l1s.push_back(proof);
      UNIDIR_CHECK(valid_l2(host_.world(), l2, t_));
      l2_store_.emplace(std::make_pair(sender, st.next), std::move(l2));
      dirty_ = true;
    }
    maybe_deliver(sender);
  }
}

void UniSrbEndpoint::maybe_deliver(ProcessId sender) {
  SenderState& st = state_of(sender);
  while (true) {
    auto it = l2_store_.find({sender, st.next});
    if (it == l2_store_.end()) return;
    Delivery d;
    d.sender = sender;
    d.seq = st.next;
    d.message = it->second.val.msg;
    host_.output("srb-deliver", serde::encode(std::pair<ProcessId, SeqNum>{
                                    d.sender, d.seq}));
    record_delivery(std::move(d));
    st.next += 1;
    st.reset_for_next_seq();
    dirty_ = true;
  }
}

}  // namespace unidir::broadcast
