#include "agreement/pbft.h"

#include "common/check.h"

namespace unidir::agreement {

namespace {

/// Digest of the whole batch: what the PREPARE/COMMIT votes name, so batch
/// boundaries are part of what the quorum agrees on.
crypto::Digest batch_digest(const std::vector<Command>& cmds) {
  serde::ScratchWriter w;
  serde::write(*w, cmds);
  return crypto::Sha256::hash(w->buffer());
}

/// PRE-PREPARE's signed binding, and PREPARE's and COMMIT's: a phase tag
/// over (view, seq, batch digest).
serde::ScratchWriter vote_binding(std::string_view phase, ViewNum view,
                                  SeqNum seq, const crypto::Digest& digest) {
  serde::ScratchWriter w;
  w->str(phase);
  w->uvarint(view);
  w->uvarint(seq);
  w->bytes(digest);
  return w;
}

constexpr std::string_view kJournalKey = "pbft/journal";

}  // namespace

namespace pbft_wire {

/// One signed proposal covers the whole command vector; the quorum's
/// PREPARE/COMMIT votes then carry the batch digest.
struct PrePrepare {
  static constexpr wire::MsgDesc kDesc{6, "pbft-pre-prepare"};

  ViewNum view = 0;
  SeqNum seq = 0;
  std::vector<Command> cmds;
  crypto::Signature sig;

  static auto fields(auto& m) {
    return std::tie(m.view, m.seq, m.cmds, m.sig);
  }
};

/// PREPARE and COMMIT share a shape; each phase is its own tagged type
/// over the common body.
struct VoteBody {
  ViewNum view = 0;
  SeqNum seq = 0;
  crypto::Digest digest{};
  crypto::Signature sig;

  static auto fields(auto& m) {
    return std::tie(m.view, m.seq, m.digest, m.sig);
  }
};

struct Prepare : VoteBody {
  static constexpr wire::MsgDesc kDesc{7, "pbft-prepare"};
};

struct Commit : VoteBody {
  static constexpr wire::MsgDesc kDesc{8, "pbft-commit"};
};

}  // namespace pbft_wire

using namespace pbft_wire;

Bytes PbftReplica::encode_preprepare_for_test(
    const crypto::Signer& signer, ViewNum view, SeqNum seq,
    const std::vector<Command>& cmds) {
  PrePrepare pp;
  pp.view = view;
  pp.seq = seq;
  pp.cmds = cmds;
  pp.sig = signer.sign(
      vote_binding("pbft-pp", view, seq, batch_digest(cmds)).buffer());
  return wire::encode_tagged(pp);
}

PbftReplica::PbftReplica(Options options,
                         std::unique_ptr<StateMachine> machine)
    : ReplicaCore(options, {"pbft", kPbftCh, 2 * options.f + 1, 1},
                  std::move(machine)) {
  UNIDIR_REQUIRE_MSG(options.replicas.size() >= 3 * options.f + 1,
                     "PBFT requires n >= 3f+1");
  protocol_router_.on<PrePrepare>([this](ProcessId from, PrePrepare pp) {
    handle_preprepare(from, std::move(pp));
  });
  protocol_router_.on<Prepare>([this](ProcessId from, Prepare v) {
    handle_prepare(from, std::move(v));
  });
  protocol_router_.on<Commit>([this](ProcessId from, Commit v) {
    handle_commit(from, std::move(v));
  });
}

void PbftReplica::propose(std::vector<Command> cmds) {
  PrePrepare pp;
  pp.view = view_;
  pp.seq = next_propose_seq_++;
  pp.cmds = std::move(cmds);
  const crypto::Digest digest = batch_digest(pp.cmds);
  pp.sig = signer().sign(
      vote_binding("pbft-pp", pp.view, pp.seq, digest).buffer());
  // Journal before the broadcast can take effect: once any replica saw
  // this sequence number, we must never assign it again, restart or not.
  persist_journal();
  protocol_router_.broadcast(pp);

  // State transfer may have moved the cursor past our own proposals.
  ReplicaCore::Slot* open = open_slot(pp.seq);
  if (open == nullptr) return;
  Slot& slot = static_cast<Slot&>(*open);
  slot.digest = digest;
  accept(pp.seq, slot, std::move(pp.cmds));
  step(pp.seq);
}

void PbftReplica::handle_preprepare(ProcessId from, PrePrepare pp) {
  if (from == id() || pp.seq == 0) return;
  if (pp.cmds.empty()) return;  // an empty batch orders nothing
  if (pp.sig.key != world().key_of(from)) return;
  const crypto::Digest digest = batch_digest(pp.cmds);
  if (!world().keys().verify(
          pp.sig, vote_binding("pbft-pp", pp.view, pp.seq, digest).buffer()))
    return;
  const ViewNum view = pp.view;
  when_in_view(view, [this, from, pp = std::move(pp), digest]() mutable {
    if (from != primary_of(view_)) return;
    ReplicaCore::Slot* open = open_slot(pp.seq);
    if (open == nullptr) return;
    Slot& slot = static_cast<Slot&>(*open);
    if (!slot.cmds.empty()) return;  // first pre-prepare per slot wins
    slot.digest = digest;
    accept(pp.seq, slot, std::move(pp.cmds));
    for (const Command& cmd : slot.cmds) guard(cmd);

    if (!slot.sent_prepare) {
      slot.sent_prepare = true;
      slot.prepares[slot.digest].insert(id());
      Prepare v;
      v.view = view_;
      v.seq = pp.seq;
      v.digest = slot.digest;
      v.sig = signer().sign(
          vote_binding("pbft-prepare", v.view, v.seq, v.digest).buffer());
      protocol_router_.broadcast(v);
    }
    step(pp.seq);
  });
}

void PbftReplica::handle_prepare(ProcessId from, Prepare v) {
  if (from == id()) return;
  if (v.sig.key != world().key_of(from)) return;
  if (!world().keys().verify(
          v.sig,
          vote_binding("pbft-prepare", v.view, v.seq, v.digest).buffer()))
    return;
  when_in_view(v.view, [this, from, v]() {
    if (from == primary_of(view_)) return;  // the primary never prepares
    ReplicaCore::Slot* slot = open_slot(v.seq);
    if (slot == nullptr) return;
    static_cast<Slot*>(slot)->prepares[v.digest].insert(from);
    step(v.seq);
  });
}

void PbftReplica::handle_commit(ProcessId from, Commit v) {
  if (from == id()) return;
  if (v.sig.key != world().key_of(from)) return;
  if (!world().keys().verify(
          v.sig,
          vote_binding("pbft-commit", v.view, v.seq, v.digest).buffer()))
    return;
  when_in_view(v.view, [this, from, v]() {
    ReplicaCore::Slot* slot = open_slot(v.seq);
    if (slot == nullptr) return;
    static_cast<Slot*>(slot)->commits[v.digest].insert(from);
    step(v.seq);
  });
}

void PbftReplica::step(SeqNum seq) {
  auto it = slots_.find(seq);
  if (it == slots_.end()) return;
  Slot& slot = static_cast<Slot&>(*it->second);
  if (slot.cmds.empty()) return;  // no pre-prepare yet

  // prepared: the pre-prepare plus 2f PREPAREs for the same digest
  // (the primary's pre-prepare stands in for its prepare).
  const bool prepared =
      slot.prepares[slot.digest].size() >= 2 * options_.f;
  if (prepared && !slot.sent_commit) {
    slot.sent_commit = true;
    slot.commits[slot.digest].insert(id());
    Commit v;
    v.view = view_;
    v.seq = seq;
    v.digest = slot.digest;
    v.sig = signer().sign(
        vote_binding("pbft-commit", v.view, v.seq, v.digest).buffer());
    protocol_router_.broadcast(v);
  }
  try_execute();
}

bool PbftReplica::committed(const ReplicaCore::Slot& s) const {
  const Slot& slot = static_cast<const Slot&>(s);
  if (!slot.sent_commit) return false;
  auto it = slot.commits.find(slot.digest);
  return it != slot.commits.end() && it->second.size() >= 2 * options_.f + 1;
}

// ---- crash recovery (DESIGN.md §9) ----------------------------------------------

void PbftReplica::persist_journal() {
  world().durable(id()).put_value(
      std::string(kJournalKey),
      std::make_pair(view_, next_propose_seq_));
}

void PbftReplica::on_recover(sim::DurableStore& durable) {
  reload(durable);
  // The propose journal outruns the image (it is written on every
  // propose): if it belongs to the restored view, resume above it so an
  // honest primary never reassigns a sequence number it already used.
  if (const auto journal =
          durable.get_value<std::pair<ViewNum, SeqNum>>(
              std::string(kJournalKey))) {
    if (journal->first == view_)
      next_propose_seq_ = std::max(next_propose_seq_, journal->second);
  }
  begin_state_sync();
}

}  // namespace unidir::agreement
