#include "agreement/minbft.h"

#include "common/check.h"

namespace unidir::agreement {

namespace {

// What the primary's UI attests: the view and the whole command vector
// (length included), so batch boundaries are part of the attestation — a
// batch cannot be split or merged without invalidating the UI. The USIG
// hashes its input, so the batch needs no digest of its own.
Bytes prepare_binding(ViewNum view, const std::vector<Command>& cmds) {
  serde::Writer w;
  w.str("minbft-prep");
  w.uvarint(view);
  serde::write(w, cmds);
  return w.take();
}

Bytes commit_binding(ViewNum view, SeqNum primary_counter,
                     const std::vector<Command>& cmds) {
  serde::Writer w;
  w.str("minbft-comm");
  w.uvarint(view);
  w.uvarint(primary_counter);
  serde::write(w, cmds);
  return w.take();
}

Bytes recover_binding() {
  serde::Writer w;
  w.str("minbft-recover");
  return w.take();
}

}  // namespace

namespace minbft_wire {

/// One UI attests the whole batch, amortizing the trusted-counter step
/// across it (the paper's per-attestation cost argument; dsnet's MinBFT
/// does the same).
struct Prepare {
  static constexpr wire::MsgDesc kDesc{6, "minbft-prepare"};

  ViewNum view = 0;
  std::vector<Command> cmds;
  trusted::UniqueIdentifier ui;

  void encode(serde::Writer& w) const {
    w.uvarint(view);
    serde::write(w, cmds);
    ui.encode(w);
  }
  static Prepare decode(serde::Reader& r) {
    Prepare p;
    p.view = r.uvarint();
    p.cmds = serde::read<std::vector<Command>>(r);
    p.ui = trusted::UniqueIdentifier::decode(r);
    return p;
  }
};

/// A COMMIT carries the full PREPARE content, so it can open the slot at
/// replicas the PREPARE never reached.
struct Commit {
  static constexpr wire::MsgDesc kDesc{7, "minbft-commit"};

  ViewNum view = 0;
  std::vector<Command> cmds;
  trusted::UniqueIdentifier primary_ui;
  trusted::UniqueIdentifier replica_ui;

  void encode(serde::Writer& w) const {
    w.uvarint(view);
    serde::write(w, cmds);
    primary_ui.encode(w);
    replica_ui.encode(w);
  }
  static Commit decode(serde::Reader& r) {
    Commit c;
    c.view = r.uvarint();
    c.cmds = serde::read<std::vector<Command>>(r);
    c.primary_ui = trusted::UniqueIdentifier::decode(r);
    c.replica_ui = trusted::UniqueIdentifier::decode(r);
    return c;
  }
};

struct Recover {
  static constexpr wire::MsgDesc kDesc{8, "minbft-recover"};

  trusted::UniqueIdentifier ui;  // one fresh UI: where the stream resumes

  void encode(serde::Writer& w) const { ui.encode(w); }
  static Recover decode(serde::Reader& r) {
    Recover rc;
    rc.ui = trusted::UniqueIdentifier::decode(r);
    return rc;
  }
};

}  // namespace minbft_wire

using namespace minbft_wire;

Bytes MinBftReplica::encode_prepare_for_test(UsigDirectory& usigs,
                                             ProcessId as, ViewNum view,
                                             const std::vector<Command>& cmds) {
  Prepare p;
  p.view = view;
  p.cmds = cmds;
  p.ui = usigs.create_ui(as, prepare_binding(view, cmds));
  return wire::encode_tagged(p);
}

MinBftReplica::MinBftReplica(Options options, UsigDirectory& usigs,
                             std::unique_ptr<StateMachine> machine)
    : ReplicaCore(options, {"minbft", kMinBftCh, options.f + 1, 0},
                  std::move(machine)),
      usigs_(usigs),
      commit_quorum_(options.commit_quorum == 0 ? options.f + 1
                                                : options.commit_quorum) {
  UNIDIR_REQUIRE_MSG(options.replicas.size() >= 2 * options.f + 1,
                     "MinBFT requires n >= 2f+1");
  UNIDIR_REQUIRE_MSG(commit_quorum_ >= options.f + 1 &&
                         commit_quorum_ <= options.replicas.size(),
                     "commit quorum must be in [f+1, n]");
  protocol_router_.on<Prepare>([this](ProcessId from, Prepare p) {
    handle_prepare(from, std::move(p));
  });
  protocol_router_.on<Commit>([this](ProcessId from, Commit c) {
    handle_commit(from, std::move(c));
  });
  protocol_router_.on<Recover>([this](ProcessId from, Recover rc) {
    handle_recover(from, std::move(rc));
  });
}

void MinBftReplica::propose(std::vector<Command> cmds) {
  Prepare p;
  p.view = view_;
  p.cmds = std::move(cmds);
  p.ui = usigs_.create_ui(id(), prepare_binding(view_, p.cmds));
  // Our own UI consumption advances our own stream: messages from peers
  // embedding this UI must not wait for us to "receive" it.
  ui_high_[id()] = p.ui.counter;
  protocol_router_.broadcast(p);
  // Our own PREPARE is our commit vote.
  accept_slot(p.view, std::move(p.cmds), p.ui);
  try_execute();
}

bool MinBftReplica::accept_slot(ViewNum view, std::vector<Command> cmds,
                                const trusted::UniqueIdentifier& primary_ui) {
  if (view != view_ || in_view_change_) return false;
  if (next_exec_ == 0) next_exec_ = primary_ui.counter;
  ReplicaCore::Slot* open = open_slot(primary_ui.counter);
  if (open == nullptr) return false;  // before this view's window, or done
  Slot& slot = static_cast<Slot&>(*open);
  // USIG uniqueness: a second, different batch under the same counter
  // cannot verify; matching content just merges.
  if (!slot.cmds.empty()) return slot.cmds == cmds;
  slot.primary_ui = primary_ui;
  slot.committers.insert(primary_of(view_));
  accept(primary_ui.counter, slot, std::move(cmds));
  return true;
}

void MinBftReplica::sequenced(ProcessId sender, SeqNum counter,
                              std::function<void()> action) {
  SeqNum& high = ui_high_[sender];
  if (counter <= high) {
    action();  // already due; handlers are idempotent
    return;
  }
  if (counter > high + 1) {
    ui_waiting_[sender][counter].push_back(std::move(action));
    return;
  }
  high = counter;
  action();
  drain_ui(sender);  // the gap closure may have unblocked buffered actions
}

void MinBftReplica::drain_ui(ProcessId sender) {
  auto& waiting = ui_waiting_[sender];
  while (!waiting.empty()) {
    SeqNum& high = ui_high_[sender];  // re-fetch: actions can move it
    auto it = waiting.begin();
    if (it->first > high + 1) return;
    if (it->first == high + 1) high = it->first;
    std::vector<std::function<void()>> actions = std::move(it->second);
    waiting.erase(it);
    for (auto& fn : actions) fn();
  }
}

void MinBftReplica::raise_ui_high(ProcessId sender, SeqNum to) {
  SeqNum& high = ui_high_[sender];
  if (to > high) high = to;
  drain_ui(sender);
}

void MinBftReplica::adopt_streams(const std::map<ProcessId, SeqNum>& high) {
  // Our own stream position is ours alone: a peer's record of it (or an
  // image older than the RECOVER we are about to burn) must not move it.
  for (const auto& [p, h] : high)
    if (p != id()) raise_ui_high(p, h);
}

void MinBftReplica::handle_prepare(ProcessId from, Prepare p) {
  if (from == id()) return;
  if (p.cmds.empty()) return;  // an attested empty batch orders nothing
  // UI validity is checked at arrival (a forged UI must not advance the
  // sender's stream); all protocol-state checks wait until the counter is
  // due, so that semantically stale-but-genuine UIs still advance it.
  if (!usigs_.verify(from, p.ui, prepare_binding(p.view, p.cmds))) return;
  // Shared, not copied, into the deferred actions: a batch may be large.
  auto msg = std::make_shared<const Prepare>(std::move(p));
  sequenced(from, msg->ui.counter, [this, from, msg]() {
    when_in_view(msg->view, [this, from, msg]() {
      if (from != primary_of(view_)) return;
      if (!accept_slot(msg->view, msg->cmds, msg->ui)) return;
      maybe_send_own_commit(msg->ui.counter);
      for (const Command& cmd : msg->cmds) guard(cmd);
      try_execute();
    });
  });
}

void MinBftReplica::handle_commit(ProcessId from, Commit c) {
  if (from == id()) return;
  if (c.cmds.empty()) return;
  const ProcessId prepare_author = primary_of(c.view);
  // A COMMIT carries two attestations (the embedded PREPARE's and the
  // sender's); check them as one batch so their hashing shares the
  // multi-buffer lanes.
  const Bytes prepare_bind = prepare_binding(c.view, c.cmds);
  const Bytes commit_bind =
      commit_binding(c.view, c.primary_ui.counter, c.cmds);
  UsigVerifyJob vj[2] = {
      {prepare_author, &c.primary_ui, &prepare_bind, false},
      {from, &c.replica_ui, &commit_bind, false},
  };
  usigs_.verify_batch(vj, 2);
  world().wire_stats().note_verify_batch(kMinBftCh, 2);
  if (!vj[0].ok || !vj[1].ok) return;
  // Double sequencing: the commit is ordered in the sender's UI stream,
  // and the embedded PREPARE in the primary's.
  auto msg = std::make_shared<const Commit>(std::move(c));
  sequenced(from, msg->replica_ui.counter, [this, from, msg, prepare_author]() {
    sequenced(prepare_author, msg->primary_ui.counter, [this, from, msg]() {
      when_in_view(msg->view, [this, from, msg]() {
        if (from == primary_of(view_)) return;  // its vote is its PREPARE
        // A COMMIT carries the full PREPARE, so it can open the slot (and
        // prompt our own vote) even if the PREPARE itself never reached us.
        if (!accept_slot(msg->view, msg->cmds, msg->primary_ui)) return;
        slot_at(msg->primary_ui.counter).committers.insert(from);
        maybe_send_own_commit(msg->primary_ui.counter);
        try_execute();
      });
    });
  });
}

void MinBftReplica::maybe_send_own_commit(SeqNum primary_counter) {
  if (is_primary()) return;
  Slot& slot = slot_at(primary_counter);
  if (!slot.committers.insert(id()).second) return;
  Commit c;
  c.view = view_;
  c.cmds = slot.cmds;
  c.primary_ui = slot.primary_ui;
  c.replica_ui =
      usigs_.create_ui(id(), commit_binding(view_, primary_counter, c.cmds));
  ui_high_[id()] = c.replica_ui.counter;  // see propose()
  protocol_router_.broadcast(c);
}

// ---- crash recovery (DESIGN.md §9) ----------------------------------------------

void MinBftReplica::on_recover(sim::DurableStore& durable) {
  ui_high_.clear();
  ui_waiting_.clear();
  reload(durable);

  // Burn one fresh UI to announce where our stream resumes. Counters we
  // consumed before the crash but never delivered would otherwise leave a
  // permanent gap in every peer's sequential-UI tracking; the attested
  // counter lets them skip it. (With a *volatile* trusted counter this UI
  // reuses old values — the announcement raises nothing at peers, our
  // stale counters collide with already-processed ones, and equivocation
  // becomes possible: the negative experiment in the recovery sweeps.)
  Recover rc;
  rc.ui = usigs_.create_ui(id(), recover_binding());
  ui_high_[id()] = rc.ui.counter;
  protocol_router_.broadcast(rc);

  // Catch up past the image: peers may have executed (and pruned) far
  // beyond our last durable checkpoint.
  begin_state_sync();
}

void MinBftReplica::handle_recover(ProcessId from, Recover rc) {
  if (from == id()) return;
  if (!usigs_.verify(from, rc.ui, recover_binding())) return;
  raise_ui_high(from, rc.ui.counter);
}

}  // namespace unidir::agreement
