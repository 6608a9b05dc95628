#include "agreement/minbft.h"

#include <algorithm>
#include <tuple>

#include "common/check.h"

namespace unidir::agreement {

namespace {

Bytes prepare_binding(ViewNum view, const Command& cmd) {
  serde::Writer w;
  w.str("minbft-prep");
  w.uvarint(view);
  cmd.encode(w);
  return w.take();
}

Bytes commit_binding(ViewNum view, SeqNum primary_counter,
                     const Command& cmd) {
  serde::Writer w;
  w.str("minbft-comm");
  w.uvarint(view);
  w.uvarint(primary_counter);
  cmd.encode(w);
  return w.take();
}

/// Digest of the whole batch: what one UI attests to in batched mode.
/// Hashing the serialized command vector (length included) makes batch
/// boundaries part of the attestation — a batch cannot be split or merged
/// without invalidating the UI.
Bytes batch_digest(const std::vector<Command>& cmds) {
  serde::Writer w;
  serde::write(w, cmds);
  return crypto::digest_bytes(crypto::Sha256::hash(w.take()));
}

Bytes batch_prepare_binding(ViewNum view, const std::vector<Command>& cmds) {
  serde::Writer w;
  w.str("minbft-bprep");
  w.uvarint(view);
  w.bytes(batch_digest(cmds));
  return w.take();
}

Bytes batch_commit_binding(ViewNum view, SeqNum primary_counter,
                           const std::vector<Command>& cmds) {
  serde::Writer w;
  w.str("minbft-bcomm");
  w.uvarint(view);
  w.uvarint(primary_counter);
  w.bytes(batch_digest(cmds));
  return w.take();
}

Bytes checkpoint_binding(std::uint64_t executed, const Bytes& digest) {
  serde::Writer w;
  w.str("minbft-cp");
  w.uvarint(executed);
  w.bytes(digest);
  return w.take();
}

using VcEntry = MinBftVcEntry;

Bytes view_change_binding(ViewNum target, std::uint64_t stable,
                          const std::vector<VcEntry>& entries,
                          const std::vector<Command>& pending) {
  serde::Writer w;
  w.str("minbft-vc");
  w.uvarint(target);
  w.uvarint(stable);
  serde::write(w, entries);
  serde::write(w, pending);
  return w.take();
}

Bytes recover_binding() {
  serde::Writer w;
  w.str("minbft-recover");
  return w.take();
}

constexpr std::string_view kDurableKey = "minbft/state";
constexpr unsigned kMaxStateAttempts = 4;

/// Everything a replica writes to its DurableStore: the recovery image.
struct DurableImage {
  ViewNum view = 0;
  SeqNum view_base = 0;
  SeqNum next_exec = 0;
  std::map<ProcessId, SeqNum> ui_high;
  std::uint64_t stable = 0;
  std::uint64_t exec_floor = 0;
  ExecutionLog log;
  Bytes machine_snapshot;
  ExecutionDeduper dedup;

  void encode(serde::Writer& w) const {
    w.uvarint(view);
    w.uvarint(view_base);
    w.uvarint(next_exec);
    serde::write(w, ui_high);
    w.uvarint(stable);
    w.uvarint(exec_floor);
    log.encode(w);
    w.bytes(machine_snapshot);
    dedup.encode(w);
  }
  static DurableImage decode(serde::Reader& r) {
    DurableImage img;
    img.view = r.uvarint();
    img.view_base = r.uvarint();
    img.next_exec = r.uvarint();
    img.ui_high = serde::read<std::map<ProcessId, SeqNum>>(r);
    img.stable = r.uvarint();
    img.exec_floor = r.uvarint();
    img.log = ExecutionLog::decode(r);
    img.machine_snapshot = r.bytes();
    img.dedup = ExecutionDeduper::decode(r);
    return img;
  }
};

}  // namespace

namespace minbft_wire {

struct Prepare {
  static constexpr wire::MsgDesc kDesc{1, "minbft-prepare"};

  ViewNum view = 0;
  Command cmd;
  trusted::UniqueIdentifier ui;

  void encode(serde::Writer& w) const {
    w.uvarint(view);
    cmd.encode(w);
    ui.encode(w);
  }
  static Prepare decode(serde::Reader& r) {
    Prepare p;
    p.view = r.uvarint();
    p.cmd = Command::decode(r);
    p.ui = trusted::UniqueIdentifier::decode(r);
    return p;
  }
};

struct Commit {
  static constexpr wire::MsgDesc kDesc{2, "minbft-commit"};

  ViewNum view = 0;
  Command cmd;
  trusted::UniqueIdentifier primary_ui;
  trusted::UniqueIdentifier replica_ui;

  void encode(serde::Writer& w) const {
    w.uvarint(view);
    cmd.encode(w);
    primary_ui.encode(w);
    replica_ui.encode(w);
  }
  static Commit decode(serde::Reader& r) {
    Commit c;
    c.view = r.uvarint();
    c.cmd = Command::decode(r);
    c.primary_ui = trusted::UniqueIdentifier::decode(r);
    c.replica_ui = trusted::UniqueIdentifier::decode(r);
    return c;
  }
};

struct Checkpoint {
  static constexpr wire::MsgDesc kDesc{3, "minbft-checkpoint"};

  std::uint64_t executed = 0;
  Bytes digest;
  crypto::Signature sig;

  void encode(serde::Writer& w) const {
    w.uvarint(executed);
    w.bytes(digest);
    sig.encode(w);
  }
  static Checkpoint decode(serde::Reader& r) {
    Checkpoint c;
    c.executed = r.uvarint();
    c.digest = r.bytes();
    c.sig = crypto::Signature::decode(r);
    return c;
  }
};

struct ViewChange {
  static constexpr wire::MsgDesc kDesc{4, "minbft-view-change"};

  ViewNum target = 0;
  std::uint64_t stable = 0;        // reporter's stable checkpoint
  std::vector<VcEntry> entries;    // accepted slots, with order info
  std::vector<Command> pending;    // buffered requests never slotted
  crypto::Signature sig;

  void encode(serde::Writer& w) const {
    w.uvarint(target);
    w.uvarint(stable);
    serde::write(w, entries);
    serde::write(w, pending);
    sig.encode(w);
  }
  static ViewChange decode(serde::Reader& r) {
    ViewChange v;
    v.target = r.uvarint();
    v.stable = r.uvarint();
    v.entries = serde::read<std::vector<VcEntry>>(r);
    v.pending = serde::read<std::vector<Command>>(r);
    v.sig = crypto::Signature::decode(r);
    return v;
  }
};

struct NewView {
  static constexpr wire::MsgDesc kDesc{5, "minbft-new-view"};

  ViewNum target = 0;
  std::uint64_t executed = 0;  // the new primary's execution count
  crypto::Signature sig;       // over ("minbft-nv", target, executed)

  static Bytes binding(ViewNum target, std::uint64_t executed) {
    serde::Writer w;
    w.str("minbft-nv");
    w.uvarint(target);
    w.uvarint(executed);
    return w.take();
  }

  void encode(serde::Writer& w) const {
    w.uvarint(target);
    w.uvarint(executed);
    sig.encode(w);
  }
  static NewView decode(serde::Reader& r) {
    NewView v;
    v.target = r.uvarint();
    v.executed = r.uvarint();
    v.sig = crypto::Signature::decode(r);
    return v;
  }
};

struct StateRequest {
  static constexpr wire::MsgDesc kDesc{6, "minbft-state-request"};

  std::uint64_t have = 0;  // requester's execution count

  void encode(serde::Writer& w) const { w.uvarint(have); }
  static StateRequest decode(serde::Reader& r) {
    StateRequest req;
    req.have = r.uvarint();
    return req;
  }
};

struct StateReply {
  static constexpr wire::MsgDesc kDesc{7, "minbft-state-reply"};

  ViewNum view = 0;
  SeqNum view_base = 0;
  SeqNum next_exec = 0;
  std::map<ProcessId, SeqNum> ui_high;
  std::uint64_t stable = 0;
  std::uint64_t exec_floor = 0;
  StateBundle core;
  crypto::Signature sig;  // over ("minbft-state", body)

  void encode_body(serde::Writer& w) const {
    w.uvarint(view);
    w.uvarint(view_base);
    w.uvarint(next_exec);
    serde::write(w, ui_high);
    w.uvarint(stable);
    w.uvarint(exec_floor);
    core.encode(w);
  }
  Bytes binding() const {
    serde::Writer w;
    w.str("minbft-state");
    encode_body(w);
    return w.take();
  }

  void encode(serde::Writer& w) const {
    encode_body(w);
    sig.encode(w);
  }
  static StateReply decode(serde::Reader& r) {
    StateReply rep;
    rep.view = r.uvarint();
    rep.view_base = r.uvarint();
    rep.next_exec = r.uvarint();
    rep.ui_high = serde::read<std::map<ProcessId, SeqNum>>(r);
    rep.stable = r.uvarint();
    rep.exec_floor = r.uvarint();
    rep.core = StateBundle::decode(r);
    rep.sig = crypto::Signature::decode(r);
    return rep;
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

/// Batched-mode PREPARE: one UI attests the digest of the whole command
/// vector, amortizing the trusted-counter step across the batch (the
/// paper's per-attestation cost argument; dsnet's MinBFT does the same).
struct BatchPrepare {
  static constexpr wire::MsgDesc kDesc{9, "minbft-batch-prepare"};

  ViewNum view = 0;
  std::vector<Command> cmds;
  trusted::UniqueIdentifier ui;

  void encode(serde::Writer& w) const {
    w.uvarint(view);
    serde::write(w, cmds);
    ui.encode(w);
  }
  static BatchPrepare decode(serde::Reader& r) {
    BatchPrepare p;
    p.view = r.uvarint();
    p.cmds = serde::read<std::vector<Command>>(r);
    p.ui = trusted::UniqueIdentifier::decode(r);
    return p;
  }
};

/// Batched-mode COMMIT. Like the singleton COMMIT it carries the full
/// PREPARE content, so it can open the slot at replicas the BATCH-PREPARE
/// never reached.
struct BatchCommit {
  static constexpr wire::MsgDesc kDesc{10, "minbft-batch-commit"};

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
  static BatchCommit decode(serde::Reader& r) {
    BatchCommit c;
    c.view = r.uvarint();
    c.cmds = serde::read<std::vector<Command>>(r);
    c.primary_ui = trusted::UniqueIdentifier::decode(r);
    c.replica_ui = trusted::UniqueIdentifier::decode(r);
    return c;
  }
};

}  // namespace minbft_wire

using namespace minbft_wire;

void MinBftVcEntry::encode(serde::Writer& w) const {
  w.uvarint(view);
  w.uvarint(counter);
  cmd.encode(w);
}

MinBftVcEntry MinBftVcEntry::decode(serde::Reader& r) {
  MinBftVcEntry e;
  e.view = r.uvarint();
  e.counter = r.uvarint();
  e.cmd = Command::decode(r);
  return e;
}

Bytes MinBftReplica::encode_prepare_for_test(UsigDirectory& usigs,
                                             ProcessId as, ViewNum view,
                                             const Command& cmd) {
  Prepare p;
  p.view = view;
  p.cmd = cmd;
  p.ui = usigs.create_ui(as, prepare_binding(view, cmd));
  return wire::encode_tagged(p);
}

Bytes MinBftReplica::encode_batch_prepare_for_test(
    UsigDirectory& usigs, ProcessId as, ViewNum view,
    const std::vector<Command>& cmds) {
  BatchPrepare p;
  p.view = view;
  p.cmds = cmds;
  p.ui = usigs.create_ui(as, batch_prepare_binding(view, cmds));
  return wire::encode_tagged(p);
}

MinBftReplica::MinBftReplica(Options options, UsigDirectory& usigs,
                             std::unique_ptr<StateMachine> machine)
    : options_(std::move(options)),
      usigs_(usigs),
      machine_(std::move(machine)),
      request_router_(*this, kClientRequestCh),
      protocol_router_(*this, kMinBftCh) {
  UNIDIR_REQUIRE(machine_ != nullptr);
  UNIDIR_REQUIRE_MSG(options_.replicas.size() >= 2 * options_.f + 1,
                     "MinBFT requires n >= 2f+1");
  if (options_.commit_quorum == 0) options_.commit_quorum = options_.f + 1;
  UNIDIR_REQUIRE_MSG(options_.commit_quorum >= options_.f + 1 &&
                         options_.commit_quorum <= options_.replicas.size(),
                     "commit quorum must be in [f+1, n]");
  request_router_.on<Command>([this](ProcessId from, Command cmd) {
    on_request(from, std::move(cmd));
  });
  protocol_router_.set_peer_filter(
      [this](ProcessId p) { return is_replica(p); });
  protocol_router_.on<Prepare>([this](ProcessId from, Prepare p) {
    handle_prepare(from, std::move(p));
  });
  protocol_router_.on<Commit>([this](ProcessId from, Commit c) {
    handle_commit(from, std::move(c));
  });
  protocol_router_.on<Checkpoint>([this](ProcessId from, Checkpoint cp) {
    handle_checkpoint(from, std::move(cp));
  });
  protocol_router_.on<ViewChange>([this](ProcessId from, ViewChange vc) {
    handle_view_change(from, std::move(vc));
  });
  protocol_router_.on<NewView>([this](ProcessId from, NewView nv) {
    handle_new_view(from, std::move(nv));
  });
  protocol_router_.on<StateRequest>([this](ProcessId from, StateRequest req) {
    handle_state_request(from, std::move(req));
  });
  protocol_router_.on<StateReply>([this](ProcessId from, StateReply rep) {
    handle_state_reply(from, std::move(rep));
  });
  protocol_router_.on<Recover>([this](ProcessId from, Recover rc) {
    handle_recover(from, std::move(rc));
  });
  protocol_router_.on<BatchPrepare>([this](ProcessId from, BatchPrepare p) {
    handle_batch_prepare(from, std::move(p));
  });
  protocol_router_.on<BatchCommit>([this](ProcessId from, BatchCommit c) {
    handle_batch_commit(from, std::move(c));
  });
  initial_snapshot_ = machine_->snapshot();
}

void MinBftReplica::on_start() {
  UNIDIR_CHECK_MSG(is_replica(id()),
                   "replica id must appear in Options::replicas");
}

bool MinBftReplica::is_replica(ProcessId p) const {
  return std::find(options_.replicas.begin(), options_.replicas.end(), p) !=
         options_.replicas.end();
}

// ---- client requests ----------------------------------------------------------

void MinBftReplica::on_request(ProcessId from, Command cmd) {
  if (cmd.client != from) return;  // clients speak only for themselves

  if (const auto cached = dedup_.lookup(cmd)) {
    reply_to(cmd, *cached);
    return;
  }
  if (dedup_.below_floor(cmd)) return;  // acknowledged: settled for good
  const bool fresh = pending_.emplace(cmd.key(), cmd).second;
  if (fresh) arm_request_timer(cmd);
  if (!in_view_change_ && is_primary()) {
    if (batched()) {
      enqueue_batch(cmd);
      maybe_flush_batch();
    } else {
      propose(cmd);
    }
  }
}

void MinBftReplica::propose(const Command& cmd) {
  // A command may only occupy one open slot per view.
  if (slotted_keys_.contains(cmd.key())) return;

  Prepare p;
  p.view = view_;
  p.cmd = cmd;
  p.ui = usigs_.create_ui(id(), prepare_binding(view_, cmd));
  // Our own UI consumption advances our own stream: messages from peers
  // embedding this UI must not wait for us to "receive" it.
  ui_high_[id()] = p.ui.counter;
  protocol_router_.broadcast(p);
  // Our own PREPARE is our commit vote.
  accept_slot(p.view, {p.cmd}, p.ui);
  try_execute();
}

void MinBftReplica::enqueue_batch(const Command& cmd) {
  // Admission, not dedup-against-execution: view-change re-proposals must
  // re-batch even already-executed commands (see maybe_assume_primacy).
  if (slotted_keys_.contains(cmd.key())) return;
  if (!queued_keys_.insert(cmd.key()).second) return;
  batch_queue_.push_back(cmd);
}

std::size_t MinBftReplica::inflight_slots() const {
  if (next_exec_counter_ == 0) return slots_.size();
  return static_cast<std::size_t>(std::distance(
      slots_.lower_bound(next_exec_counter_), slots_.end()));
}

void MinBftReplica::maybe_flush_batch() {
  if (!batched() || batch_flushing_) return;
  if (in_view_change_ || !is_primary()) return;
  batch_flushing_ = true;
  while (!batch_queue_.empty() &&
         inflight_slots() < options_.pipeline_depth &&
         (batch_queue_.size() >= options_.batch_size ||
          options_.batch_timeout == 0 || batch_ripe_)) {
    std::vector<Command> cmds;
    const std::size_t take =
        std::min<std::size_t>(options_.batch_size, batch_queue_.size());
    cmds.reserve(take);
    for (std::size_t i = 0; i < take; ++i) {
      queued_keys_.erase(batch_queue_.front().key());
      cmds.push_back(std::move(batch_queue_.front()));
      batch_queue_.pop_front();
    }
    propose_batch(std::move(cmds));
  }
  batch_flushing_ = false;
  if (batch_queue_.empty()) {
    batch_ripe_ = false;
    return;
  }
  // A partial batch waits for batch_timeout before going out underfull;
  // once ripe it (and anything queued behind a full pipeline) flushes at
  // the next opportunity.
  if (!batch_ripe_ && !batch_timer_armed_) {
    batch_timer_armed_ = true;
    set_timer(options_.batch_timeout, [this] {
      batch_timer_armed_ = false;
      if (batch_queue_.empty()) return;
      batch_ripe_ = true;
      maybe_flush_batch();
    });
  }
}

void MinBftReplica::propose_batch(std::vector<Command> cmds) {
  BatchPrepare p;
  p.view = view_;
  p.cmds = std::move(cmds);
  p.ui = usigs_.create_ui(id(), batch_prepare_binding(view_, p.cmds));
  ui_high_[id()] = p.ui.counter;  // see propose()
  protocol_router_.broadcast(p);
  // As in the singleton path, the primary's BATCH-PREPARE is its vote.
  accept_slot(p.view, p.cmds, p.ui);
  try_execute();
}

// ---- protocol messages ----------------------------------------------------------

bool MinBftReplica::accept_slot(ViewNum view,
                                const std::vector<Command>& cmds,
                                const trusted::UniqueIdentifier& primary_ui) {
  if (view != view_ || in_view_change_) return false;
  auto it = slots_.find(primary_ui.counter);
  if (it != slots_.end()) {
    // USIG uniqueness: a second, different batch under the same counter
    // cannot verify; matching content just merges.
    return it->second.cmds == cmds;
  }
  if (view_base_counter_ == 0) {
    view_base_counter_ = primary_ui.counter;
    next_exec_counter_ = primary_ui.counter;
  } else if (primary_ui.counter < next_exec_counter_) {
    return false;  // before this view's window, or executed and dropped
  }
  Slot slot;
  slot.cmds = cmds;
  slot.primary_ui = primary_ui;
  slot.committers.insert(primary_of(view_));
  slot.accepted_at = world().now();
  slots_.emplace(primary_ui.counter, std::move(slot));
  // One archive entry per command: batch members share (view, counter) in
  // batch order, so a new primary can rebuild proposal order command by
  // command even if it only ever saw parts of the history.
  for (const Command& cmd : cmds) {
    vc_archive_.put({view, primary_ui.counter, cmd});
    slotted_keys_.insert(cmd.key());
  }
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

void MinBftReplica::handle_prepare(ProcessId from, Prepare p) {
  if (from == id()) return;
  // UI validity is checked at arrival (a forged UI must not advance the
  // sender's stream); all protocol-state checks wait until the counter is
  // due, so that semantically stale-but-genuine UIs still advance it.
  if (!usigs_.verify(from, p.ui, prepare_binding(p.view, p.cmd))) return;
  sequenced(from, p.ui.counter, [this, from, p]() {
    when_in_view(p.view, [this, from, p]() {
      if (from != primary_of(view_)) return;
      if (!accept_slot(p.view, {p.cmd}, p.ui)) return;
      maybe_send_own_commit(p.ui.counter);
      // The request is now in flight under this view; make sure a timer
      // guards it even if the client's REQUEST never reached us directly.
      if (!dedup_.settled(p.cmd) &&
          pending_.emplace(p.cmd.key(), p.cmd).second)
        arm_request_timer(p.cmd);
      try_execute();
    });
  });
}

void MinBftReplica::handle_commit(ProcessId from, Commit c) {
  if (from == id()) return;
  const ProcessId prepare_author = primary_of(c.view);
  // A COMMIT carries two attestations (the embedded PREPARE's and the
  // sender's); check them as one batch so their hashing shares the
  // multi-buffer lanes. Unlike the old early-return pair, both UIs are
  // always checked — same verdicts, one round trip through the backend.
  const Bytes prepare_bind = prepare_binding(c.view, c.cmd);
  const Bytes commit_bind =
      commit_binding(c.view, c.primary_ui.counter, c.cmd);
  UsigVerifyJob vj[2] = {
      {prepare_author, &c.primary_ui, &prepare_bind, false},
      {from, &c.replica_ui, &commit_bind, false},
  };
  usigs_.verify_batch(vj, 2);
  world().wire_stats().note_verify_batch(kMinBftCh, 2);
  if (!vj[0].ok || !vj[1].ok) return;
  // Double sequencing: the commit is ordered in the sender's UI stream,
  // and the embedded PREPARE in the primary's.
  sequenced(from, c.replica_ui.counter, [this, from, c, prepare_author]() {
    sequenced(prepare_author, c.primary_ui.counter, [this, from, c]() {
      when_in_view(c.view, [this, from, c]() {
        if (from == primary_of(view_)) return;  // its vote is its PREPARE
        // A COMMIT carries the full PREPARE, so it can open the slot (and
        // prompt our own vote) even if the PREPARE itself never reached us.
        if (!accept_slot(c.view, {c.cmd}, c.primary_ui)) return;
        slots_.at(c.primary_ui.counter).committers.insert(from);
        maybe_send_own_commit(c.primary_ui.counter);
        try_execute();
      });
    });
  });
}

void MinBftReplica::handle_batch_prepare(ProcessId from, BatchPrepare p) {
  if (from == id()) return;
  if (p.cmds.empty()) return;  // an attested empty batch orders nothing
  if (!usigs_.verify(from, p.ui, batch_prepare_binding(p.view, p.cmds)))
    return;
  sequenced(from, p.ui.counter, [this, from, p]() {
    when_in_view(p.view, [this, from, p]() {
      if (from != primary_of(view_)) return;
      if (!accept_slot(p.view, p.cmds, p.ui)) return;
      maybe_send_own_commit(p.ui.counter);
      // Guard every batch member with a timer, as the singleton path does
      // for its one command (see handle_prepare).
      for (const Command& cmd : p.cmds)
        if (!dedup_.settled(cmd) && pending_.emplace(cmd.key(), cmd).second)
          arm_request_timer(cmd);
      try_execute();
    });
  });
}

void MinBftReplica::handle_batch_commit(ProcessId from, BatchCommit c) {
  if (from == id()) return;
  if (c.cmds.empty()) return;
  const ProcessId prepare_author = primary_of(c.view);
  // Both attestations as one batch, as in handle_commit.
  const Bytes prepare_bind = batch_prepare_binding(c.view, c.cmds);
  const Bytes commit_bind =
      batch_commit_binding(c.view, c.primary_ui.counter, c.cmds);
  UsigVerifyJob vj[2] = {
      {prepare_author, &c.primary_ui, &prepare_bind, false},
      {from, &c.replica_ui, &commit_bind, false},
  };
  usigs_.verify_batch(vj, 2);
  world().wire_stats().note_verify_batch(kMinBftCh, 2);
  if (!vj[0].ok || !vj[1].ok) return;
  sequenced(from, c.replica_ui.counter, [this, from, c, prepare_author]() {
    sequenced(prepare_author, c.primary_ui.counter, [this, from, c]() {
      when_in_view(c.view, [this, from, c]() {
        if (from == primary_of(view_)) return;  // its vote is its PREPARE
        if (!accept_slot(c.view, c.cmds, c.primary_ui)) return;
        slots_.at(c.primary_ui.counter).committers.insert(from);
        maybe_send_own_commit(c.primary_ui.counter);
        try_execute();
      });
    });
  });
}

void MinBftReplica::when_in_view(ViewNum view, std::function<void()> action) {
  if (view < view_) return;  // stale
  if (view == view_ && !in_view_change_) {
    action();
    return;
  }
  view_waiting_[view].push_back(std::move(action));
}

void MinBftReplica::maybe_send_own_commit(SeqNum primary_counter) {
  if (is_primary()) return;
  Slot& slot = slots_.at(primary_counter);
  if (!slot.committers.insert(id()).second) return;
  if (batched()) {
    BatchCommit c;
    c.view = view_;
    c.cmds = slot.cmds;
    c.primary_ui = slot.primary_ui;
    c.replica_ui = usigs_.create_ui(
        id(), batch_commit_binding(view_, primary_counter, slot.cmds));
    ui_high_[id()] = c.replica_ui.counter;  // see propose()
    protocol_router_.broadcast(c);
    return;
  }
  Commit c;
  c.view = view_;
  c.cmd = slot.cmds.front();
  c.primary_ui = slot.primary_ui;
  c.replica_ui = usigs_.create_ui(
      id(), commit_binding(view_, primary_counter, slot.cmds.front()));
  ui_high_[id()] = c.replica_ui.counter;  // see propose()
  protocol_router_.broadcast(c);
}

void MinBftReplica::try_execute() {
  while (next_exec_counter_ != 0) {
    auto it = slots_.find(next_exec_counter_);
    if (it == slots_.end()) break;
    Slot& slot = it->second;
    if (slot.executed) {
      ++next_exec_counter_;
      continue;
    }
    if (slot.committers.size() < options_.commit_quorum) break;
    // Below a NEW-VIEW's execution floor, a fresh command would land at
    // the wrong log index; wait for state transfer. Settled commands
    // never append, so they stay allowed (and keep clients served). A
    // batch executes only once *every* member is settled or executable.
    if (log_.size() < exec_floor_) {
      const bool all_settled =
          std::all_of(slot.cmds.begin(), slot.cmds.end(),
                      [this](const Command& cmd) {
                        return dedup_.settled(cmd);
                      });
      if (!all_settled) break;
    }
    // Advance the cursor before executing: execute() may hit a checkpoint
    // boundary and persist(), and the durable image must record the
    // *post*-execution cursor. An image saying "log holds k entries, next
    // slot to execute = the one producing entry k" re-executes that
    // counter after recovery — harmless stall with durable devices, but a
    // self-inflicted equivocation slot once counters are volatile.
    ++next_exec_counter_;
    execute(slot);
  }
  // Slots behind the cursor are done: accept_slot refuses their counters
  // from now on, so nothing re-opens them.
  while (!slots_.empty() && slots_.begin()->first < next_exec_counter_) {
    for (const Command& cmd : slots_.begin()->second.cmds)
      slotted_keys_.erase(cmd.key());
    slots_.erase(slots_.begin());
  }
  // Executions free pipeline room; admit whatever is queued behind it.
  if (batched()) maybe_flush_batch();
}

void MinBftReplica::execute(Slot& slot) {
  slot.executed = true;
  if (batched()) {
    // Atomicity witness for the explorer: which requests this slot
    // committed as one batch, in execution order (see the batch-atomicity
    // invariant). Only emitted in batched mode, so unbatched transcripts —
    // and hence fingerprints — are unchanged.
    serde::Writer w;
    w.uvarint(view_);
    w.uvarint(slot.primary_ui.counter);
    w.uvarint(slot.cmds.size());
    for (const Command& cmd : slot.cmds) {
      w.uvarint(cmd.client);
      w.uvarint(cmd.request_id);
    }
    output("smr-batch", w.take());
  }
  for (const Command& cmd : slot.cmds) {
    Bytes result;
    if (const auto cached = dedup_.lookup(cmd)) {
      // Exactly-once: re-proposed after a view change, or a retry that
      // landed in a later batch than its first commit.
      result = *cached;
    } else if (dedup_.below_floor(cmd)) {
      continue;  // its client acknowledged it: neither run nor answered
    } else {
      result = machine_->apply(cmd.op);
      record_execution(cmd, result);
      const Time latency = world().now() - slot.accepted_at;
      world().metrics().histogram("smr.commit_latency_ticks").record(latency);
      world().tracer().complete("commit", "smr", id(), slot.accepted_at,
                                latency, "counter", slot.primary_ui.counter);
      output("smr-exec", serde::encode(cmd));
      maybe_checkpoint();
    }
    pending_.erase(cmd.key());
    reply_to(cmd, result);
  }
}

void MinBftReplica::record_execution(const Command& cmd, const Bytes& result) {
  dedup_.record(cmd, result);
  log_.append({cmd, result});
  // The floor may have passed requests the client gave up on; they are
  // settled now, so stop guarding them.
  const auto first = pending_.lower_bound({cmd.client, 0});
  pending_.erase(first,
                 pending_.lower_bound({cmd.client, dedup_.floor(cmd.client)}));
}

void MinBftReplica::reply_to(const Command& cmd, const Bytes& result) {
  Reply reply;
  reply.request_id = cmd.request_id;
  reply.result = result;
  wire::send(*this, cmd.client, kClientReplyCh, reply);
}

// ---- checkpoints ----------------------------------------------------------------

void MinBftReplica::maybe_checkpoint() {
  if (options_.checkpoint_interval == 0) return;
  if (log_.size() % options_.checkpoint_interval != 0) return;
  Checkpoint cp;
  cp.executed = log_.size();
  cp.digest = crypto::digest_bytes(machine_->digest());
  cp.sig = signer().sign(checkpoint_binding(cp.executed, cp.digest));
  protocol_router_.broadcast(cp);
  // A checkpoint boundary is also the durability boundary: crash recovery
  // resumes from the image written here (see DESIGN.md §9).
  persist();
  note_checkpoint_vote(cp.executed, cp.digest, id());
}

void MinBftReplica::handle_checkpoint(ProcessId from, Checkpoint cp) {
  if (cp.sig.key != world().key_of(from)) return;
  if (!world().keys().verify(cp.sig,
                             checkpoint_binding(cp.executed, cp.digest)))
    return;
  note_checkpoint_vote(cp.executed, cp.digest, from);
}

void MinBftReplica::note_checkpoint_vote(std::uint64_t executed,
                                         const Bytes& digest,
                                         ProcessId voter) {
  if (executed <= stable_checkpoint_) return;  // already stable
  auto& voters = cp_votes_[executed][digest];
  voters.insert(voter);
  if (voters.size() < options_.f + 1) return;
  stable_checkpoint_ = executed;
  world().metrics()
      .histogram("smr.checkpoint_gap_ticks")
      .record(world().now() - last_checkpoint_at_);
  last_checkpoint_at_ = world().now();
  world().tracer().instant("checkpoint-stable", "smr", id(), world().now(),
                           "executed", executed);
  prune_stable();
  persist();
}

void MinBftReplica::prune_stable() {
  cp_votes_.erase(cp_votes_.begin(),
                  cp_votes_.upper_bound(stable_checkpoint_));
  // The archive exists to realign peers during view changes; below the
  // stable checkpoint f+1 replicas hold the history durably, and laggards
  // are realigned by state transfer instead — so both the executed prefix
  // and the matching archive entries can go.
  const std::uint64_t upto =
      std::min<std::uint64_t>(stable_checkpoint_, log_.size());
  if (upto <= log_.base()) return;
  for (std::uint64_t k = log_.base(); k < upto; ++k)
    vc_archive_.erase(log_.at(k).command.key());
  log_.prune_to(upto);
}

// ---- view change ----------------------------------------------------------------

void MinBftReplica::arm_request_timer(const Command& cmd) {
  const auto key = cmd.key();
  const ViewNum armed_view = view_;
  set_timer(vc_timeout(), [this, key, armed_view] {
    if (!pending_.contains(key)) return;  // executed meanwhile
    if (in_view_change_) return;          // one attempt at a time
    // Still pending after a full timeout in the same view: the primary is
    // not making progress for us.
    if (view_ == armed_view) start_view_change(view_ + 1);
  });
}

void MinBftReplica::start_view_change(ViewNum target) {
  if (target <= view_) return;
  if (!in_view_change_) {
    // Escalations re-enter here with the flag already set; the episode's
    // duration is measured from its first attempt.
    vc_started_at_ = world().now();
    world().tracer().instant("view-change-start", "smr", id(), world().now(),
                             "target", target);
  }
  in_view_change_ = true;
  vc_target_ = target;
  ++view_changes_;

  ViewChange vc;
  vc.target = target;
  vc.stable = stable_checkpoint_;
  // Report every accepted slot not yet settled by a stable checkpoint
  // (with its original order) plus any buffered client requests that never
  // made it into a slot.
  vc.entries = vc_archive_.entries();
  for (const auto& [key, cmd] : pending_) vc.pending.push_back(cmd);
  vc.sig = signer().sign(
      view_change_binding(target, vc.stable, vc.entries, vc.pending));
  protocol_router_.broadcast(vc);
  vc_msgs_[target][id()] = VcReport{vc.entries, vc.pending, vc.stable};
  maybe_assume_primacy(target);

  // If this attempt stalls, either escalate (when f+1 replicas agree the
  // view is broken — the next primary may be dead too) or abandon and
  // rejoin the current view (when we are alone: a spurious timeout, e.g.
  // pre-GST straggling, must not strand us outside a healthy view).
  // The attempt timer backs off with every consecutive failure: repeated
  // failed views mean the cluster needs longer to heal (restarting quorum,
  // partition epoch), and re-firing at a fixed period just burns messages.
  set_timer(vc_timeout(), [this, target] {
    if (!in_view_change_ || vc_target_ != target) return;
    ++vc_backoff_;
    if (vc_msgs_[target].size() >= options_.f + 1) {
      start_view_change(target + 1);
    } else {
      abandon_view_change();
    }
  });
}

void MinBftReplica::abandon_view_change() {
  in_view_change_ = false;
  world().metrics().add("smr.view_changes_abandoned");
  // Replay whatever the attempt made us buffer for the view we never left.
  auto it = view_waiting_.find(view_);
  if (it != view_waiting_.end()) {
    std::vector<std::function<void()>> actions = std::move(it->second);
    view_waiting_.erase(it);
    for (auto& fn : actions) fn();
  }
  // Anything still unserved gets a fresh clock (and hence a fresh chance
  // to demand a view change, now or under a later, supported attempt).
  for (const auto& [key, cmd] : pending_) arm_request_timer(cmd);
}

void MinBftReplica::handle_view_change(ProcessId from, ViewChange vc) {
  if (vc.target <= view_) return;
  if (vc.sig.key != world().key_of(from)) return;
  if (!world().keys().verify(
          vc.sig, view_change_binding(vc.target, vc.stable, vc.entries,
                                      vc.pending)))
    return;
  vc_msgs_[vc.target][from] =
      VcReport{std::move(vc.entries), std::move(vc.pending), vc.stable};

  // Join: f+1 replicas want a higher view, so at least one correct one
  // does; we follow even if our own timer has not fired.
  if (vc_msgs_[vc.target].size() >= options_.f + 1 &&
      (!in_view_change_ || vc_target_ < vc.target))
    start_view_change(vc.target);
  maybe_assume_primacy(vc.target);
}

void MinBftReplica::maybe_assume_primacy(ViewNum target) {
  if (primary_of(target) != id()) return;
  if (target <= view_) return;
  // Merge quorum: n - f reports (= f + 1 at MinBFT's native n = 2f + 1).
  // The count must intersect every commit quorum — commit_quorum + (n - f)
  // > n whenever commit_quorum > f — or a slot committed at a replica
  // outside the reports vanishes from the new view's re-proposals and the
  // logs fork. At n > 2f + 1 (the bench's n = 4, f = 1) f + 1 reports do
  // not intersect a commit quorum of f + 1; pipelined slots keep enough
  // proposals in flight at view-change time to hit that hole constantly.
  const std::size_t merge_quorum = std::max<std::size_t>(
      options_.f + 1, options_.replicas.size() - options_.f);
  auto it = vc_msgs_.find(target);
  if (it == vc_msgs_.end() || it->second.size() < merge_quorum) return;

  // Archives are pruned below stable checkpoints, so re-proposals can only
  // realign peers above the reported stable frontier. A primary still
  // below it (it just recovered, or simply lagged) must state-transfer up
  // to the frontier before taking over.
  std::uint64_t frontier = stable_checkpoint_;
  for (const auto& [reporter, report] : it->second)
    frontier = std::max(frontier, report.stable);
  if (log_.size() < frontier) {
    deferred_primacy_ = target;
    begin_state_sync();
    return;
  }
  deferred_primacy_.reset();

  // Announce and take over. The announced execution count becomes every
  // entering replica's execution floor (see exec_floor_).
  NewView nv;
  nv.target = target;
  nv.executed = log_.size();
  nv.sig = signer().sign(NewView::binding(target, nv.executed));
  protocol_router_.broadcast(nv);
  enter_view(target);

  // Re-propose in a consistent order: every reported slot, ranked by its
  // most RECENT reported (view, counter) — newest view first, counter
  // order within a view — then never-slotted requests in deterministic
  // key order. Exactly-once is preserved by per-client deduplication at
  // execution time.
  //
  // Why newest view first: the order must extend every correct replica's
  // execution order above the stable frontier. If some replica executed A
  // before B there, B's commit quorum intersects this merge quorum, so a
  // reporter accepted B's latest slot — and per-primary USIG sequencing
  // makes within-view accepts prefixes of the proposal stream, so that
  // reporter accepted A's slot in the same view too (agendas re-propose A
  // before B inductively). Hence A's newest reported view >= B's, and
  // ranking views downward never inverts an executed pair. Ascending
  // original (view, counter) — the obvious order — is WRONG: a stale slot
  // from an old view that never committed (so was never executed, never
  // pruned) sorts ahead of newer slots, and a replica that executed one of
  // those newer slots pre-view-change holds its command at an earlier log
  // position than peers replaying the agenda — divergent logs (found by
  // the batching sweep under pipelined view changes).
  //
  // Batch members share their slot's (view, counter); stable sort keeps
  // their first-reported (= batch) order.
  struct Ranked {
    ViewNum view;
    SeqNum counter;
    Command cmd;
  };
  std::map<std::pair<ProcessId, std::uint64_t>, std::size_t> index;
  std::vector<Ranked> ranked;
  std::map<std::pair<ProcessId, std::uint64_t>, Command> loose;
  for (const auto& [reporter, report] : it->second) {
    for (const VcEntry& e : report.entries) {
      auto [pos, fresh] = index.emplace(e.cmd.key(), ranked.size());
      if (fresh) {
        ranked.push_back({e.view, e.counter, e.cmd});
      } else {
        Ranked& r = ranked[pos->second];
        if (std::tie(e.view, e.counter) > std::tie(r.view, r.counter)) {
          r.view = e.view;
          r.counter = e.counter;
        }
      }
    }
    for (const Command& cmd : report.pending) loose.emplace(cmd.key(), cmd);
  }
  std::stable_sort(ranked.begin(), ranked.end(),
                   [](const Ranked& a, const Ranked& b) {
                     if (a.view != b.view) return a.view > b.view;
                     return a.counter < b.counter;
                   });
  std::set<std::pair<ProcessId, std::uint64_t>> seen;
  auto consider = [&](const Command& cmd) {
    if (!seen.insert(cmd.key()).second) return;
    // Re-propose even commands this replica has already executed: a
    // correct replica may enter this view having committed less than the
    // primary did (enter_view drops per-view slot progress), and only the
    // full archive in its original order realigns it. Skipping executed
    // commands would hand laggards a residual sequence whose positions
    // depend on the primary's own execution history — divergent logs
    // (found by the byte-mutation fuzz sweep). Exactly-once is preserved
    // by dedup at execution time.
    if (!dedup_.settled(cmd) && pending_.emplace(cmd.key(), cmd).second)
      arm_request_timer(cmd);
    if (batched())
      enqueue_batch(cmd);
    else
      propose(cmd);
  };
  for (const Ranked& r : ranked) consider(r.cmd);
  for (const auto& [key, cmd] : loose) consider(cmd);
  // Batched mode re-proposes through the same queue/flush machinery, so
  // re-proposals regroup into fresh batches under the new view's keys.
  if (batched()) maybe_flush_batch();
}

void MinBftReplica::handle_new_view(ProcessId from, NewView nv) {
  if (nv.target <= view_) return;
  if (from != primary_of(nv.target)) return;
  if (nv.sig.key != world().key_of(from)) return;
  if (!world().keys().verify(nv.sig,
                             NewView::binding(nv.target, nv.executed)))
    return;
  exec_floor_ = std::max(exec_floor_, nv.executed);
  enter_view(nv.target);
  // Pending requests restart their clocks under the new primary.
  for (const auto& [key, cmd] : pending_) arm_request_timer(cmd);
  // Below the floor the primary's re-proposals cannot realign us (they sit
  // above its stable checkpoint); fetch the missing prefix explicitly.
  if (log_.size() < exec_floor_) begin_state_sync();
}

void MinBftReplica::enter_view(ViewNum v) {
  if (in_view_change_) {
    const Time dur = world().now() - vc_started_at_;
    world().metrics().histogram("smr.view_change_ticks").record(dur);
    world().tracer().complete("view-change", "smr", id(), vc_started_at_, dur,
                              "view", v);
  }
  view_ = v;
  in_view_change_ = false;
  vc_backoff_ = 0;  // a view actually entered resets the failure streak
  slots_.clear();
  view_base_counter_ = 0;
  next_exec_counter_ = 0;
  // Per-view batching state dies with the view: queued commands stay in
  // pending_ (and in peers' view-change reports), so the new primary —
  // whoever it is — re-admits them.
  batch_queue_.clear();
  queued_keys_.clear();
  slotted_keys_.clear();
  batch_ripe_ = false;
  if (deferred_primacy_ && *deferred_primacy_ <= v) deferred_primacy_.reset();
  persist();  // view entry is a durability boundary (see DESIGN.md §9)
  // Replay protocol messages that arrived for this view before we entered
  // it, and drop anything for views that can no longer happen.
  auto stale_end = view_waiting_.lower_bound(v);
  view_waiting_.erase(view_waiting_.begin(), stale_end);
  auto it = view_waiting_.find(v);
  if (it == view_waiting_.end()) return;
  std::vector<std::function<void()>> actions = std::move(it->second);
  view_waiting_.erase(it);
  for (auto& fn : actions) fn();
}

// ---- crash recovery (DESIGN.md §9) ----------------------------------------------

void MinBftReplica::persist() {
  DurableImage img;
  img.view = view_;
  img.view_base = view_base_counter_;
  img.next_exec = next_exec_counter_;
  img.ui_high = ui_high_;
  img.stable = stable_checkpoint_;
  img.exec_floor = exec_floor_;
  img.log = log_;
  img.machine_snapshot = machine_->snapshot();
  img.dedup = dedup_;
  world().durable(id()).put_value(std::string(kDurableKey), img);
}

void MinBftReplica::on_recover(sim::DurableStore& durable) {
  // Everything volatile is gone; rebuild from the durable image (or from
  // scratch when we crashed before the first checkpoint).
  view_ = 0;
  in_view_change_ = false;
  vc_target_ = 0;
  vc_backoff_ = 0;
  slots_.clear();
  view_base_counter_ = 0;
  next_exec_counter_ = 0;
  ui_high_.clear();
  ui_waiting_.clear();
  view_waiting_.clear();
  pending_.clear();
  dedup_ = {};
  log_ = {};
  stable_checkpoint_ = 0;
  cp_votes_.clear();
  vc_archive_.clear();
  vc_msgs_.clear();
  exec_floor_ = 0;
  deferred_primacy_.reset();
  state_probe_ = false;
  state_attempts_ = 0;
  batch_queue_.clear();
  queued_keys_.clear();
  slotted_keys_.clear();
  batch_ripe_ = false;
  batch_timer_armed_ = false;
  batch_flushing_ = false;
  machine_->restore(initial_snapshot_);
  if (const auto img =
          durable.get_value<DurableImage>(std::string(kDurableKey))) {
    view_ = img->view;
    view_base_counter_ = img->view_base;
    next_exec_counter_ = img->next_exec;
    ui_high_ = img->ui_high;
    stable_checkpoint_ = img->stable;
    exec_floor_ = img->exec_floor;
    log_ = img->log;
    machine_->restore(img->machine_snapshot);
    dedup_ = img->dedup;
  }
  ++recoveries_;
  world().metrics().add("smr.recoveries");
  vc_started_at_ = 0;
  state_sync_started_at_ = 0;
  last_checkpoint_at_ = world().now();

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

bool MinBftReplica::needs_state() const {
  return log_.size() < exec_floor_ || deferred_primacy_.has_value();
}

void MinBftReplica::begin_state_sync() {
  if (!state_probe_) state_sync_started_at_ = world().now();
  state_probe_ = true;
  state_attempts_ = 0;
  send_state_request();
  arm_state_retry();
}

void MinBftReplica::send_state_request() {
  StateRequest req;
  req.have = log_.size();
  protocol_router_.broadcast(req);
}

void MinBftReplica::arm_state_retry() {
  // Bounded exponential backoff: replies can be lost (in-flight drops when
  // we crash again, crashed responders), but retransmission must not keep
  // the world from quiescing, so give up after a few rounds — the next
  // view change or checkpoint restarts the hunt if we still lag.
  if (state_attempts_ >= kMaxStateAttempts) {
    state_probe_ = false;
    world().metrics().add("smr.state_sync_abandoned");
    return;
  }
  const Time delay = (options_.view_change_timeout / 2 + 1)
                     << state_attempts_;
  set_timer(delay, [this] {
    if (!state_probe_) return;
    ++state_attempts_;
    send_state_request();
    arm_state_retry();
  });
}

void MinBftReplica::handle_state_request(ProcessId from, StateRequest req) {
  if (from == id()) return;
  if (log_.size() <= req.have) return;  // nothing the requester lacks
  StateReply rep;
  rep.view = view_;
  rep.view_base = view_base_counter_;
  rep.next_exec = next_exec_counter_;
  rep.ui_high = ui_high_;
  rep.stable = stable_checkpoint_;
  rep.exec_floor = exec_floor_;
  rep.core.log = log_;
  rep.core.machine_snapshot = machine_->snapshot();
  rep.core.dedup = dedup_;
  rep.sig = signer().sign(rep.binding());
  wire::send(*this, from, kMinBftCh, rep);
}

void MinBftReplica::handle_state_reply(ProcessId from, StateReply rep) {
  if (from == id()) return;
  // Signed by the responding replica: a Byzantine network cannot forge a
  // bundle, only replay one — and stale bundles are ignored below.
  if (rep.sig.key != world().key_of(from)) return;
  if (!world().keys().verify(rep.sig, rep.binding())) return;
  install_bundle(rep);
}

void MinBftReplica::install_bundle(const StateReply& b) {
  const ViewNum was_view = view_;
  if (b.core.log.size() > log_.size()) {
    log_ = b.core.log;
    machine_->restore(b.core.machine_snapshot);
    dedup_ = b.core.dedup;
    // Witness for the batch-atomicity checker: these commands' effects
    // arrived via state transfer, so no "smr-exec" output will ever record
    // them. Batched mode only — unbatched transcripts (and their golden
    // fingerprints) must not change.
    if (batched())
      output("smr-install", serde::encode(InstallWitness::of(dedup_)));
  }
  if (b.stable > stable_checkpoint_) stable_checkpoint_ = b.stable;
  exec_floor_ = std::max(exec_floor_, b.exec_floor);
  if (b.view > view_) {
    // Adopt the responder's view wholesale: our per-view window is void.
    view_ = b.view;
    in_view_change_ = false;
    slots_.clear();
    slotted_keys_.clear();
    view_base_counter_ = b.view_base;
    next_exec_counter_ = b.next_exec;
  } else if (b.view == view_ && !in_view_change_) {
    if (view_base_counter_ == 0) {
      view_base_counter_ = b.view_base;
      next_exec_counter_ = b.next_exec;
    } else if (b.next_exec > next_exec_counter_) {
      // The responder executed further into this view than we did; every
      // slot it passed is in the installed log (or dedup'd), so resuming
      // from its cursor skips nothing uncommitted.
      next_exec_counter_ = b.next_exec;
    }
  }
  prune_stable();
  persist();
  if (view_ > was_view) {
    if (deferred_primacy_ && *deferred_primacy_ <= view_)
      deferred_primacy_.reset();
    // Mirror enter_view's buffered-action replay for the adopted view.
    view_waiting_.erase(view_waiting_.begin(),
                        view_waiting_.lower_bound(view_));
    auto it = view_waiting_.find(view_);
    if (it != view_waiting_.end()) {
      std::vector<std::function<void()>> actions = std::move(it->second);
      view_waiting_.erase(it);
      for (auto& fn : actions) fn();
    }
    for (const auto& [key, cmd] : pending_) arm_request_timer(cmd);
  }
  // Adopt the responder's record of every peer's stream position: it
  // processed those counters, so their effects are inside the installed
  // log; stragglers below the new frontier still run via the idempotent
  // already-due path when they arrive.
  for (const auto& [p, h] : b.ui_high)
    if (p != id()) raise_ui_high(p, h);
  try_execute();
  // Requests that arrived before the install but were executed elsewhere
  // are settled by the bundle; drop them, or their timers would hunt for a
  // view change nothing needs, forever.
  for (auto it = pending_.begin(); it != pending_.end();)
    it = dedup_.settled(it->second) ? pending_.erase(it) : ++it;
  if (!needs_state() && state_probe_) {
    state_probe_ = false;
    const Time dur = world().now() - state_sync_started_at_;
    world().metrics().histogram("smr.state_sync_ticks").record(dur);
    world().tracer().complete("state-sync", "smr", id(),
                              state_sync_started_at_, dur, "have",
                              log_.size());
  }
  if (deferred_primacy_) maybe_assume_primacy(*deferred_primacy_);
}

}  // namespace unidir::agreement
