#include "agreement/pbft.h"

#include <algorithm>
#include <tuple>

#include "common/check.h"

namespace unidir::agreement {

namespace {

Bytes command_digest(const Command& cmd) {
  const crypto::Digest d = crypto::Sha256::hash(serde::encode(cmd));
  return crypto::digest_bytes(d);
}

Bytes preprepare_binding(ViewNum view, SeqNum seq, const Command& cmd) {
  serde::Writer w;
  w.str("pbft-pp");
  w.uvarint(view);
  w.uvarint(seq);
  cmd.encode(w);
  return w.take();
}

/// Digest of the whole batch; the PREPARE/COMMIT votes of a batched slot
/// carry this instead of a single command's digest, so batch boundaries
/// are part of what the quorum agrees on.
Bytes batch_digest(const std::vector<Command>& cmds) {
  serde::Writer w;
  serde::write(w, cmds);
  return crypto::digest_bytes(crypto::Sha256::hash(w.take()));
}

Bytes batch_preprepare_binding(ViewNum view, SeqNum seq,
                               const std::vector<Command>& cmds) {
  serde::Writer w;
  w.str("pbft-bpp");
  w.uvarint(view);
  w.uvarint(seq);
  w.bytes(batch_digest(cmds));
  return w.take();
}

Bytes vote_binding(std::string_view phase, ViewNum view, SeqNum seq,
                   const Bytes& digest) {
  serde::Writer w;
  w.str(phase);
  w.uvarint(view);
  w.uvarint(seq);
  w.bytes(digest);
  return w.take();
}

Bytes checkpoint_binding(std::uint64_t executed, const Bytes& digest) {
  serde::Writer w;
  w.str("pbft-cp");
  w.uvarint(executed);
  w.bytes(digest);
  return w.take();
}

Bytes view_change_binding(ViewNum target, std::uint64_t stable,
                          const std::vector<PbftVcEntry>& entries,
                          const std::vector<Command>& pending) {
  serde::Writer w;
  w.str("pbft-vc");
  w.uvarint(target);
  w.uvarint(stable);
  serde::write(w, entries);
  serde::write(w, pending);
  return w.take();
}

constexpr std::string_view kDurableKey = "pbft/state";
constexpr std::string_view kJournalKey = "pbft/journal";
constexpr unsigned kMaxStateAttempts = 4;

/// Everything a replica writes to its DurableStore: the recovery image.
struct DurableImage {
  ViewNum view = 0;
  SeqNum next_exec = 0;
  std::uint64_t stable = 0;
  std::uint64_t exec_floor = 0;
  ExecutionLog log;
  Bytes machine_snapshot;
  ExecutionDeduper dedup;

  void encode(serde::Writer& w) const {
    w.uvarint(view);
    w.uvarint(next_exec);
    w.uvarint(stable);
    w.uvarint(exec_floor);
    log.encode(w);
    w.bytes(machine_snapshot);
    dedup.encode(w);
  }
  static DurableImage decode(serde::Reader& r) {
    DurableImage img;
    img.view = r.uvarint();
    img.next_exec = r.uvarint();
    img.stable = r.uvarint();
    img.exec_floor = r.uvarint();
    img.log = ExecutionLog::decode(r);
    img.machine_snapshot = r.bytes();
    img.dedup = ExecutionDeduper::decode(r);
    return img;
  }
};

}  // namespace

namespace pbft_wire {

struct PrePrepare {
  static constexpr wire::MsgDesc kDesc{1, "pbft-pre-prepare"};

  ViewNum view = 0;
  SeqNum seq = 0;
  Command cmd;
  crypto::Signature sig;

  void encode(serde::Writer& w) const {
    w.uvarint(view);
    w.uvarint(seq);
    cmd.encode(w);
    sig.encode(w);
  }
  static PrePrepare decode(serde::Reader& r) {
    PrePrepare p;
    p.view = r.uvarint();
    p.seq = r.uvarint();
    p.cmd = Command::decode(r);
    p.sig = crypto::Signature::decode(r);
    return p;
  }
};

/// PREPARE and COMMIT share a shape; each phase is its own tagged type
/// over the common body.
struct VoteBody {
  ViewNum view = 0;
  SeqNum seq = 0;
  Bytes digest;
  crypto::Signature sig;

  void encode(serde::Writer& w) const {
    w.uvarint(view);
    w.uvarint(seq);
    w.bytes(digest);
    sig.encode(w);
  }
  static VoteBody decode(serde::Reader& r) {
    VoteBody v;
    v.view = r.uvarint();
    v.seq = r.uvarint();
    v.digest = r.bytes();
    v.sig = crypto::Signature::decode(r);
    return v;
  }
};

struct Prepare : VoteBody {
  static constexpr wire::MsgDesc kDesc{2, "pbft-prepare"};
  static Prepare decode(serde::Reader& r) { return {VoteBody::decode(r)}; }
};

struct Commit : VoteBody {
  static constexpr wire::MsgDesc kDesc{3, "pbft-commit"};
  static Commit decode(serde::Reader& r) { return {VoteBody::decode(r)}; }
};

struct Checkpoint {
  static constexpr wire::MsgDesc kDesc{4, "pbft-checkpoint"};

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
  static constexpr wire::MsgDesc kDesc{5, "pbft-view-change"};

  ViewNum target = 0;
  std::uint64_t stable = 0;  // reporter's stable checkpoint
  std::vector<PbftVcEntry> entries;
  std::vector<Command> pending;
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
    v.entries = serde::read<std::vector<PbftVcEntry>>(r);
    v.pending = serde::read<std::vector<Command>>(r);
    v.sig = crypto::Signature::decode(r);
    return v;
  }
};

struct NewView {
  static constexpr wire::MsgDesc kDesc{6, "pbft-new-view"};

  ViewNum target = 0;
  std::uint64_t executed = 0;  // the new primary's execution count
  crypto::Signature sig;

  static Bytes binding(ViewNum target, std::uint64_t executed) {
    serde::Writer w;
    w.str("pbft-nv");
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
  static constexpr wire::MsgDesc kDesc{7, "pbft-state-request"};

  std::uint64_t have = 0;  // requester's execution count

  void encode(serde::Writer& w) const { w.uvarint(have); }
  static StateRequest decode(serde::Reader& r) {
    StateRequest req;
    req.have = r.uvarint();
    return req;
  }
};

struct StateReply {
  static constexpr wire::MsgDesc kDesc{8, "pbft-state-reply"};

  ViewNum view = 0;
  SeqNum next_exec = 0;
  std::uint64_t stable = 0;
  std::uint64_t exec_floor = 0;
  StateBundle core;
  crypto::Signature sig;  // over ("pbft-state", body)

  void encode_body(serde::Writer& w) const {
    w.uvarint(view);
    w.uvarint(next_exec);
    w.uvarint(stable);
    w.uvarint(exec_floor);
    core.encode(w);
  }
  Bytes binding() const {
    serde::Writer w;
    w.str("pbft-state");
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
    rep.next_exec = r.uvarint();
    rep.stable = r.uvarint();
    rep.exec_floor = r.uvarint();
    rep.core = StateBundle::decode(r);
    rep.sig = crypto::Signature::decode(r);
    return rep;
  }
};

/// Batched-mode PRE-PREPARE: one signed proposal covers the whole command
/// vector; the quorum's PREPARE/COMMIT votes then carry the batch digest.
struct BatchPrePrepare {
  static constexpr wire::MsgDesc kDesc{9, "pbft-batch-pre-prepare"};

  ViewNum view = 0;
  SeqNum seq = 0;
  std::vector<Command> cmds;
  crypto::Signature sig;

  void encode(serde::Writer& w) const {
    w.uvarint(view);
    w.uvarint(seq);
    serde::write(w, cmds);
    sig.encode(w);
  }
  static BatchPrePrepare decode(serde::Reader& r) {
    BatchPrePrepare p;
    p.view = r.uvarint();
    p.seq = r.uvarint();
    p.cmds = serde::read<std::vector<Command>>(r);
    p.sig = crypto::Signature::decode(r);
    return p;
  }
};

}  // namespace pbft_wire

using namespace pbft_wire;

void PbftVcEntry::encode(serde::Writer& w) const {
  w.uvarint(view);
  w.uvarint(seq);
  cmd.encode(w);
}

PbftVcEntry PbftVcEntry::decode(serde::Reader& r) {
  PbftVcEntry e;
  e.view = r.uvarint();
  e.seq = r.uvarint();
  e.cmd = Command::decode(r);
  return e;
}

Bytes PbftReplica::encode_preprepare_for_test(const crypto::Signer& signer,
                                              ViewNum view, SeqNum seq,
                                              const Command& cmd) {
  PrePrepare pp;
  pp.view = view;
  pp.seq = seq;
  pp.cmd = cmd;
  pp.sig = signer.sign(preprepare_binding(view, seq, cmd));
  return wire::encode_tagged(pp);
}

Bytes PbftReplica::encode_batch_preprepare_for_test(
    const crypto::Signer& signer, ViewNum view, SeqNum seq,
    const std::vector<Command>& cmds) {
  BatchPrePrepare pp;
  pp.view = view;
  pp.seq = seq;
  pp.cmds = cmds;
  pp.sig = signer.sign(batch_preprepare_binding(view, seq, cmds));
  return wire::encode_tagged(pp);
}

PbftReplica::PbftReplica(Options options,
                         std::unique_ptr<StateMachine> machine)
    : options_(std::move(options)),
      machine_(std::move(machine)),
      request_router_(*this, kClientRequestCh),
      protocol_router_(*this, kPbftCh) {
  UNIDIR_REQUIRE(machine_ != nullptr);
  UNIDIR_REQUIRE_MSG(options_.replicas.size() >= 3 * options_.f + 1,
                     "PBFT requires n >= 3f+1");
  request_router_.on<Command>([this](ProcessId from, Command cmd) {
    on_request(from, std::move(cmd));
  });
  protocol_router_.set_peer_filter(
      [this](ProcessId p) { return is_replica(p); });
  protocol_router_.on<PrePrepare>([this](ProcessId from, PrePrepare pp) {
    handle_preprepare(from, std::move(pp));
  });
  protocol_router_.on<Prepare>([this](ProcessId from, Prepare v) {
    handle_prepare(from, std::move(v));
  });
  protocol_router_.on<Commit>([this](ProcessId from, Commit v) {
    handle_commit(from, std::move(v));
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
  protocol_router_.on<BatchPrePrepare>(
      [this](ProcessId from, BatchPrePrepare pp) {
        handle_batch_preprepare(from, std::move(pp));
      });
  initial_snapshot_ = machine_->snapshot();
}

void PbftReplica::on_start() {
  UNIDIR_CHECK_MSG(is_replica(id()),
                   "replica id must appear in Options::replicas");
}

bool PbftReplica::is_replica(ProcessId p) const {
  return std::find(options_.replicas.begin(), options_.replicas.end(), p) !=
         options_.replicas.end();
}

// ---- client requests -----------------------------------------------------------

void PbftReplica::on_request(ProcessId from, Command cmd) {
  if (cmd.client != from) return;
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

void PbftReplica::propose(const Command& cmd) {
  // A command may only occupy one open slot per view.
  if (!slotted_keys_.insert(cmd.key()).second) return;

  PrePrepare pp;
  pp.view = view_;
  pp.seq = next_propose_seq_++;
  pp.cmd = cmd;
  pp.sig = signer().sign(preprepare_binding(pp.view, pp.seq, cmd));
  // Journal before the broadcast can take effect: once any replica saw
  // this sequence number, we must never assign it again, restart or not.
  persist_journal();
  protocol_router_.broadcast(pp);

  Slot& slot = slots_[pp.seq];
  slot.cmds = {cmd};
  slot.digest = command_digest(cmd);
  slot.have_preprepare = true;
  slot.accepted_at = world().now();
  vc_archive_.put({view_, pp.seq, cmd});
  step(pp.seq);
}

void PbftReplica::enqueue_batch(const Command& cmd) {
  // Admission, not dedup-against-execution: view-change re-proposals must
  // re-batch even already-executed commands (see maybe_assume_primacy).
  if (slotted_keys_.contains(cmd.key())) return;
  if (!queued_keys_.insert(cmd.key()).second) return;
  batch_queue_.push_back(cmd);
}

void PbftReplica::maybe_flush_batch() {
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

void PbftReplica::propose_batch(std::vector<Command> cmds) {
  BatchPrePrepare pp;
  pp.view = view_;
  pp.seq = next_propose_seq_++;
  pp.cmds = std::move(cmds);
  pp.sig = signer().sign(batch_preprepare_binding(pp.view, pp.seq, pp.cmds));
  // Journal before the broadcast can take effect (see propose()).
  persist_journal();
  protocol_router_.broadcast(pp);

  Slot& slot = slots_[pp.seq];
  slot.cmds = pp.cmds;
  slot.digest = batch_digest(pp.cmds);
  slot.have_preprepare = true;
  slot.accepted_at = world().now();
  for (const Command& cmd : pp.cmds) {
    vc_archive_.put({view_, pp.seq, cmd});
    slotted_keys_.insert(cmd.key());
  }
  step(pp.seq);
}

// ---- protocol messages -----------------------------------------------------------

void PbftReplica::handle_preprepare(ProcessId from, PrePrepare pp) {
  if (from == id() || pp.seq == 0) return;
  if (pp.sig.key != world().key_of(from)) return;
  if (!world().keys().verify(pp.sig,
                             preprepare_binding(pp.view, pp.seq, pp.cmd)))
    return;
  when_in_view(pp.view, [this, from, pp]() {
    if (from != primary_of(view_)) return;
    Slot* open = open_slot(pp.seq);
    if (open == nullptr) return;
    Slot& slot = *open;
    if (slot.have_preprepare) return;  // first pre-prepare per slot wins
    slot.cmds = {pp.cmd};
    slot.digest = command_digest(pp.cmd);
    slot.have_preprepare = true;
    slot.accepted_at = world().now();
    vc_archive_.put({view_, pp.seq, pp.cmd});

    if (!dedup_.settled(pp.cmd) &&
        pending_.emplace(pp.cmd.key(), pp.cmd).second)
      arm_request_timer(pp.cmd);

    if (!slot.sent_prepare) {
      slot.sent_prepare = true;
      slot.prepares[slot.digest].insert(id());
      Prepare v;
      v.view = view_;
      v.seq = pp.seq;
      v.digest = slot.digest;
      v.sig = signer().sign(vote_binding("pbft-prepare", v.view, v.seq,
                                         v.digest));
      protocol_router_.broadcast(v);
    }
    step(pp.seq);
  });
}

void PbftReplica::handle_batch_preprepare(ProcessId from, BatchPrePrepare pp) {
  if (from == id() || pp.seq == 0) return;
  if (pp.cmds.empty()) return;  // an empty batch orders nothing
  if (pp.sig.key != world().key_of(from)) return;
  if (!world().keys().verify(
          pp.sig, batch_preprepare_binding(pp.view, pp.seq, pp.cmds)))
    return;
  when_in_view(pp.view, [this, from, pp]() {
    if (from != primary_of(view_)) return;
    Slot* open = open_slot(pp.seq);
    if (open == nullptr) return;
    Slot& slot = *open;
    if (slot.have_preprepare) return;  // first pre-prepare per slot wins
    slot.cmds = pp.cmds;
    slot.digest = batch_digest(pp.cmds);
    slot.have_preprepare = true;
    slot.accepted_at = world().now();
    for (const Command& cmd : pp.cmds) {
      vc_archive_.put({view_, pp.seq, cmd});
      if (batched()) slotted_keys_.insert(cmd.key());
      // Guard every batch member with a timer, as the singleton path does
      // for its one command.
      if (!dedup_.settled(cmd) && pending_.emplace(cmd.key(), cmd).second)
        arm_request_timer(cmd);
    }

    if (!slot.sent_prepare) {
      slot.sent_prepare = true;
      slot.prepares[slot.digest].insert(id());
      Prepare v;
      v.view = view_;
      v.seq = pp.seq;
      v.digest = slot.digest;
      v.sig = signer().sign(vote_binding("pbft-prepare", v.view, v.seq,
                                         v.digest));
      protocol_router_.broadcast(v);
    }
    step(pp.seq);
  });
}

void PbftReplica::handle_prepare(ProcessId from, Prepare v) {
  if (from == id()) return;
  if (v.sig.key != world().key_of(from)) return;
  if (!world().keys().verify(
          v.sig, vote_binding("pbft-prepare", v.view, v.seq, v.digest)))
    return;
  when_in_view(v.view, [this, from, v]() {
    if (from == primary_of(view_)) return;  // the primary never prepares
    Slot* slot = open_slot(v.seq);
    if (slot == nullptr) return;
    slot->prepares[v.digest].insert(from);
    step(v.seq);
  });
}

void PbftReplica::handle_commit(ProcessId from, Commit v) {
  if (from == id()) return;
  if (v.sig.key != world().key_of(from)) return;
  if (!world().keys().verify(
          v.sig, vote_binding("pbft-commit", v.view, v.seq, v.digest)))
    return;
  when_in_view(v.view, [this, from, v]() {
    Slot* slot = open_slot(v.seq);
    if (slot == nullptr) return;
    slot->commits[v.digest].insert(from);
    step(v.seq);
  });
}

void PbftReplica::when_in_view(ViewNum view, std::function<void()> action) {
  if (view < view_) return;
  if (view == view_ && !in_view_change_) {
    action();
    return;
  }
  view_waiting_[view].push_back(std::move(action));
}

PbftReplica::Slot* PbftReplica::open_slot(SeqNum seq) {
  if (seq < next_exec_seq_) {
    auto it = slots_.find(seq);
    return it == slots_.end() ? nullptr : &it->second;
  }
  return &slots_[seq];
}

void PbftReplica::step(SeqNum seq) {
  auto it = slots_.find(seq);
  if (it == slots_.end()) return;
  Slot& slot = it->second;
  if (!slot.have_preprepare) return;

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
    v.sig = signer().sign(vote_binding("pbft-commit", v.view, v.seq,
                                       v.digest));
    protocol_router_.broadcast(v);
  }
  try_execute();
}

void PbftReplica::try_execute() {
  while (true) {
    auto it = slots_.find(next_exec_seq_);
    if (it == slots_.end()) break;
    Slot& slot = it->second;
    if (slot.executed) {
      ++next_exec_seq_;
      continue;
    }
    if (!slot.have_preprepare || !slot.sent_commit) break;
    if (slot.commits[slot.digest].size() < 2 * options_.f + 1) break;
    // Below a NEW-VIEW's execution floor, fresh commands wait for state
    // transfer (see MinBftReplica::try_execute). A batch executes only
    // once every member is settled or executable.
    if (log_.size() < exec_floor_) {
      const bool all_settled =
          std::all_of(slot.cmds.begin(), slot.cmds.end(),
                      [this](const Command& cmd) {
                        return dedup_.settled(cmd);
                      });
      if (!all_settled) break;
    }
    // Advance before executing: execute() can persist() at a checkpoint
    // boundary, and the durable image must record the post-execution
    // cursor (see MinBftReplica::try_execute for the recovery hazard).
    const SeqNum seq = next_exec_seq_;
    ++next_exec_seq_;
    execute(slot, seq);
  }
  // Slots behind the cursor are done; open_slot refuses their sequence
  // numbers from now on.
  while (!slots_.empty() && slots_.begin()->first < next_exec_seq_) {
    for (const Command& cmd : slots_.begin()->second.cmds)
      slotted_keys_.erase(cmd.key());
    slots_.erase(slots_.begin());
  }
  // Executions free pipeline room; admit whatever is queued behind it.
  if (batched()) maybe_flush_batch();
}

void PbftReplica::execute(Slot& slot, SeqNum seq) {
  slot.executed = true;
  if (batched()) {
    // Atomicity witness for the explorer (see the batch-atomicity
    // invariant); only emitted in batched mode, so unbatched transcripts
    // — and hence fingerprints — are unchanged.
    serde::Writer w;
    w.uvarint(view_);
    w.uvarint(seq);
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
                                latency, "log_index", log_.size());
      output("smr-exec", serde::encode(cmd));
      maybe_checkpoint();
    }
    pending_.erase(cmd.key());
    reply_to(cmd, result);
  }
}

void PbftReplica::record_execution(const Command& cmd, const Bytes& result) {
  dedup_.record(cmd, result);
  log_.append({cmd, result});
  const auto first = pending_.lower_bound({cmd.client, 0});
  pending_.erase(first,
                 pending_.lower_bound({cmd.client, dedup_.floor(cmd.client)}));
}

void PbftReplica::reply_to(const Command& cmd, const Bytes& result) {
  Reply reply;
  reply.request_id = cmd.request_id;
  reply.result = result;
  wire::send(*this, cmd.client, kClientReplyCh, reply);
}

// ---- checkpoints -----------------------------------------------------------------

void PbftReplica::maybe_checkpoint() {
  if (options_.checkpoint_interval == 0) return;
  if (log_.size() % options_.checkpoint_interval != 0) return;
  Checkpoint cp;
  cp.executed = log_.size();
  cp.digest = crypto::digest_bytes(machine_->digest());
  cp.sig = signer().sign(checkpoint_binding(cp.executed, cp.digest));
  protocol_router_.broadcast(cp);
  // A checkpoint boundary is also the durability boundary (DESIGN.md §9).
  persist();
  note_checkpoint_vote(cp.executed, cp.digest, id());
}

void PbftReplica::handle_checkpoint(ProcessId from, Checkpoint cp) {
  if (cp.sig.key != world().key_of(from)) return;
  if (!world().keys().verify(cp.sig,
                             checkpoint_binding(cp.executed, cp.digest)))
    return;
  note_checkpoint_vote(cp.executed, cp.digest, from);
}

void PbftReplica::note_checkpoint_vote(std::uint64_t executed,
                                       const Bytes& digest, ProcessId voter) {
  if (executed <= stable_checkpoint_) return;  // already stable
  auto& voters = cp_votes_[executed][digest];
  voters.insert(voter);
  // PBFT stabilizes a checkpoint at 2f+1 matching votes.
  if (voters.size() < 2 * options_.f + 1) return;
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

void PbftReplica::prune_stable() {
  cp_votes_.erase(cp_votes_.begin(),
                  cp_votes_.upper_bound(stable_checkpoint_));
  // Below stable, 2f+1 replicas hold the history durably and laggards are
  // served by state transfer, so the executed log prefix and the matching
  // view-change archive entries can go (see MinBftReplica::prune_stable).
  const std::uint64_t upto =
      std::min<std::uint64_t>(stable_checkpoint_, log_.size());
  if (upto <= log_.base()) return;
  for (std::uint64_t k = log_.base(); k < upto; ++k)
    vc_archive_.erase(log_.at(k).command.key());
  log_.prune_to(upto);
}

// ---- view change -----------------------------------------------------------------

void PbftReplica::arm_request_timer(const Command& cmd) {
  const auto key = cmd.key();
  const ViewNum armed_view = view_;
  set_timer(vc_timeout(), [this, key, armed_view] {
    if (!pending_.contains(key)) return;
    if (in_view_change_) return;
    if (view_ == armed_view) start_view_change(view_ + 1);
  });
}

void PbftReplica::start_view_change(ViewNum target) {
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
  vc.entries = vc_archive_.entries();
  for (const auto& [key, cmd] : pending_) vc.pending.push_back(cmd);
  vc.sig = signer().sign(
      view_change_binding(target, vc.stable, vc.entries, vc.pending));
  protocol_router_.broadcast(vc);
  vc_msgs_[target][id()] = VcReport{vc.entries, vc.pending, vc.stable};
  maybe_assume_primacy(target);

  // Escalate only with f+1 supporters; otherwise abandon the attempt and
  // rejoin the current view (see MinBftReplica::start_view_change). The
  // timer backs off with each consecutive failed attempt.
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

void PbftReplica::abandon_view_change() {
  in_view_change_ = false;
  world().metrics().add("smr.view_changes_abandoned");
  auto it = view_waiting_.find(view_);
  if (it != view_waiting_.end()) {
    std::vector<std::function<void()>> actions = std::move(it->second);
    view_waiting_.erase(it);
    for (auto& fn : actions) fn();
  }
  for (const auto& [key, cmd] : pending_) arm_request_timer(cmd);
}

void PbftReplica::handle_view_change(ProcessId from, ViewChange vc) {
  if (vc.target <= view_) return;
  if (vc.sig.key != world().key_of(from)) return;
  if (!world().keys().verify(
          vc.sig, view_change_binding(vc.target, vc.stable, vc.entries,
                                      vc.pending)))
    return;
  vc_msgs_[vc.target][from] =
      VcReport{std::move(vc.entries), std::move(vc.pending), vc.stable};

  // Join once f+1 replicas demand a higher view (at least one correct).
  if (vc_msgs_[vc.target].size() >= options_.f + 1 &&
      (!in_view_change_ || vc_target_ < vc.target))
    start_view_change(vc.target);
  maybe_assume_primacy(vc.target);
}

void PbftReplica::maybe_assume_primacy(ViewNum target) {
  if (primary_of(target) != id()) return;
  if (target <= view_) return;
  auto it = vc_msgs_.find(target);
  // PBFT requires a 2f+1 quorum of view-change messages; at n > 4f + 1
  // that no longer intersects every 2f+1 commit quorum, so widen to n - f
  // (a no-op at the native n = 3f + 1, where n - f = 2f + 1).
  const std::size_t merge_quorum = std::max<std::size_t>(
      2 * options_.f + 1, options_.replicas.size() - options_.f);
  if (it == vc_msgs_.end() || it->second.size() < merge_quorum) return;

  // Defer primacy below the reported stable frontier: archives are pruned
  // below it, so re-proposals cannot realign peers there (see
  // MinBftReplica::maybe_assume_primacy).
  std::uint64_t frontier = stable_checkpoint_;
  for (const auto& [reporter, report] : it->second)
    frontier = std::max(frontier, report.stable);
  if (log_.size() < frontier) {
    deferred_primacy_ = target;
    begin_state_sync();
    return;
  }
  deferred_primacy_.reset();

  NewView nv;
  nv.target = target;
  nv.executed = log_.size();
  nv.sig = signer().sign(NewView::binding(target, nv.executed));
  protocol_router_.broadcast(nv);
  enter_view(target);

  // Rank every reported key by its most RECENT (view, seq) — newest view
  // first, seq order within a view, stale old-view strays after — then
  // never-slotted requests last. Ascending original order lets a stale
  // never-committed old-view slot sort ahead of newer executed slots and
  // fork the logs; see MinBftReplica::maybe_assume_primacy for the full
  // argument. Batch members share (view, seq); stable sort keeps their
  // first-reported (= batch) order.
  struct Ranked {
    ViewNum view;
    SeqNum seq;
    Command cmd;
  };
  std::map<std::pair<ProcessId, std::uint64_t>, std::size_t> index;
  std::vector<Ranked> ranked;
  std::map<std::pair<ProcessId, std::uint64_t>, Command> loose;
  for (const auto& [reporter, report] : it->second) {
    for (const PbftVcEntry& e : report.entries) {
      auto [pos, fresh] = index.emplace(e.cmd.key(), ranked.size());
      if (fresh) {
        ranked.push_back({e.view, e.seq, e.cmd});
      } else {
        Ranked& r = ranked[pos->second];
        if (std::tie(e.view, e.seq) > std::tie(r.view, r.seq)) {
          r.view = e.view;
          r.seq = e.seq;
        }
      }
    }
    for (const Command& cmd : report.pending) loose.emplace(cmd.key(), cmd);
  }
  std::stable_sort(ranked.begin(), ranked.end(),
                   [](const Ranked& a, const Ranked& b) {
                     if (a.view != b.view) return a.view > b.view;
                     return a.seq < b.seq;
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
  // Batched re-proposals flow through the same queue/flush machinery.
  if (batched()) maybe_flush_batch();
}

void PbftReplica::handle_new_view(ProcessId from, NewView nv) {
  if (nv.target <= view_) return;
  if (from != primary_of(nv.target)) return;
  if (nv.sig.key != world().key_of(from)) return;
  if (!world().keys().verify(nv.sig,
                             NewView::binding(nv.target, nv.executed)))
    return;
  exec_floor_ = std::max(exec_floor_, nv.executed);
  enter_view(nv.target);
  for (const auto& [key, cmd] : pending_) arm_request_timer(cmd);
  if (log_.size() < exec_floor_) begin_state_sync();
}

void PbftReplica::enter_view(ViewNum v) {
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
  next_propose_seq_ = 1;
  next_exec_seq_ = 1;
  // Per-view batching state dies with the view: queued commands stay in
  // pending_ (and in peers' view-change reports), so the new primary —
  // whoever it is — re-admits them.
  batch_queue_.clear();
  queued_keys_.clear();
  slotted_keys_.clear();
  batch_ripe_ = false;
  if (deferred_primacy_ && *deferred_primacy_ <= v) deferred_primacy_.reset();
  persist();  // view entry is a durability boundary (see DESIGN.md §9)
  auto stale_end = view_waiting_.lower_bound(v);
  view_waiting_.erase(view_waiting_.begin(), stale_end);
  auto it = view_waiting_.find(v);
  if (it == view_waiting_.end()) return;
  std::vector<std::function<void()>> actions = std::move(it->second);
  view_waiting_.erase(it);
  for (auto& fn : actions) fn();
}

// ---- crash recovery (DESIGN.md §9) ----------------------------------------------

void PbftReplica::persist() {
  DurableImage img;
  img.view = view_;
  img.next_exec = next_exec_seq_;
  img.stable = stable_checkpoint_;
  img.exec_floor = exec_floor_;
  img.log = log_;
  img.machine_snapshot = machine_->snapshot();
  img.dedup = dedup_;
  world().durable(id()).put_value(std::string(kDurableKey), img);
}

void PbftReplica::persist_journal() {
  world().durable(id()).put_value(
      std::string(kJournalKey),
      std::make_pair(view_, next_propose_seq_));
}

void PbftReplica::on_recover(sim::DurableStore& durable) {
  view_ = 0;
  in_view_change_ = false;
  vc_target_ = 0;
  vc_backoff_ = 0;
  slots_.clear();
  next_propose_seq_ = 1;
  next_exec_seq_ = 1;
  pending_.clear();
  dedup_ = {};
  log_ = {};
  stable_checkpoint_ = 0;
  cp_votes_.clear();
  vc_archive_.clear();
  vc_msgs_.clear();
  view_waiting_.clear();
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
    next_exec_seq_ = img->next_exec;
    stable_checkpoint_ = img->stable;
    exec_floor_ = img->exec_floor;
    log_ = img->log;
    machine_->restore(img->machine_snapshot);
    dedup_ = img->dedup;
  }
  // The propose journal outruns the image (it is written on every
  // propose): if it belongs to the restored view, resume above it so an
  // honest primary never reassigns a sequence number it already used.
  if (const auto journal =
          durable.get_value<std::pair<ViewNum, SeqNum>>(
              std::string(kJournalKey))) {
    if (journal->first == view_)
      next_propose_seq_ = std::max(next_propose_seq_, journal->second);
  }
  ++recoveries_;
  world().metrics().add("smr.recoveries");
  vc_started_at_ = 0;
  state_sync_started_at_ = 0;
  last_checkpoint_at_ = world().now();
  begin_state_sync();
}

bool PbftReplica::needs_state() const {
  return log_.size() < exec_floor_ || deferred_primacy_.has_value();
}

void PbftReplica::begin_state_sync() {
  if (!state_probe_) state_sync_started_at_ = world().now();
  state_probe_ = true;
  state_attempts_ = 0;
  send_state_request();
  arm_state_retry();
}

void PbftReplica::send_state_request() {
  StateRequest req;
  req.have = log_.size();
  protocol_router_.broadcast(req);
}

void PbftReplica::arm_state_retry() {
  // Bounded exponential backoff, as in MinBftReplica::arm_state_retry.
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

void PbftReplica::handle_state_request(ProcessId from, StateRequest req) {
  if (from == id()) return;
  if (log_.size() <= req.have) return;  // nothing the requester lacks
  StateReply rep;
  rep.view = view_;
  rep.next_exec = next_exec_seq_;
  rep.stable = stable_checkpoint_;
  rep.exec_floor = exec_floor_;
  rep.core.log = log_;
  rep.core.machine_snapshot = machine_->snapshot();
  rep.core.dedup = dedup_;
  rep.sig = signer().sign(rep.binding());
  wire::send(*this, from, kPbftCh, rep);
}

void PbftReplica::handle_state_reply(ProcessId from, StateReply rep) {
  if (from == id()) return;
  if (rep.sig.key != world().key_of(from)) return;
  if (!world().keys().verify(rep.sig, rep.binding())) return;
  install_bundle(rep);
}

void PbftReplica::install_bundle(const StateReply& b) {
  const ViewNum was_view = view_;
  if (b.core.log.size() > log_.size()) {
    log_ = b.core.log;
    machine_->restore(b.core.machine_snapshot);
    dedup_ = b.core.dedup;
    // Witness for the batch-atomicity checker (see
    // MinBftReplica::install_bundle); batched mode only.
    if (batched())
      output("smr-install", serde::encode(InstallWitness::of(dedup_)));
  }
  if (b.stable > stable_checkpoint_) stable_checkpoint_ = b.stable;
  exec_floor_ = std::max(exec_floor_, b.exec_floor);
  if (b.view > view_) {
    view_ = b.view;
    in_view_change_ = false;
    slots_.clear();
    slotted_keys_.clear();
    next_propose_seq_ = 1;
    next_exec_seq_ = b.next_exec;
  } else if (b.view == view_ && !in_view_change_) {
    if (b.next_exec > next_exec_seq_) {
      // The responder executed further into this view; every slot it
      // passed is in the installed log (or dedup'd), so resuming from its
      // cursor skips nothing uncommitted.
      next_exec_seq_ = b.next_exec;
    }
  }
  prune_stable();
  persist();
  if (view_ > was_view) {
    if (deferred_primacy_ && *deferred_primacy_ <= view_)
      deferred_primacy_.reset();
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
