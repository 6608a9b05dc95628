#include "agreement/replica_core.h"

#include <limits>

#include "common/check.h"

namespace unidir::agreement {

namespace {

constexpr unsigned kMaxStateAttempts = 4;

}  // namespace

namespace replica_wire {

/// A replica's recoverable state, in one encoding: persist() writes it to
/// the DurableStore, and a StateReply carries it (signed) to a peer.
struct ReplicaImage {
  ViewNum view = 0;
  SeqNum next_exec = 0;
  std::map<ProcessId, SeqNum> streams;  // the protocol's extras
  std::uint64_t stable = 0;
  std::uint64_t exec_floor = 0;
  ExecutionLog log;
  Bytes machine_snapshot;
  ExecutionDeduper dedup;

  void encode(serde::Writer& w) const {
    w.uvarint(view);
    w.uvarint(next_exec);
    serde::write(w, streams);
    w.uvarint(stable);
    w.uvarint(exec_floor);
    log.encode(w);
    w.bytes(machine_snapshot);
    dedup.encode(w);
  }
  static ReplicaImage decode(serde::Reader& r) {
    ReplicaImage img;
    img.view = r.uvarint();
    img.next_exec = r.uvarint();
    img.streams = serde::read<std::map<ProcessId, SeqNum>>(r);
    img.stable = r.uvarint();
    img.exec_floor = r.uvarint();
    img.log = ExecutionLog::decode(r);
    img.machine_snapshot = r.bytes();
    img.dedup = ExecutionDeduper::decode(r);
    return img;
  }
};

struct Checkpoint {
  static constexpr wire::MsgDesc kDesc{1, "smr-checkpoint"};

  std::uint64_t executed = 0;
  crypto::Digest digest{};
  crypto::Signature sig;

  void encode_body(serde::Writer& w) const {
    w.uvarint(executed);
    w.bytes(digest);
  }
  void encode(serde::Writer& w) const {
    encode_body(w);
    sig.encode(w);
  }
  static Checkpoint decode(serde::Reader& r) {
    Checkpoint c;
    c.executed = r.uvarint();
    r.fixed(c.digest);
    c.sig = crypto::Signature::decode(r);
    return c;
  }
};

struct ViewChange {
  static constexpr wire::MsgDesc kDesc{2, "smr-view-change"};

  ViewNum target = 0;
  std::uint64_t stable = 0;        // reporter's stable checkpoint
  std::vector<VcEntry> entries;    // accepted slots, with order info
  std::vector<Command> pending;    // buffered requests never slotted
  crypto::Signature sig;

  void encode_body(serde::Writer& w) const {
    w.uvarint(target);
    w.uvarint(stable);
    serde::write(w, entries);
    serde::write(w, pending);
  }
  void encode(serde::Writer& w) const {
    encode_body(w);
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
  static constexpr wire::MsgDesc kDesc{3, "smr-new-view"};

  ViewNum target = 0;
  std::uint64_t executed = 0;  // the new primary's execution count
  crypto::Signature sig;

  void encode_body(serde::Writer& w) const {
    w.uvarint(target);
    w.uvarint(executed);
  }
  void encode(serde::Writer& w) const {
    encode_body(w);
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
  static constexpr wire::MsgDesc kDesc{4, "smr-state-request"};

  std::uint64_t have = 0;  // requester's execution count

  void encode(serde::Writer& w) const { w.uvarint(have); }
  static StateRequest decode(serde::Reader& r) {
    StateRequest req;
    req.have = r.uvarint();
    return req;
  }
};

struct StateReply {
  static constexpr wire::MsgDesc kDesc{5, "smr-state-reply"};

  ReplicaImage image;
  crypto::Signature sig;

  void encode_body(serde::Writer& w) const { image.encode(w); }
  void encode(serde::Writer& w) const {
    encode_body(w);
    sig.encode(w);
  }
  static StateReply decode(serde::Reader& r) {
    StateReply rep;
    rep.image = ReplicaImage::decode(r);
    rep.sig = crypto::Signature::decode(r);
    return rep;
  }
};

/// The signed binding of a shared message: the protocol's domain tag, then
/// the message body.
template <class M>
serde::ScratchWriter binding(const std::string& tag, const M& m) {
  serde::ScratchWriter w;
  w->str(tag);
  m.encode_body(*w);
  return w;
}

}  // namespace replica_wire

using namespace replica_wire;

void VcEntry::encode(serde::Writer& w) const {
  w.uvarint(view);
  w.uvarint(seq);
  cmd.encode(w);
}

VcEntry VcEntry::decode(serde::Reader& r) {
  VcEntry e;
  e.view = r.uvarint();
  e.seq = r.uvarint();
  e.cmd = Command::decode(r);
  return e;
}

ReplicaCore::ReplicaCore(const Options& options, Protocol protocol,
                         std::unique_ptr<StateMachine> machine)
    : options_(options),
      protocol_router_(*this, protocol.channel),
      protocol_(std::move(protocol)),
      machine_(std::move(machine)),
      request_router_(*this, kClientRequestCh) {
  UNIDIR_REQUIRE(machine_ != nullptr);
  UNIDIR_REQUIRE(options_.batch_size >= 1 && options_.pipeline_depth >= 1);
  inflight_limit_ = options_.batch_size == 1 && options_.pipeline_depth == 1
                        ? std::numeric_limits<std::size_t>::max()
                        : options_.pipeline_depth;
  next_exec_ = protocol_.first_slot;
  request_router_.on<Command>([this](ProcessId from, Command cmd) {
    on_request(from, std::move(cmd));
  });
  protocol_router_.set_peer_filter(
      [this](ProcessId p) { return is_replica(p); });
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
  initial_snapshot_ = machine_->snapshot();
}

void ReplicaCore::on_start() {
  UNIDIR_CHECK_MSG(is_replica(id()),
                   "replica id must appear in Options::replicas");
}

bool ReplicaCore::is_replica(ProcessId p) const {
  return std::find(options_.replicas.begin(), options_.replicas.end(), p) !=
         options_.replicas.end();
}

std::string ReplicaCore::binding_tag(std::string_view kind) const {
  std::string tag = protocol_.name;
  tag += '-';
  tag += kind;
  return tag;
}

// ---- client requests ----------------------------------------------------------

void ReplicaCore::on_request(ProcessId from, Command cmd) {
  if (cmd.client != from) return;  // clients speak only for themselves

  if (const auto cached = dedup_.lookup(cmd)) {
    reply_to(cmd, *cached);
    return;
  }
  if (dedup_.below_floor(cmd)) return;  // acknowledged: settled for good
  const auto [it, fresh] = pending_.try_emplace(cmd.key(), Pending{cmd});
  if (fresh) arm_request_deadline(it->second);
  if (!in_view_change_ && is_primary()) {
    enqueue(std::move(cmd));
    maybe_flush_batch();
  }
}

void ReplicaCore::enqueue(Command cmd) {
  // Admission, not dedup-against-execution: view-change re-proposals must
  // re-batch even already-executed commands (see maybe_assume_primacy).
  if (slotted_keys_.contains(cmd.key())) return;
  if (!queued_keys_.insert(cmd.key()).second) return;
  batch_queue_.push_back(std::move(cmd));
}

void ReplicaCore::maybe_flush_batch() {
  if (batch_flushing_) return;
  if (in_view_change_ || !is_primary()) return;
  batch_flushing_ = true;
  // A batch leaves when it is full, or at once when nothing is in flight:
  // an idle primary never holds a request back, and a partial batch grows
  // only while earlier slots are out. Whatever waits is flushed by the
  // execution that frees the pipeline (try_execute), so no timer is needed.
  while (!batch_queue_.empty() && inflight_slots() < inflight_limit_ &&
         (batch_queue_.size() >= options_.batch_size ||
          inflight_slots() == 0)) {
    std::vector<Command> cmds;
    const std::size_t take =
        std::min<std::size_t>(options_.batch_size, batch_queue_.size());
    cmds.reserve(take);
    for (std::size_t i = 0; i < take; ++i) {
      queued_keys_.erase(batch_queue_.front().key());
      cmds.push_back(std::move(batch_queue_.front()));
      batch_queue_.pop_front();
    }
    propose(std::move(cmds));
  }
  batch_flushing_ = false;
}

// ---- slots and execution ------------------------------------------------------

ReplicaCore::Slot* ReplicaCore::open_slot(SeqNum seq) {
  auto it = slots_.find(seq);
  if (it != slots_.end()) return it->second.get();
  if (seq < next_exec_) return nullptr;
  return slots_.emplace(seq, make_slot()).first->second.get();
}

void ReplicaCore::accept(SeqNum seq, Slot& slot, std::vector<Command> cmds) {
  slot.cmds = std::move(cmds);
  slot.accepted_at = world().now();
  for (const Command& cmd : slot.cmds) {
    vc_archive_.put({view_, seq, cmd});
    slotted_keys_.insert(cmd.key());
  }
}

void ReplicaCore::guard(const Command& cmd) {
  if (dedup_.settled(cmd)) return;
  const auto [it, fresh] = pending_.try_emplace(cmd.key(), Pending{cmd});
  if (fresh) arm_request_deadline(it->second);
}

void ReplicaCore::try_execute() {
  while (true) {
    auto it = slots_.find(next_exec_);
    if (it == slots_.end()) break;
    Slot& slot = *it->second;
    if (slot.cmds.empty() || !committed(slot)) break;
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
    // slot to execute = the one producing entry k" re-executes that slot
    // after recovery — harmless stall with durable devices, but a
    // self-inflicted equivocation slot once counters are volatile.
    execute(slot, next_exec_++);
  }
  // Slots behind the cursor are done: open_slot refuses their order
  // numbers from now on, so nothing re-opens them.
  while (!slots_.empty() && slots_.begin()->first < next_exec_) {
    for (const Command& cmd : slots_.begin()->second->cmds)
      slotted_keys_.erase(cmd.key());
    slots_.erase(slots_.begin());
  }
  // Executions free pipeline room; admit whatever is queued behind it.
  maybe_flush_batch();
}

void ReplicaCore::execute(Slot& slot, SeqNum seq) {
  if (world().simulated()) {
    // Atomicity witness for the explorer: which requests this slot
    // committed as one batch, in execution order (see the batch-atomicity
    // invariant). Transcripts exist only on the simulator.
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
                                latency, "slot", seq);
      output("smr-exec", serde::encode(cmd));
      maybe_checkpoint();
    }
    pending_.erase(cmd.key());
    reply_to(cmd, result);
  }
}

void ReplicaCore::record_execution(const Command& cmd, const Bytes& result) {
  dedup_.record(cmd, result);
  log_.append({cmd, result});
  // The floor may have passed requests the client gave up on; they are
  // settled now, so stop guarding them.
  const auto first = pending_.lower_bound({cmd.client, 0});
  pending_.erase(first,
                 pending_.lower_bound({cmd.client, dedup_.floor(cmd.client)}));
}

void ReplicaCore::reply_to(const Command& cmd, const Bytes& result) {
  Reply reply;
  reply.request_id = cmd.request_id;
  reply.result = result;
  wire::send(*this, cmd.client, kClientReplyCh, reply);
}

// ---- checkpoints ----------------------------------------------------------------

void ReplicaCore::maybe_checkpoint() {
  if (options_.checkpoint_interval == 0) return;
  if (log_.size() % options_.checkpoint_interval != 0) return;
  Checkpoint cp;
  cp.executed = log_.size();
  cp.digest = machine_->digest();
  cp.sig = signer().sign(binding(binding_tag("cp"), cp).buffer());
  protocol_router_.broadcast(cp);
  // A checkpoint boundary is also the durability boundary: crash recovery
  // resumes from the image written here (see DESIGN.md §9).
  persist();
  note_checkpoint_vote(cp.executed, cp.digest, id());
}

void ReplicaCore::handle_checkpoint(ProcessId from, Checkpoint cp) {
  if (cp.sig.key != world().key_of(from)) return;
  if (!world().keys().verify(cp.sig, binding(binding_tag("cp"), cp).buffer()))
    return;
  note_checkpoint_vote(cp.executed, cp.digest, from);
}

void ReplicaCore::note_checkpoint_vote(std::uint64_t executed,
                                       const crypto::Digest& digest,
                                       ProcessId voter) {
  if (executed <= stable_checkpoint_) return;  // already stable
  auto& voters = cp_votes_[executed][digest];
  voters.insert(voter);
  if (voters.size() < protocol_.quorum) return;
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

void ReplicaCore::prune_stable() {
  cp_votes_.erase(cp_votes_.begin(),
                  cp_votes_.upper_bound(stable_checkpoint_));
  // The archive exists to realign peers during view changes; below the
  // stable checkpoint a quorum holds the history durably, and laggards are
  // realigned by state transfer instead — so both the executed prefix and
  // the matching archive entries can go.
  const std::uint64_t upto =
      std::min<std::uint64_t>(stable_checkpoint_, log_.size());
  if (upto <= log_.base()) return;
  for (std::uint64_t k = log_.base(); k < upto; ++k)
    vc_archive_.erase(log_.at(k).command.key());
  log_.prune_to(upto);
}

// ---- view change ----------------------------------------------------------------

// The request clock: each pending request carries its own deadline, and a
// single timer is armed at the earliest. A deadline leaves with its pending_
// entry, so the armed timers stay bounded however many requests the replica
// serves.

void ReplicaCore::arm_request_deadline(Pending& p) {
  p.deadline = world().now() + vc_timeout();
  p.armed_view = view_;
  schedule_request_clock(p.deadline);
}

void ReplicaCore::rearm_pending() {
  for (auto& [key, p] : pending_) arm_request_deadline(p);
}

void ReplicaCore::schedule_request_clock(Time at) {
  if (at >= request_clock_at_) return;  // the armed clock fires first
  request_clock_at_ = at;
  set_timer(at - world().now(), [this, at] {
    if (at != request_clock_at_) return;  // superseded by an earlier arm
    request_clock_at_ = kTimeMax;
    on_request_clock();
  });
}

void ReplicaCore::on_request_clock() {
  const Time now = world().now();
  bool expired = false;
  Time next = kTimeMax;
  for (auto& [key, p] : pending_) {
    if (p.deadline > now) {
      next = std::min(next, p.deadline);
      continue;
    }
    // Consumed whatever happens below: a deadline from an earlier view, or
    // one that passes during a view change (one attempt at a time), waits
    // for the next re-arm.
    expired = expired || p.armed_view == view_;
    p.deadline = kTimeMax;
  }
  if (next != kTimeMax) schedule_request_clock(next);
  // Still pending after a full timeout in the same view: the primary is
  // not making progress for us.
  if (expired && !in_view_change_) start_view_change(view_ + 1);
}

void ReplicaCore::start_view_change(ViewNum target) {
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
  for (const auto& [key, p] : pending_) vc.pending.push_back(p.cmd);
  vc.sig = signer().sign(binding(binding_tag("vc"), vc).buffer());
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

void ReplicaCore::abandon_view_change() {
  in_view_change_ = false;
  world().metrics().add("smr.view_changes_abandoned");
  // Replay whatever the attempt made us buffer for the view we never left.
  replay_view(view_);
  // Nobody else suspected the primary, so the cluster is likely fine and
  // this replica the one behind (a recovered replica whose pending requests
  // were executed without it, say): ask for the state it lacks. A bundle
  // settles those requests, and without one they would keep demanding view
  // changes nothing supports, forever.
  begin_state_sync();
  // Anything still unserved gets a fresh deadline (and hence a fresh
  // chance to demand a view change, now or under a later, supported
  // attempt).
  rearm_pending();
}

void ReplicaCore::handle_view_change(ProcessId from, ViewChange vc) {
  if (vc.target <= view_) return;
  if (vc.sig.key != world().key_of(from)) return;
  if (!world().keys().verify(vc.sig, binding(binding_tag("vc"), vc).buffer()))
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

void ReplicaCore::maybe_assume_primacy(ViewNum target) {
  if (primary_of(target) != id()) return;
  if (target <= view_) return;
  // Merge quorum: the protocol's certificate, widened to n - f. The count
  // must intersect every commit quorum, or a slot committed at a replica
  // outside the reports vanishes from the new view's re-proposals and the
  // logs fork. At n = 2f + 1 (MinBFT, quorum f + 1) and n = 3f + 1 (PBFT,
  // quorum 2f + 1) the widening is a no-op; above those sizes the bare
  // certificate no longer intersects (e.g. f + 1 reports against a MinBFT
  // commit quorum of f + 1 at n = 4, f = 1), and pipelined slots keep
  // enough proposals in flight at view-change time to hit that hole
  // constantly.
  const std::size_t merge_quorum =
      std::max<std::size_t>(protocol_.quorum, n() - options_.f);
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
  nv.sig = signer().sign(binding(binding_tag("nv"), nv).buffer());
  protocol_router_.broadcast(nv);
  enter_view(target);

  // Re-propose in a consistent order: every reported slot, ranked by its
  // most RECENT reported (view, seq) — newest view first, seq order within
  // a view — then never-slotted requests in deterministic key order.
  // Exactly-once is preserved by per-client deduplication at execution
  // time.
  //
  // Why newest view first: the order must extend every correct replica's
  // execution order above the stable frontier. If some replica executed A
  // before B there, B's commit quorum intersects this merge quorum, so a
  // reporter accepted B's latest slot — and within a view, accepts are
  // prefixes of the proposal stream (MinBFT: per-primary USIG sequencing;
  // PBFT: the prepare phase), so that reporter accepted A's slot in the
  // same view too (agendas re-propose A before B inductively). Hence A's
  // newest reported view >= B's, and ranking views downward never inverts
  // an executed pair. Ascending original (view, seq) — the obvious order —
  // is WRONG: a stale slot from an old view that never committed (so was
  // never executed, never pruned) sorts ahead of newer slots, and a replica
  // that executed one of those newer slots pre-view-change holds its
  // command at an earlier log position than peers replaying the agenda —
  // divergent logs (found by the batching sweep under pipelined view
  // changes).
  //
  // Batch members share their slot's (view, seq); stable sort keeps their
  // first-reported (= batch) order.
  std::map<std::pair<ProcessId, std::uint64_t>, std::size_t> index;
  std::vector<VcEntry> ranked;
  std::map<std::pair<ProcessId, std::uint64_t>, Command> loose;
  for (const auto& [reporter, report] : it->second) {
    for (const VcEntry& e : report.entries) {
      auto [pos, fresh] = index.emplace(e.cmd.key(), ranked.size());
      if (fresh) {
        ranked.push_back(e);
      } else if (e.order() > ranked[pos->second].order()) {
        ranked[pos->second].view = e.view;
        ranked[pos->second].seq = e.seq;
      }
    }
    for (const Command& cmd : report.pending) loose.emplace(cmd.key(), cmd);
  }
  std::stable_sort(ranked.begin(), ranked.end(),
                   [](const VcEntry& a, const VcEntry& b) {
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
    guard(cmd);
    enqueue(cmd);
  };
  for (const VcEntry& e : ranked) consider(e.cmd);
  for (const auto& [key, cmd] : loose) consider(cmd);
  // Re-proposals go through the batcher like any admission, so they
  // regroup into fresh batches under the new view's order numbers.
  maybe_flush_batch();
}

void ReplicaCore::handle_new_view(ProcessId from, NewView nv) {
  if (nv.target <= view_) return;
  if (from != primary_of(nv.target)) return;
  if (nv.sig.key != world().key_of(from)) return;
  if (!world().keys().verify(nv.sig, binding(binding_tag("nv"), nv).buffer()))
    return;
  exec_floor_ = std::max(exec_floor_, nv.executed);
  enter_view(nv.target);
  // Pending requests restart their deadlines under the new primary.
  rearm_pending();
  // Below the floor the primary's re-proposals cannot realign us (they sit
  // above its stable checkpoint); fetch the missing prefix explicitly.
  if (log_.size() < exec_floor_) begin_state_sync();
}

void ReplicaCore::enter_view(ViewNum v) {
  if (in_view_change_) {
    const Time dur = world().now() - vc_started_at_;
    world().metrics().histogram("smr.view_change_ticks").record(dur);
    world().tracer().complete("view-change", "smr", id(), vc_started_at_, dur,
                              "view", v);
  }
  view_ = v;
  in_view_change_ = false;
  vc_backoff_ = 0;  // a view actually entered resets the failure streak
  reset_view_window(protocol_.first_slot);
  // Per-view batching state dies with the view: queued commands stay in
  // pending_ (and in peers' view-change reports), so the new primary —
  // whoever it is — re-admits them.
  batch_queue_.clear();
  queued_keys_.clear();
  if (deferred_primacy_ && *deferred_primacy_ <= v) deferred_primacy_.reset();
  persist();  // view entry is a durability boundary (see DESIGN.md §9)
  // Replay protocol messages that arrived for this view before we entered
  // it, and drop anything for views that can no longer happen.
  replay_view(v);
}

void ReplicaCore::reset_view_window(SeqNum next) {
  slots_.clear();
  slotted_keys_.clear();
  next_exec_ = next;
  on_view_reset();
}

void ReplicaCore::replay_view(ViewNum v) {
  view_waiting_.erase(view_waiting_.begin(), view_waiting_.lower_bound(v));
  auto it = view_waiting_.find(v);
  if (it == view_waiting_.end()) return;
  std::vector<std::function<void()>> actions = std::move(it->second);
  view_waiting_.erase(it);
  for (auto& fn : actions) fn();
}

// ---- crash recovery (DESIGN.md §9) ----------------------------------------------

ReplicaImage ReplicaCore::capture() const {
  ReplicaImage img;
  img.view = view_;
  img.next_exec = next_exec_;
  img.streams = streams();
  img.stable = stable_checkpoint_;
  img.exec_floor = exec_floor_;
  img.log = log_;
  img.machine_snapshot = machine_->snapshot();
  img.dedup = dedup_;
  return img;
}

void ReplicaCore::persist() {
  world().durable(id()).put_value(durable_key(), capture());
}

void ReplicaCore::reload(sim::DurableStore& durable) {
  // Everything volatile is gone; rebuild from the durable image (or from
  // scratch when we crashed before the first checkpoint).
  view_ = 0;
  in_view_change_ = false;
  vc_target_ = 0;
  vc_backoff_ = 0;
  reset_view_window(protocol_.first_slot);
  view_waiting_.clear();
  pending_.clear();
  request_clock_at_ = kTimeMax;  // pre-crash timers never fire
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
  batch_flushing_ = false;
  machine_->restore(initial_snapshot_);
  if (const auto img = durable.get_value<ReplicaImage>(durable_key())) {
    view_ = img->view;
    next_exec_ = img->next_exec;
    stable_checkpoint_ = img->stable;
    exec_floor_ = img->exec_floor;
    log_ = img->log;
    machine_->restore(img->machine_snapshot);
    dedup_ = img->dedup;
    adopt_streams(img->streams);
  }
  ++recoveries_;
  world().metrics().add("smr.recoveries");
  vc_started_at_ = 0;
  state_sync_started_at_ = 0;
  last_checkpoint_at_ = world().now();
}

bool ReplicaCore::needs_state() const {
  return log_.size() < exec_floor_ || deferred_primacy_.has_value();
}

void ReplicaCore::begin_state_sync() {
  if (!state_probe_) state_sync_started_at_ = world().now();
  state_probe_ = true;
  state_attempts_ = 0;
  send_state_request();
  arm_state_retry();
}

void ReplicaCore::send_state_request() {
  StateRequest req;
  req.have = log_.size();
  protocol_router_.broadcast(req);
}

void ReplicaCore::arm_state_retry() {
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

void ReplicaCore::handle_state_request(ProcessId from, StateRequest req) {
  if (from == id()) return;
  if (log_.size() <= req.have) return;  // nothing the requester lacks
  StateReply rep;
  rep.image = capture();
  rep.sig = signer().sign(binding(binding_tag("state"), rep).buffer());
  protocol_router_.send(from, rep);
}

void ReplicaCore::handle_state_reply(ProcessId from, StateReply rep) {
  if (from == id()) return;
  // Signed by the responding replica: a Byzantine network cannot forge a
  // bundle, only replay one — and stale bundles are ignored below.
  if (rep.sig.key != world().key_of(from)) return;
  if (!world().keys().verify(
          rep.sig, binding(binding_tag("state"), rep).buffer()))
    return;
  install_bundle(rep.image);
}

void ReplicaCore::install_bundle(const ReplicaImage& b) {
  const ViewNum was_view = view_;
  if (b.log.size() > log_.size()) {
    log_ = b.log;
    machine_->restore(b.machine_snapshot);
    dedup_ = b.dedup;
    // Witness for the batch-atomicity checker: these commands' effects
    // arrived via state transfer, so no "smr-exec" output will ever record
    // them.
    output("smr-install", serde::encode(InstallWitness::of(dedup_)));
  }
  if (b.stable > stable_checkpoint_) stable_checkpoint_ = b.stable;
  exec_floor_ = std::max(exec_floor_, b.exec_floor);
  if (b.view > view_) {
    // Adopt the responder's view wholesale: our per-view window is void.
    view_ = b.view;
    in_view_change_ = false;
    reset_view_window(b.next_exec);
  } else if (b.view == view_ && !in_view_change_ &&
             b.next_exec > next_exec_) {
    // The responder executed further into this view than we did (or we
    // have not seen this view's first proposal yet); every slot it passed
    // is in the installed log (or dedup'd), so resuming from its cursor
    // skips nothing uncommitted.
    next_exec_ = b.next_exec;
  }
  prune_stable();
  persist();
  if (view_ > was_view) {
    if (deferred_primacy_ && *deferred_primacy_ <= view_)
      deferred_primacy_.reset();
    // Mirror enter_view's buffered-action replay for the adopted view.
    replay_view(view_);
    rearm_pending();
  }
  // Adopt the responder's stream positions: it processed those messages,
  // so their effects are inside the installed log.
  adopt_streams(b.streams);
  try_execute();
  // Requests that arrived before the install but were executed elsewhere
  // are settled by the bundle; drop them, or their deadlines would hunt for
  // a view change nothing needs, forever.
  for (auto it = pending_.begin(); it != pending_.end();)
    it = dedup_.settled(it->second.cmd) ? pending_.erase(it) : ++it;
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
