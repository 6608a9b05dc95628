// The replica skeleton MinBFT and PBFT share. The paper's claim is that a
// trusted log buys non-equivocation and nothing else, so the two protocols
// differ only in their ordering phase and quorum sizes; everything else
// lives here, once:
//
//   - client admission and the reply cache (exactly-once execution);
//   - the batcher and pipeline: admitted requests queue at the primary and
//     leave as batches; a one-command slot is simply a batch of one;
//   - the execute loop, with its "smr-batch"/"smr-install" witnesses for
//     the explorer's batch-atomicity invariant;
//   - checkpoints, and pruning below the stable one;
//   - view change: VIEW-CHANGE/NEW-VIEW, the newest-view-first re-proposal
//     agenda, backoff and abandon;
//   - STATE-REQUEST/STATE-REPLY checkpoint state transfer;
//   - the durable image and the crash-recovery skeleton (DESIGN.md §9).
//
// A protocol derives from ReplicaCore and supplies its ordering phase:
// propose() for the primary, handlers for its own messages that fill
// slots via accept(), and committed() to say when a slot may execute.
// It also supplies its certificate size (Protocol::quorum): f+1 with
// trusted counters, 2f+1 without.
#pragma once

#include <algorithm>
#include <deque>
#include <memory>
#include <set>
#include <string>

#include "agreement/client.h"
#include "agreement/smr.h"
#include "sim/world.h"
#include "wire/router.h"

namespace unidir::agreement {

/// An accepted command as archived for (and reported in) view changes:
/// (view, seq) preserves the original proposal order. `seq` is the slot's
/// order number — MinBFT's primary USIG counter, PBFT's sequence number.
struct VcEntry {
  ViewNum view = 0;
  SeqNum seq = 0;
  Command cmd;

  std::pair<ViewNum, SeqNum> order() const { return {view, seq}; }

  static auto fields(auto& m) { return std::tie(m.view, m.seq, m.cmd); }
};

/// The shared wire messages; defined in replica_core.cpp. They carry tags
/// 1-5 on the protocol's channel; ordering phases number theirs from 6.
namespace replica_wire {
struct Checkpoint;
struct ViewChange;
struct NewView;
struct StateRequest;
struct StateReply;
struct ReplicaImage;
}  // namespace replica_wire

class ReplicaCore : public sim::Process {
 public:
  struct Options {
    std::vector<ProcessId> replicas;  // ids, in rank order; includes self
    std::size_t f = 0;
    Time view_change_timeout = 300;
    SeqNum checkpoint_interval = 16;
    /// Max client requests amortized into one slot: a cap, not a wait. A
    /// batch leaves when this many are queued, or at once when the primary
    /// has no slot in flight (see maybe_flush_batch).
    std::size_t batch_size = 32;
    /// Max proposed-but-unexecuted slots the primary keeps in flight.
    /// batch_size = pipeline_depth = 1 means one command per slot and no
    /// in-flight bound (see inflight_limit_).
    std::size_t pipeline_depth = 4;
  };

  // -- introspection ---------------------------------------------------------
  ViewNum view() const { return view_; }
  bool is_primary() const { return primary_of(view_) == id(); }
  const ExecutionLog& execution_log() const { return log_; }
  std::uint64_t executed_count() const { return log_.size(); }
  crypto::Digest state_digest() const { return machine_->digest(); }
  /// Highest execution count agreed stable via checkpoints.
  std::uint64_t stable_checkpoint() const { return stable_checkpoint_; }
  std::uint64_t view_changes_seen() const { return view_changes_; }
  /// Times this replica came back from a crash.
  std::uint64_t recoveries() const { return recoveries_; }
  /// Commands retained for view-change reports (pruned below stable).
  std::size_t vc_archive_size() const { return vc_archive_.size(); }
  /// Slots of the current view not yet behind the execution cursor.
  std::size_t open_slots() const { return slots_.size(); }
  /// The reply cache: per-client floors and reply windows.
  const ExecutionDeduper& reply_cache() const { return dedup_; }

 protected:
  /// What a protocol tells the core about itself.
  struct Protocol {
    /// Prefix of every signed binding ("<name>-cp", ...) and of the durable
    /// key ("<name>/state"): keeps the shared messages domain-separated.
    std::string name;
    sim::Channel channel = 0;
    /// Matching checkpoint votes that make a checkpoint stable. A new
    /// primary also waits for max(quorum, n - f) view-change reports.
    std::size_t quorum = 0;
    /// The execution cursor at the start of a view; 0 means "unset until
    /// the view's first proposal fixes it".
    SeqNum first_slot = 0;
  };

  /// One ordering slot of the current view, keyed by its order number.
  /// Protocols derive their vote bookkeeping from it (see make_slot).
  struct Slot {
    Slot() = default;
    Slot(const Slot&) = delete;
    Slot& operator=(const Slot&) = delete;
    virtual ~Slot() = default;

    std::vector<Command> cmds;  // the batch, in execution order; empty
                                // until the proposal is accepted
    Time accepted_at = 0;       // when this replica accepted the proposal
  };

  ReplicaCore(const Options& options, Protocol protocol,
              std::unique_ptr<StateMachine> machine);

  void on_start() override;

  // -- the ordering phase: what a protocol supplies --------------------------
  /// As primary: orders one batch — broadcast the proposal and accept it
  /// locally (the slot then executes through try_execute).
  virtual void propose(std::vector<Command> cmds) = 0;
  virtual std::unique_ptr<Slot> make_slot() const = 0;
  /// The accepted slot has the votes to execute.
  virtual bool committed(const Slot& slot) const = 0;
  /// This primary's proposed-but-unexecuted slots, in constant time.
  virtual std::size_t inflight_slots() const = 0;
  /// Per-view proposal state is void (view entry, view adoption, recovery).
  virtual void on_view_reset() {}
  /// Per-sender stream positions the protocol orders messages by (MinBFT:
  /// each peer's highest processed USIG counter). They travel in the
  /// durable image and in state-transfer replies; adopting them raises
  /// this replica's record for every peer but itself.
  virtual std::map<ProcessId, SeqNum> streams() const { return {}; }
  virtual void adopt_streams(const std::map<ProcessId, SeqNum>&) {}

  // -- services for the ordering phase ---------------------------------------
  ProcessId primary_of(ViewNum v) const {
    return options_.replicas[static_cast<std::size_t>(v) %
                             options_.replicas.size()];
  }
  std::size_t n() const { return options_.replicas.size(); }
  bool is_replica(ProcessId p) const;

  /// The slot at order number `seq`, created on first sight; nullptr for
  /// order numbers behind the execution cursor, whose slots are executed
  /// and dropped (late messages must not re-open them).
  Slot* open_slot(SeqNum seq);
  /// Fills an open slot with its proposal and archives every member for
  /// view changes. Batch members share the slot's (view, seq), in batch
  /// order, so a new primary can rebuild proposal order command by command
  /// even if it only ever saw parts of the history.
  void accept(SeqNum seq, Slot& slot, std::vector<Command> cmds);
  /// Guards a command in flight under this view with a request deadline,
  /// even if its client's REQUEST never reached us directly.
  void guard(const Command& cmd);
  /// Runs `action` now if `view` is current and stable; buffers it until
  /// enter_view(view) if the view is in the future (or being changed to);
  /// drops it if the view is past. NEW-VIEW and the first proposals of a
  /// view race on an asynchronous network; without this, a replica that
  /// sees a proposal first would silently lose it. Only a buffered action
  /// is type-erased (and so allocated).
  template <class F>
  void when_in_view(ViewNum view, F&& action) {
    if (view < view_) return;  // stale
    if (view == view_ && !in_view_change_) {
      action();
      return;
    }
    view_waiting_[view].emplace_back(std::forward<F>(action));
  }
  /// Executes every committed slot at the cursor, then drops the slots the
  /// cursor has passed (never inside execute(), which holds a Slot&), then
  /// admits whatever the freed pipeline room lets through.
  void try_execute();

  /// Reloads the durable image after a crash (everything volatile is
  /// reset first). Protocols call it from on_recover, then do their own
  /// recovery steps and begin_state_sync().
  void reload(sim::DurableStore& durable);
  /// Writes the durable image; checkpoint boundaries and view entries are
  /// the durability boundaries (DESIGN.md §9).
  void persist();
  void begin_state_sync();

  Options options_;
  /// Replica-to-replica protocol traffic, with a replicas-only admission
  /// filter: the decode boundary for the shared messages and the ordering
  /// phase's own.
  wire::Router protocol_router_;

  ViewNum view_ = 0;
  bool in_view_change_ = false;
  std::map<SeqNum, std::unique_ptr<Slot>> slots_;  // this view's, by seq
  SeqNum next_exec_ = 0;  // the next slot to execute (per view)

 private:
  // client requests and execution
  void on_request(ProcessId from, Command cmd);
  void execute(Slot& slot, SeqNum seq);
  /// Applies a fresh execution's bookkeeping: reply cache, floor, log, and
  /// the pending requests the floor settled.
  void record_execution(const Command& cmd, const Bytes& result);
  void reply_to(const Command& cmd, const Bytes& result);

  /// The batcher: queue admission, then the flush rule (a full batch, or an
  /// idle pipeline; pipeline room either way) that hands batches to
  /// propose().
  void enqueue(Command cmd);
  void maybe_flush_batch();

  // checkpoints
  void maybe_checkpoint();
  void handle_checkpoint(ProcessId from, replica_wire::Checkpoint cp);
  void note_checkpoint_vote(std::uint64_t executed,
                            const crypto::Digest& digest,
                            ProcessId voter);
  /// Prunes the execution-log prefix, the view-change archive, and dead
  /// checkpoint votes below the stable checkpoint.
  void prune_stable();

  // view change
  struct Pending;
  /// Restarts a pending request's deadline: vc_timeout() from now, in this
  /// view.
  void arm_request_deadline(Pending& p);
  /// Restarts every pending request's deadline (a new view, an abandoned
  /// attempt, an adopted view).
  void rearm_pending();
  /// Makes the one request clock fire no later than `at`.
  void schedule_request_clock(Time at);
  /// The request clock: consumes every passed deadline and, if one was armed
  /// in this view outside a view change, demands view view_ + 1.
  void on_request_clock();
  void start_view_change(ViewNum target);
  /// Gives up an unsupported view-change attempt and rejoins the current
  /// view (replaying the messages buffered during the attempt).
  void abandon_view_change();
  void handle_view_change(ProcessId from, replica_wire::ViewChange vc);
  void maybe_assume_primacy(ViewNum target);
  void handle_new_view(ProcessId from, replica_wire::NewView nv);
  void enter_view(ViewNum v);
  /// Drops the per-view ordering state; the cursor restarts at `next`.
  void reset_view_window(SeqNum next);
  /// Drops actions buffered for views before `v` and runs those for `v`.
  void replay_view(ViewNum v);

  // state transfer
  /// Copies the recoverable state into the image that persist() stores
  /// and a StateReply carries.
  replica_wire::ReplicaImage capture() const;
  void handle_state_request(ProcessId from, replica_wire::StateRequest req);
  void handle_state_reply(ProcessId from, replica_wire::StateReply rep);
  void install_bundle(const replica_wire::ReplicaImage& b);
  bool needs_state() const;
  void send_state_request();
  void arm_state_retry();

  /// "<name>-<kind>": the domain tag of one signed binding.
  std::string binding_tag(std::string_view kind) const;
  std::string durable_key() const { return protocol_.name + "/state"; }

  const Protocol protocol_;
  std::unique_ptr<StateMachine> machine_;
  wire::Router request_router_;  // the decode boundary for client requests
  Bytes initial_snapshot_;  // pristine machine state, for blank recoveries
  /// The primary's in-flight bound: pipeline_depth, except that the default
  /// knobs (batch_size = pipeline_depth = 1) mean no bound — every admitted
  /// request is proposed at once, in its own slot.
  std::size_t inflight_limit_ = 0;

  ViewNum vc_target_ = 0;
  // Consecutive failed view-change attempts (escalations + abandonments)
  // since the last successful view entry. Doubles the view-change timers
  // up to 64x so repeated failed views probe ever more patiently instead
  // of re-firing at a fixed period into a cluster that needs longer to
  // heal (e.g. a partitioned or restarting quorum).
  std::uint32_t vc_backoff_ = 0;
  Time vc_timeout() const {
    return options_.view_change_timeout
           << std::min<std::uint32_t>(vc_backoff_, 6);
  }

  // Actions waiting for a future view to start.
  std::map<ViewNum, std::vector<std::function<void()>>> view_waiting_;

  // Client-facing state. pending_ never holds a settled command: entries
  // leave when they execute or their client's floor passes them, and their
  // deadlines leave with them.
  struct Pending {
    Command cmd;
    /// When this request times out; kTimeMax once consumed.
    Time deadline = kTimeMax;
    ViewNum armed_view = 0;  // the view its deadline was armed in
  };
  std::map<std::pair<ProcessId, std::uint64_t>, Pending> pending_;
  /// When the one armed request-clock timer fires (kTimeMax: none armed).
  /// Timers cannot be cancelled: one that fires when this names another
  /// instant, or was already served, does nothing.
  Time request_clock_at_ = kTimeMax;
  ExecutionDeduper dedup_;
  ExecutionLog log_;

  // Primary state: admitted-but-unproposed requests in arrival order, with
  // key sets for O(log n) duplicate admission checks. slotted_keys_ holds
  // the commands of this view's open slots: a command occupies at most one
  // open slot per view, and a settled one never reaches the queue.
  std::deque<Command> batch_queue_;
  std::set<std::pair<ProcessId, std::uint64_t>> queued_keys_;
  std::set<std::pair<ProcessId, std::uint64_t>> slotted_keys_;
  bool batch_flushing_ = false;  // re-entrancy guard for the flush loop

  // Checkpoints.
  std::uint64_t stable_checkpoint_ = 0;
  std::map<std::uint64_t, std::map<crypto::Digest, std::set<ProcessId>>>
      cp_votes_;

  // View change bookkeeping.
  struct VcReport {
    std::vector<VcEntry> entries;
    std::vector<Command> pending;
    std::uint64_t stable = 0;  // reporter's stable checkpoint
  };
  /// Every accepted command not yet covered by a stable checkpoint.
  VcArchive<VcEntry> vc_archive_;
  std::map<ViewNum, std::map<ProcessId, VcReport>> vc_msgs_;
  std::uint64_t view_changes_ = 0;

  // Crash-recovery state.
  std::uint64_t recoveries_ = 0;
  /// Replicas below a NEW-VIEW's announced execution count must not
  /// execute *fresh* commands (which would append to the log at the wrong
  /// index) until state transfer raises the log to the floor; dedup'd
  /// re-executions stay allowed.
  std::uint64_t exec_floor_ = 0;
  /// Target view whose primacy we postponed until state transfer brings us
  /// to the reported stable frontier (archives are pruned below it).
  std::optional<ViewNum> deferred_primacy_;
  bool state_probe_ = false;       // a state-transfer round is in flight
  unsigned state_attempts_ = 0;    // retransmissions used this round

  // Observability anchors: virtual-time starts for in-progress episodes,
  // recorded into World::metrics() when the episode ends.
  Time vc_started_at_ = 0;          // first start_view_change of an episode
  Time state_sync_started_at_ = 0;  // begin_state_sync of the current round
  Time last_checkpoint_at_ = 0;     // previous stable-checkpoint instant
};

}  // namespace unidir::agreement
