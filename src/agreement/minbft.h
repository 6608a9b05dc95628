// MinBFT-style state machine replication on trusted counters (Veronese et
// al., "Efficient Byzantine Fault-Tolerance", IEEE TC 2012) — the flagship
// application of the paper's trusted-log class: with a USIG per replica,
// BFT SMR needs only n = 2f+1 replicas and two communication phases,
// versus PBFT's n = 3f+1 and three phases.
//
// Normal operation (view v, primary = replicas[v mod n]):
//
//   client   → all      : REQUEST(cmd)
//   primary  → all      : PREPARE(v, cmd, UI_p)      UI_p from its USIG
//   replica  → all      : COMMIT(v, cmd, UI_p, UI_i) on accepting PREPARE
//   everyone executes cmd once f+1 replicas (the primary's PREPARE counts
//   as its COMMIT) have committed it, in UI_p-counter order; replies to
//   the client, which waits for f+1 matching replies.
//
// The USIG is the non-equivocation mechanism: the primary cannot assign
// one counter value to two commands, so the order it proposes is unique
// by construction; counter gaps can only stall progress (answered by a
// view change), never fork it.
//
// View change (simplified relative to Veronese et al.; see DESIGN.md):
// replicas that time out on a pending request broadcast VIEW-CHANGE(v+1)
// carrying every command they have accepted-but-not-executed or merely
// buffered; the new primary collects f+1 of them, announces NEW-VIEW and
// re-proposes the union in deterministic order. Exactly-once execution is
// preserved by per-client request-id deduplication. The full protocol
// additionally UI-stamps view-change messages and audits counter
// continuity across views, which matters only for Byzantine behaviour
// *during* view changes; our fault-injection tests cover crash faults at
// arbitrary points plus Byzantine equivocation in normal operation.
//
// Crash recovery (DESIGN.md §9): a replica persists a full image —
// execution log, machine snapshot, reply cache, view window, and its
// record of every peer's UI stream position — into its DurableStore at
// checkpoint boundaries and view entries. on_recover reloads the image,
// announces RECOVER (one fresh UI that tells peers where its own stream
// resumes, since counters consumed but never delivered before the crash
// would leave a permanent gap) and catches up past the image via
// STATE-REQUEST/STATE-REPLY checkpoint state transfer with bounded
// timeout-driven retransmission. The durable image only ever lags truth,
// which for MinBFT's sequential-UI rule errs on the safe side: a stale
// window can stall (answered by state transfer and view changes), never
// skip a committed slot.
#pragma once

#include <algorithm>
#include <deque>
#include <set>

#include "agreement/client.h"
#include "agreement/smr.h"
#include "agreement/usig_directory.h"
#include "sim/world.h"
#include "wire/router.h"

namespace unidir::agreement {

/// An accepted slot as archived for (and reported in) view changes:
/// (view, counter) preserves the original proposal order.
struct MinBftVcEntry {
  ViewNum view = 0;
  SeqNum counter = 0;
  Command cmd;

  std::pair<ViewNum, SeqNum> order() const { return {view, counter}; }

  void encode(serde::Writer& w) const;
  static MinBftVcEntry decode(serde::Reader& r);
};

/// MinBFT's typed wire messages; defined in minbft.cpp, routed by tag
/// through the replica's wire::Router.
namespace minbft_wire {
struct Prepare;
struct Commit;
struct Checkpoint;
struct ViewChange;
struct NewView;
struct StateRequest;
struct StateReply;
struct Recover;
struct BatchPrepare;
struct BatchCommit;
}  // namespace minbft_wire

class MinBftReplica final : public sim::Process {
 public:
  struct Options {
    std::vector<ProcessId> replicas;  // ids, in rank order; includes self
    std::size_t f = 0;
    Time view_change_timeout = 300;
    SeqNum checkpoint_interval = 16;
    /// Commit quorum size; 0 means the MinBFT default of f+1. Larger
    /// quorums (up to n) are the conservative-quorum ablation: more
    /// certainty per slot, more latency, and liveness only while that
    /// many replicas are responsive.
    std::size_t commit_quorum = 0;
    /// Max client requests amortized into one attested slot. With the
    /// defaults (batch_size = 1, pipeline_depth = 1) the replica runs the
    /// original one-command-per-slot wire protocol bit-for-bit; any other
    /// setting switches the proposal path to BATCH-PREPARE/BATCH-COMMIT,
    /// where one UI signs the whole batch digest.
    std::size_t batch_size = 1;
    /// How long (ticks) a non-empty partial batch may wait for more
    /// requests before the primary flushes it anyway. 0 = never hold.
    Time batch_timeout = 4;
    /// Max proposed-but-unexecuted slots the primary keeps in flight.
    std::size_t pipeline_depth = 1;
  };

  MinBftReplica(Options options, UsigDirectory& usigs,
                std::unique_ptr<StateMachine> machine);

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

  /// Builds a signed PREPARE wire message outside any replica — exposed so
  /// adversarial tests can drive Byzantine primaries by hand.
  static Bytes encode_prepare_for_test(UsigDirectory& usigs, ProcessId as,
                                       ViewNum view, const Command& cmd);
  /// Batched analogue of encode_prepare_for_test: one UI over the batch
  /// digest, so tests can plant batches (including malformed ones).
  static Bytes encode_batch_prepare_for_test(UsigDirectory& usigs,
                                             ProcessId as, ViewNum view,
                                             const std::vector<Command>& cmds);

 protected:
  void on_start() override;
  void on_recover(sim::DurableStore& durable) override;

 private:
  struct Slot {
    std::vector<Command> cmds;  // the batch, in execution order (size 1 unbatched)
    trusted::UniqueIdentifier primary_ui;
    std::set<ProcessId> committers;  // includes the primary and self
    bool executed = false;
    Time accepted_at = 0;  // when this replica first saw the proposal
  };

  bool batched() const {
    return options_.batch_size > 1 || options_.pipeline_depth > 1;
  }

  ProcessId primary_of(ViewNum v) const {
    return options_.replicas[static_cast<std::size_t>(v) %
                             options_.replicas.size()];
  }
  std::size_t n() const { return options_.replicas.size(); }
  bool is_replica(ProcessId p) const;

  // message handling
  void on_request(ProcessId from, Command cmd);
  void handle_prepare(ProcessId from, minbft_wire::Prepare p);
  void handle_commit(ProcessId from, minbft_wire::Commit c);
  void handle_batch_prepare(ProcessId from, minbft_wire::BatchPrepare p);
  void handle_batch_commit(ProcessId from, minbft_wire::BatchCommit c);

  /// The sequential-UI rule of MinBFT: a receiver processes each sender's
  /// UI-stamped messages strictly in counter order. `action` runs when
  /// `counter` becomes due (immediately if already processed — handlers
  /// are idempotent); future counters buffer. Without this rule a
  /// Byzantine primary could fork the log by showing different counters
  /// to different backups.
  void sequenced(ProcessId sender, SeqNum counter,
                 std::function<void()> action);

  /// Runs `action` now if `view` is current and stable; buffers it until
  /// enter_view(view) if the view is in the future (or being changed to);
  /// drops it if the view is past. NEW-VIEW and the first PREPAREs of a
  /// view race on an asynchronous network; without this, a replica that
  /// sees the PREPARE first would silently lose it.
  void when_in_view(ViewNum view, std::function<void()> action);
  void handle_checkpoint(ProcessId from, minbft_wire::Checkpoint cp);
  void handle_view_change(ProcessId from, minbft_wire::ViewChange vc);
  void handle_new_view(ProcessId from, minbft_wire::NewView nv);
  void handle_state_request(ProcessId from, minbft_wire::StateRequest req);
  void handle_state_reply(ProcessId from, minbft_wire::StateReply rep);
  void handle_recover(ProcessId from, minbft_wire::Recover rc);

  /// Forces `sender`'s processed-counter frontier up to `to` (from a
  /// RECOVER announcement or a state-transfer snapshot) and runs whatever
  /// buffered actions became due. Counters at or below the new frontier
  /// run through the idempotent already-due path when they arrive.
  void raise_ui_high(ProcessId sender, SeqNum to);
  void drain_ui(ProcessId sender);

  // crash recovery (see DESIGN.md §9)
  void persist();
  /// Prunes the execution-log prefix, the view-change archive, and dead
  /// checkpoint votes below the stable checkpoint.
  void prune_stable();
  void note_checkpoint_vote(std::uint64_t executed, const Bytes& digest,
                            ProcessId voter);
  void install_bundle(const minbft_wire::StateReply& b);
  bool needs_state() const;
  void begin_state_sync();
  void send_state_request();
  void arm_state_retry();

  // normal path
  void propose(const Command& cmd);
  /// Batched proposal path (see Options::batch_size): queue admission,
  /// flush policy (full batch / ripe timeout / pipeline room), and the
  /// BATCH-PREPARE broadcast itself.
  void enqueue_batch(const Command& cmd);
  void maybe_flush_batch();
  void propose_batch(std::vector<Command> cmds);
  /// Proposed-but-unexecuted slots (the primary's in-flight window).
  std::size_t inflight_slots() const;
  /// Opens (or merges into) the slot at primary_ui's counter. Refuses
  /// counters behind the execution cursor: their slots are executed and
  /// dropped, and a late COMMIT must not re-open them.
  bool accept_slot(ViewNum view, const std::vector<Command>& cmds,
                   const trusted::UniqueIdentifier& primary_ui);
  /// Casts and broadcasts this replica's COMMIT for an accepted slot
  /// (no-op for the primary, whose PREPARE is its vote).
  void maybe_send_own_commit(SeqNum primary_counter);
  /// Executes every committed slot at the cursor, then drops the slots the
  /// cursor has passed (never inside execute(), which holds a Slot&).
  void try_execute();
  void execute(Slot& slot);
  /// Applies a fresh execution's bookkeeping: reply cache, floor, log, and
  /// the pending requests the floor settled.
  void record_execution(const Command& cmd, const Bytes& result);
  void reply_to(const Command& cmd, const Bytes& result);
  void maybe_checkpoint();

  // view change
  void arm_request_timer(const Command& cmd);
  void start_view_change(ViewNum target);
  /// Gives up an unsupported view-change attempt and rejoins the current
  /// view (replaying the messages buffered during the attempt).
  void abandon_view_change();
  void maybe_assume_primacy(ViewNum target);
  void enter_view(ViewNum v);

  Options options_;
  UsigDirectory& usigs_;
  std::unique_ptr<StateMachine> machine_;
  Bytes initial_snapshot_;  // pristine machine state, for blank recoveries

  /// Decode boundaries: client requests, and replica-to-replica protocol
  /// traffic (with a replicas-only admission filter).
  wire::Router request_router_;
  wire::Router protocol_router_;

  ViewNum view_ = 0;
  bool in_view_change_ = false;
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

  // Current-view ordering state.
  std::map<SeqNum, Slot> slots_;        // primary UI counter -> slot
  SeqNum view_base_counter_ = 0;        // first accepted counter this view
  SeqNum next_exec_counter_ = 0;        // next counter to execute (0=unset)

  // Sequential-UI tracking: highest processed counter per sender, and
  // actions waiting for the gap to close.
  std::map<ProcessId, SeqNum> ui_high_;
  std::map<ProcessId, std::map<SeqNum, std::vector<std::function<void()>>>>
      ui_waiting_;

  // Actions waiting for a future view to start.
  std::map<ViewNum, std::vector<std::function<void()>>> view_waiting_;

  // Client-facing state. pending_ never holds a settled command: entries
  // leave when they execute or their client's floor passes them.
  std::map<std::pair<ProcessId, std::uint64_t>, Command> pending_;
  ExecutionDeduper dedup_;
  ExecutionLog log_;

  // Batched-mode primary state: admitted-but-unproposed requests in
  // arrival order, with key sets for O(log n) duplicate admission checks.
  // slotted_keys_ (the commands of this view's open slots) also guards the
  // unbatched propose(): a command occupies at most one open slot per view,
  // and a settled one never reaches either path.
  std::deque<Command> batch_queue_;
  std::set<std::pair<ProcessId, std::uint64_t>> queued_keys_;
  std::set<std::pair<ProcessId, std::uint64_t>> slotted_keys_;
  bool batch_ripe_ = false;         // queue head has waited batch_timeout
  bool batch_timer_armed_ = false;
  bool batch_flushing_ = false;     // re-entrancy guard for the flush loop

  // Checkpoints.
  std::uint64_t stable_checkpoint_ = 0;
  std::map<std::uint64_t, std::map<Bytes, std::set<ProcessId>>> cp_votes_;

  // View change bookkeeping.
  struct VcReport {
    std::vector<MinBftVcEntry> entries;
    std::vector<Command> pending;
    std::uint64_t stable = 0;  // reporter's stable checkpoint
  };
  /// Every accepted command not yet covered by a stable checkpoint.
  VcArchive<MinBftVcEntry> vc_archive_;
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
