// MinBFT-style state machine replication on trusted counters (Veronese et
// al., "Efficient Byzantine Fault-Tolerance", IEEE TC 2012) — the flagship
// application of the paper's trusted-log class: with a USIG per replica,
// BFT SMR needs only n = 2f+1 replicas and two communication phases,
// versus PBFT's n = 3f+1 and three phases.
//
// Normal operation (view v, primary = replicas[v mod n]):
//
//   client   → all      : REQUEST(cmd)
//   primary  → all      : PREPARE(v, batch, UI_p)       UI_p from its USIG
//   replica  → all      : COMMIT(v, batch, UI_p, UI_i)  on accepting PREPARE
//   everyone executes the batch once f+1 replicas (the primary's PREPARE
//   counts as its COMMIT) have committed it, in UI_p-counter order; replies
//   to each client, which waits for f+1 matching replies. A batch is one
//   command or more (see ReplicaCore::Options::batch_size).
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
// This class is only the ordering phase; admission, batching, checkpoints,
// view change, state transfer and durability are ReplicaCore's.
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

#include "agreement/replica_core.h"
#include "agreement/usig_directory.h"

namespace unidir::agreement {

/// MinBFT's ordering-phase wire messages; defined in minbft.cpp, routed by
/// tag through the replica's protocol router.
namespace minbft_wire {
struct Prepare;
struct Commit;
struct Recover;
}  // namespace minbft_wire

class MinBftReplica final : public ReplicaCore {
 public:
  struct Options : ReplicaCore::Options {
    /// Commit quorum size; 0 means the MinBFT default of f+1. Larger
    /// quorums (up to n) are the conservative-quorum ablation: more
    /// certainty per slot, more latency, and liveness only while that
    /// many replicas are responsive.
    std::size_t commit_quorum = 0;
  };

  MinBftReplica(Options options, UsigDirectory& usigs,
                std::unique_ptr<StateMachine> machine);

  /// Builds a signed PREPARE wire message outside any replica — one UI
  /// over the whole batch — so adversarial tests can drive Byzantine
  /// primaries by hand (including malformed batches).
  static Bytes encode_prepare_for_test(UsigDirectory& usigs, ProcessId as,
                                       ViewNum view,
                                       const std::vector<Command>& cmds);

 protected:
  void on_recover(sim::DurableStore& durable) override;

 private:
  struct Slot : ReplicaCore::Slot {
    trusted::UniqueIdentifier primary_ui;
    std::set<ProcessId> committers;  // includes the primary and self
  };
  Slot& slot_at(SeqNum counter) {
    return static_cast<Slot&>(*slots_.at(counter));
  }

  // the ordering phase (see ReplicaCore)
  void propose(std::vector<Command> cmds) override;
  std::unique_ptr<ReplicaCore::Slot> make_slot() const override {
    return std::make_unique<Slot>();
  }
  bool committed(const ReplicaCore::Slot& slot) const override {
    return static_cast<const Slot&>(slot).committers.size() >=
           commit_quorum_;
  }
  /// A primary's slots are exactly its own open proposals.
  std::size_t inflight_slots() const override { return slots_.size(); }
  std::map<ProcessId, SeqNum> streams() const override { return ui_high_; }
  void adopt_streams(const std::map<ProcessId, SeqNum>& high) override;

  void handle_prepare(ProcessId from, minbft_wire::Prepare p);
  void handle_commit(ProcessId from, minbft_wire::Commit c);
  void handle_recover(ProcessId from, minbft_wire::Recover rc);

  /// The sequential-UI rule of MinBFT: a receiver processes each sender's
  /// UI-stamped messages strictly in counter order. `action` runs when
  /// `counter` becomes due (immediately if already processed — handlers
  /// are idempotent); future counters buffer. Without this rule a
  /// Byzantine primary could fork the log by showing different counters
  /// to different backups.
  void sequenced(ProcessId sender, SeqNum counter,
                 std::function<void()> action);
  /// Forces `sender`'s processed-counter frontier up to `to` (from a
  /// RECOVER announcement or a state-transfer snapshot) and runs whatever
  /// buffered actions became due. Counters at or below the new frontier
  /// run through the idempotent already-due path when they arrive.
  void raise_ui_high(ProcessId sender, SeqNum to);
  void drain_ui(ProcessId sender);

  /// Opens (or merges into) the slot at primary_ui's counter; the view's
  /// first proposal fixes where execution starts. Refuses counters behind
  /// the execution cursor: their slots are executed and dropped, and a
  /// late COMMIT must not re-open them.
  bool accept_slot(ViewNum view, std::vector<Command> cmds,
                   const trusted::UniqueIdentifier& primary_ui);
  /// Casts and broadcasts this replica's COMMIT for an accepted slot
  /// (no-op for the primary, whose PREPARE is its vote).
  void maybe_send_own_commit(SeqNum primary_counter);

  UsigDirectory& usigs_;
  const std::size_t commit_quorum_;

  // Sequential-UI tracking: highest processed counter per sender, and
  // actions waiting for the gap to close.
  std::map<ProcessId, SeqNum> ui_high_;
  std::map<ProcessId, std::map<SeqNum, std::vector<std::function<void()>>>>
      ui_waiting_;
};

}  // namespace unidir::agreement
