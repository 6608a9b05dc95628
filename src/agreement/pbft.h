// PBFT-style state machine replication (Castro & Liskov, OSDI'99) — the
// no-trusted-hardware baseline: n = 3f+1 replicas, three communication
// phases, quadratic message complexity.
//
// Normal operation (view v, primary = replicas[v mod n]):
//
//   client   → all : REQUEST(cmd)
//   primary  → all : PRE-PREPARE(v, s, cmd)            signed
//   replica  → all : PREPARE(v, s, digest)             signed, non-primary
//   *prepared* at 2f PREPAREs matching the PRE-PREPARE
//   replica  → all : COMMIT(v, s, digest)              signed
//   *committed* at 2f+1 COMMITs; execute in s order; reply; client waits
//   for f+1 matching replies.
//
// Compare MinBFT (minbft.h): the 2f+1 quorums and the extra PREPARE phase
// are exactly the cost of having no non-equivocation device — the primary
// could assign one sequence number to two commands, and the prepare phase
// exists to catch that. bench_minbft_vs_pbft measures the difference.
//
// The view change follows the same simplified certificate-carrying scheme
// as MinBftReplica (see that header and DESIGN.md), with PBFT-sized
// quorums (2f+1 view-change messages).
//
// Crash recovery (DESIGN.md §9) mirrors MinBftReplica: a durable image at
// checkpoint/view boundaries, STATE-REQUEST/STATE-REPLY checkpoint state
// transfer, a NEW-VIEW execution floor, and primacy deferral below the
// reported stable frontier. PBFT has no trusted device, so there is no
// RECOVER announcement; instead an honest restarted *primary* must not
// reuse a sequence number it already assigned (that would be equivocation
// by amnesia — caught by the prepare phase, but a needless stall), so the
// primary journals (view, next sequence) durably on every propose.
#pragma once

#include <algorithm>
#include <deque>
#include <set>

#include "agreement/client.h"
#include "agreement/smr.h"
#include "sim/world.h"
#include "wire/router.h"

namespace unidir::agreement {

/// Accepted pre-prepare archived for view changes (same role as
/// MinBftVcEntry).
struct PbftVcEntry {
  ViewNum view = 0;
  SeqNum seq = 0;
  Command cmd;

  std::pair<ViewNum, SeqNum> order() const { return {view, seq}; }

  void encode(serde::Writer& w) const;
  static PbftVcEntry decode(serde::Reader& r);
};

/// PBFT's typed wire messages; defined in pbft.cpp, routed by tag through
/// the replica's wire::Router.
namespace pbft_wire {
struct PrePrepare;
struct Prepare;
struct Commit;
struct Checkpoint;
struct ViewChange;
struct NewView;
struct StateRequest;
struct StateReply;
struct BatchPrePrepare;
}  // namespace pbft_wire

class PbftReplica final : public sim::Process {
 public:
  struct Options {
    std::vector<ProcessId> replicas;  // ids in rank order; includes self
    std::size_t f = 0;
    Time view_change_timeout = 300;
    SeqNum checkpoint_interval = 16;
    /// Max client requests amortized into one slot. With the defaults
    /// (batch_size = 1, pipeline_depth = 1) the replica runs the original
    /// one-command-per-slot wire protocol bit-for-bit; any other setting
    /// switches proposals to BATCH-PRE-PREPARE, where the PREPARE/COMMIT
    /// votes carry the batch digest.
    std::size_t batch_size = 1;
    /// How long (ticks) a non-empty partial batch may wait for more
    /// requests before the primary flushes it anyway. 0 = never hold.
    Time batch_timeout = 4;
    /// Max proposed-but-unexecuted slots the primary keeps in flight.
    std::size_t pipeline_depth = 1;
  };

  PbftReplica(Options options, std::unique_ptr<StateMachine> machine);

  ViewNum view() const { return view_; }
  bool is_primary() const { return primary_of(view_) == id(); }
  const ExecutionLog& execution_log() const { return log_; }
  std::uint64_t executed_count() const { return log_.size(); }
  crypto::Digest state_digest() const { return machine_->digest(); }
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

  /// Builds a signed PRE-PREPARE wire message outside any replica —
  /// exposed so adversarial tests can drive Byzantine primaries by hand.
  static Bytes encode_preprepare_for_test(const crypto::Signer& signer,
                                          ViewNum view, SeqNum seq,
                                          const Command& cmd);
  /// Batched analogue: one signature over the batch digest, so tests can
  /// plant batches (including malformed ones).
  static Bytes encode_batch_preprepare_for_test(
      const crypto::Signer& signer, ViewNum view, SeqNum seq,
      const std::vector<Command>& cmds);

 protected:
  void on_start() override;
  void on_recover(sim::DurableStore& durable) override;

 private:
  struct Slot {
    std::vector<Command> cmds;  // the batch, in execution order (size 1 unbatched)
    Bytes digest;  // digest of the command (or batch), as voted on
    bool have_preprepare = false;
    bool sent_prepare = false;
    bool sent_commit = false;
    bool executed = false;
    Time accepted_at = 0;  // when this replica first saw the pre-prepare
    std::map<Bytes, std::set<ProcessId>> prepares;  // digest -> voters
    std::map<Bytes, std::set<ProcessId>> commits;
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

  void on_request(ProcessId from, Command cmd);
  void handle_preprepare(ProcessId from, pbft_wire::PrePrepare pp);
  void handle_batch_preprepare(ProcessId from,
                               pbft_wire::BatchPrePrepare pp);
  void handle_prepare(ProcessId from, pbft_wire::Prepare v);
  void handle_commit(ProcessId from, pbft_wire::Commit v);
  void handle_checkpoint(ProcessId from, pbft_wire::Checkpoint cp);
  void handle_view_change(ProcessId from, pbft_wire::ViewChange vc);
  void handle_new_view(ProcessId from, pbft_wire::NewView nv);
  void handle_state_request(ProcessId from, pbft_wire::StateRequest req);
  void handle_state_reply(ProcessId from, pbft_wire::StateReply rep);

  // crash recovery (see DESIGN.md §9)
  void persist();
  /// Journals (view, next sequence) on every propose, so a restarted
  /// honest primary never reassigns a used sequence number.
  void persist_journal();
  void prune_stable();
  void note_checkpoint_vote(std::uint64_t executed, const Bytes& digest,
                            ProcessId voter);
  void install_bundle(const pbft_wire::StateReply& b);
  bool needs_state() const;
  void begin_state_sync();
  void send_state_request();
  void arm_state_retry();

  /// Same role as MinBftReplica::when_in_view: run now if `view` is
  /// current and stable, buffer for a future view, drop if past.
  void when_in_view(ViewNum view, std::function<void()> action);

  void propose(const Command& cmd);
  /// Batched proposal path (see Options::batch_size): queue admission,
  /// flush policy, and the BATCH-PRE-PREPARE broadcast itself.
  void enqueue_batch(const Command& cmd);
  void maybe_flush_batch();
  void propose_batch(std::vector<Command> cmds);
  /// Proposed-but-unexecuted slots (the primary's in-flight window).
  std::size_t inflight_slots() const {
    return next_propose_seq_ > next_exec_seq_
               ? static_cast<std::size_t>(next_propose_seq_ - next_exec_seq_)
               : 0;
  }
  /// The slot for a vote or pre-prepare, created on first sight; nullptr
  /// for sequence numbers behind the execution cursor, whose slots are
  /// executed and dropped (late messages must not re-open them).
  Slot* open_slot(SeqNum seq);
  void step(SeqNum seq);
  /// Executes every committed slot at the cursor, then drops the slots the
  /// cursor has passed (never inside execute(), which holds a Slot&).
  void try_execute();
  void execute(Slot& slot, SeqNum seq);
  /// Reply cache, floor, log, and the pending requests the floor settled
  /// (see MinBftReplica::record_execution).
  void record_execution(const Command& cmd, const Bytes& result);
  void reply_to(const Command& cmd, const Bytes& result);
  void maybe_checkpoint();

  void arm_request_timer(const Command& cmd);
  void start_view_change(ViewNum target);
  /// Gives up an unsupported view-change attempt and rejoins the current
  /// view (replaying the messages buffered during the attempt).
  void abandon_view_change();
  void maybe_assume_primacy(ViewNum target);
  void enter_view(ViewNum v);

  Options options_;
  std::unique_ptr<StateMachine> machine_;
  Bytes initial_snapshot_;  // pristine machine state, for blank recoveries

  /// Decode boundaries: client requests, and replica-to-replica protocol
  /// traffic (with a replicas-only admission filter).
  wire::Router request_router_;
  wire::Router protocol_router_;

  ViewNum view_ = 0;
  bool in_view_change_ = false;
  ViewNum vc_target_ = 0;
  // Consecutive failed view-change attempts since the last successful view
  // entry; doubles the view-change timers up to 64x (see MinBftReplica).
  std::uint32_t vc_backoff_ = 0;
  Time vc_timeout() const {
    return options_.view_change_timeout
           << std::min<std::uint32_t>(vc_backoff_, 6);
  }

  std::map<SeqNum, Slot> slots_;  // current-view slots by sequence number
  SeqNum next_propose_seq_ = 1;   // primary's next sequence number
  SeqNum next_exec_seq_ = 1;      // next slot to execute (per view)

  std::map<std::pair<ProcessId, std::uint64_t>, Command> pending_;
  ExecutionDeduper dedup_;
  ExecutionLog log_;

  // Batched-mode primary state (same semantics as MinBftReplica's).
  std::deque<Command> batch_queue_;
  std::set<std::pair<ProcessId, std::uint64_t>> queued_keys_;
  std::set<std::pair<ProcessId, std::uint64_t>> slotted_keys_;
  bool batch_ripe_ = false;
  bool batch_timer_armed_ = false;
  bool batch_flushing_ = false;

  std::uint64_t stable_checkpoint_ = 0;
  std::map<std::uint64_t, std::map<Bytes, std::set<ProcessId>>> cp_votes_;

  struct VcReport {
    std::vector<PbftVcEntry> entries;
    std::vector<Command> pending;
    std::uint64_t stable = 0;  // reporter's stable checkpoint
  };
  /// Every accepted command not yet covered by a stable checkpoint.
  VcArchive<PbftVcEntry> vc_archive_;
  std::map<ViewNum, std::map<ProcessId, VcReport>> vc_msgs_;
  std::map<ViewNum, std::vector<std::function<void()>>> view_waiting_;
  std::uint64_t view_changes_ = 0;

  // Crash-recovery state (same semantics as MinBftReplica's).
  std::uint64_t recoveries_ = 0;
  std::uint64_t exec_floor_ = 0;
  std::optional<ViewNum> deferred_primacy_;
  bool state_probe_ = false;
  unsigned state_attempts_ = 0;

  // Observability anchors: virtual-time starts for in-progress episodes,
  // recorded into World::metrics() when the episode ends.
  Time vc_started_at_ = 0;
  Time state_sync_started_at_ = 0;
  Time last_checkpoint_at_ = 0;
};

}  // namespace unidir::agreement
