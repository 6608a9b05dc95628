// PBFT-style state machine replication (Castro & Liskov, OSDI'99) — the
// no-trusted-hardware baseline: n = 3f+1 replicas, three communication
// phases, quadratic message complexity.
//
// Normal operation (view v, primary = replicas[v mod n]):
//
//   client   → all : REQUEST(cmd)
//   primary  → all : PRE-PREPARE(v, s, batch)          signed
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
// This class is only the ordering phase. Admission, batching, checkpoints,
// the simplified certificate-carrying view change, state transfer and
// durability are ReplicaCore's, shared with MinBftReplica; PBFT supplies
// its quorum (2f+1 checkpoint votes and view-change reports).
//
// Crash recovery (DESIGN.md §9) uses the core's durable image at
// checkpoint/view boundaries, STATE-REQUEST/STATE-REPLY checkpoint state
// transfer, a NEW-VIEW execution floor, and primacy deferral below the
// reported stable frontier. PBFT has no trusted device, so there is no
// RECOVER announcement; instead an honest restarted *primary* must not
// reuse a sequence number it already assigned (that would be equivocation
// by amnesia — caught by the prepare phase, but a needless stall), so the
// primary journals (view, next sequence) durably on every propose.
#pragma once

#include "agreement/replica_core.h"

namespace unidir::agreement {

/// PBFT's ordering-phase wire messages; defined in pbft.cpp, routed by tag
/// through the replica's protocol router.
namespace pbft_wire {
struct PrePrepare;
struct Prepare;
struct Commit;
}  // namespace pbft_wire

class PbftReplica final : public ReplicaCore {
 public:
  using Options = ReplicaCore::Options;

  PbftReplica(Options options, std::unique_ptr<StateMachine> machine);

  /// Builds a signed PRE-PREPARE wire message outside any replica — one
  /// signature over the batch digest — so adversarial tests can drive
  /// Byzantine primaries by hand (including malformed batches).
  static Bytes encode_preprepare_for_test(const crypto::Signer& signer,
                                          ViewNum view, SeqNum seq,
                                          const std::vector<Command>& cmds);

 protected:
  void on_recover(sim::DurableStore& durable) override;

 private:
  struct Slot : ReplicaCore::Slot {
    crypto::Digest digest{};  // the batch digest, as voted on
    bool sent_prepare = false;
    bool sent_commit = false;
    std::map<crypto::Digest, std::set<ProcessId>> prepares;  // digest -> voters
    std::map<crypto::Digest, std::set<ProcessId>> commits;
  };

  // the ordering phase (see ReplicaCore)
  void propose(std::vector<Command> cmds) override;
  std::unique_ptr<ReplicaCore::Slot> make_slot() const override {
    return std::make_unique<Slot>();
  }
  bool committed(const ReplicaCore::Slot& slot) const override;
  std::size_t inflight_slots() const override {
    return next_propose_seq_ > next_exec_
               ? static_cast<std::size_t>(next_propose_seq_ - next_exec_)
               : 0;
  }
  void on_view_reset() override { next_propose_seq_ = 1; }

  void handle_preprepare(ProcessId from, pbft_wire::PrePrepare pp);
  void handle_prepare(ProcessId from, pbft_wire::Prepare v);
  void handle_commit(ProcessId from, pbft_wire::Commit v);

  /// Sends this replica's COMMIT once the slot is prepared, then executes
  /// whatever became committed.
  void step(SeqNum seq);
  /// Journals (view, next sequence) on every propose, so a restarted
  /// honest primary never reassigns a used sequence number.
  void persist_journal();

  SeqNum next_propose_seq_ = 1;  // primary's next sequence number
};

}  // namespace unidir::agreement
