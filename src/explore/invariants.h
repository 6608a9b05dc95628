// Invariant registry: reusable, pluggable execution checkers.
//
// After a run, an ExplorationContext is assembled from whatever views the
// harness has — SMR execution logs, client completion counts, per-process
// transcripts, round histories — and every registered invariant is asked
// for a violation witness. Checkers are defensive about missing views: an
// invariant whose inputs are absent reports nothing (vacuously holds), so
// one registry serves SMR sweeps, round-based protocols and SRB runs alike.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "agreement/smr.h"
#include "rounds/checkers.h"
#include "sim/transcript.h"
#include "sim/world.h"

namespace unidir::explore {

/// One correct replica's post-run state, as seen by SMR checkers.
struct SmrReplicaView {
  ProcessId id = kNoProcess;
  const agreement::ExecutionLog* log = nullptr;
  std::uint64_t executed = 0;
  crypto::Digest digest{};
};

/// Everything checkers may inspect. Views that don't apply to the run are
/// simply left empty.
struct ExplorationContext {
  const sim::World* world = nullptr;
  /// Correct replicas only — the paper's guarantees quantify over them.
  std::vector<SmrReplicaView> smr;
  std::uint64_t completed = 0;
  std::uint64_t expected = 0;
  /// (id, transcript) of every correct process, for transcript checkers.
  std::vector<std::pair<ProcessId, const sim::Transcript*>> transcripts;
  /// Round histories of correct processes, for directionality checkers.
  std::vector<rounds::ProcessHistory> histories;
};

struct InvariantViolation {
  std::string invariant;
  std::string message;

  std::string describe() const { return invariant + ": " + message; }
};

struct Invariant {
  std::string name;
  std::function<std::optional<std::string>(const ExplorationContext&)> check;
};

class InvariantRegistry {
 public:
  InvariantRegistry& add(Invariant inv);

  /// Runs every invariant; returns the first violation found, or nullopt.
  std::optional<InvariantViolation> check(const ExplorationContext& ctx) const;

  const std::vector<Invariant>& invariants() const { return invariants_; }

  /// The SMR sweep suite: prefix consistency, digest equality, client
  /// completion.
  static InvariantRegistry standard_smr();

 private:
  std::vector<Invariant> invariants_;
};

// ---- reusable checkers -----------------------------------------------------

/// SMR safety: correct replicas' execution logs are prefix-consistent.
Invariant smr_prefix_consistency();

/// Correct replicas with equal execution counts hold identical state
/// digests.
Invariant smr_digest_equality();

/// Liveness (valid only under eventually-fair adversaries): every client
/// request completed.
Invariant client_completion();

/// Network accounting: every message and byte entering the network (sends,
/// duplicate copies, mutation growth) leaves by delivery, an attributed
/// drop, or is still held; vacuous for runs cut off by the event cap.
Invariant network_byte_conservation();

/// Unidirectionality per round (the paper's Definition): for every pair of
/// correct processes and common round, at least one direction got through.
Invariant unidirectional_rounds();

/// SRB safety/total-order over transcripts: the sequences of outputs with
/// `tag` at correct processes are pairwise prefix-consistent (everyone
/// delivers the same values in the same order, laggards being prefixes).
Invariant tagged_output_total_order(std::string tag = "srb-deliver");

/// Batch atomicity over transcripts (DESIGN.md §11). Replicas emit one
/// "smr-batch" output per executed slot — (view, counter/seq, member
/// keys) — followed by that batch's "smr-exec" outputs; a one-command
/// slot is a batch of one. The checker walks each correct replica's
/// transcript in order and rejects: a command key executed twice
/// (exactly-once broken); an execution that skips ahead of or departs
/// from the open batch's member order; a batch member never executed at
/// all (split batch) — unless an earlier batch already executed it
/// (client-retry dedup) or a state transfer installed it (the
/// "smr-install" witness), the two legal absences. Across replicas, two
/// batches with the same (view, counter) must carry identical member
/// lists.
Invariant batch_atomicity();

/// Deliberately tight bound — NOT a real SMR property. Fails as soon as any
/// replica executes more than `limit` commands; used to validate the
/// record→shrink→replay machinery itself (a guaranteed, deterministic
/// "bug") and by `examples/explore --inject-bug`.
Invariant bounded_executions(std::uint64_t limit);

}  // namespace unidir::explore
