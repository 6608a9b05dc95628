// Shared scaffolding for the state-machine-replication protocols
// (MinBFT and PBFT): commands, replies, the state-machine interface, and
// the execution log that consistency checkers compare across replicas.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "common/bytes.h"
#include "common/serde.h"
#include "common/types.h"
#include "crypto/sha256.h"
#include "wire/message.h"

namespace unidir::agreement {

/// A client operation to be totally ordered and executed.
struct Command {
  static constexpr wire::MsgDesc kDesc{1, "smr-command"};

  ProcessId client = kNoProcess;
  std::uint64_t request_id = 0;  // per-client, strictly increasing
  Bytes op;
  /// The client's acknowledgement: every request id below this one is
  /// resolved (answered or given up), so replicas may forget their replies
  /// and must never execute them again. 0 acknowledges nothing.
  std::uint64_t acked = 0;

  bool operator==(const Command&) const = default;

  /// Identity for exactly-once execution.
  std::pair<ProcessId, std::uint64_t> key() const {
    return {client, request_id};
  }

  static auto fields(auto& m) {
    return std::tie(m.client, m.request_id, m.op, m.acked);
  }
};

struct Reply {
  static constexpr wire::MsgDesc kDesc{1, "smr-reply"};

  std::uint64_t request_id = 0;
  Bytes result;

  static auto fields(auto& m) { return std::tie(m.request_id, m.result); }
};

/// The replicated application. Determinism is the application's
/// obligation: equal op sequences must produce equal results and digests.
class StateMachine {
 public:
  virtual ~StateMachine() = default;
  virtual Bytes apply(const Bytes& op) = 0;
  /// Digest of the current state (checkpoints compare these).
  virtual crypto::Digest digest() const = 0;
  /// Serializes the full state, for checkpoints that survive a restart and
  /// for checkpoint-based state transfer between replicas.
  virtual Bytes snapshot() const = 0;
  /// Replaces the state with a previously taken snapshot.
  virtual void restore(const Bytes& snap) = 0;
};

/// What a replica executed, in order — the object of the SMR safety
/// property: correct replicas' execution logs must be prefix-consistent.
struct ExecutionRecord {
  Command command;
  Bytes result;

  bool operator==(const ExecutionRecord&) const = default;

  static auto fields(auto& m) { return std::tie(m.command, m.result); }
};

/// A replica's execution history with a prunable prefix. Checkpointing
/// discards records below the stable checkpoint; what remains is the base
/// count, a chained digest over the discarded prefix
/// (d_{i+1} = SHA-256(d_i || encode(record_i)), d_0 = zeros) and the
/// explicit suffix. Two logs can therefore still be compared for prefix
/// consistency after pruning: equal counts imply equal chain digests.
class ExecutionLog {
 public:
  void append(ExecutionRecord rec);

  /// Total records ever executed (pruned prefix included).
  std::uint64_t size() const { return base_ + records_.size(); }
  bool empty() const { return size() == 0; }
  /// Records below this index have been pruned away.
  std::uint64_t base() const { return base_; }
  /// The retained suffix: records [base, size).
  const std::vector<ExecutionRecord>& records() const { return records_; }
  /// Record at absolute index; requires base <= index < size.
  const ExecutionRecord& at(std::uint64_t index) const;

  /// Chain digest over the first `count` records; requires
  /// base <= count <= size.
  crypto::Digest digest_through(std::uint64_t count) const;

  /// Discards records below `count` (clamped to [base, size]), folding
  /// them into the chain digest.
  void prune_to(std::uint64_t count);

 private:
  friend struct serde::Access;
  static auto fields(auto& m) {
    return std::tie(m.base_, m.base_digest_, m.records_);
  }
  /// The per-record chain is derived state: recomputed on decode, never
  /// trusted from the wire.
  void decoded();

  std::uint64_t base_ = 0;
  crypto::Digest base_digest_{};  // chain digest through base_
  std::vector<ExecutionRecord> records_;
  std::vector<crypto::Digest> chain_;  // chain_[k] = digest through base_+k+1
};

/// Checks prefix consistency of execution logs across correct replicas:
/// over every pair's comparable range [max(bases), min(sizes)) the chain
/// digests at the range start and the records inside it must agree.
/// Disjoint ranges (one replica pruned past the other's head) are vacuously
/// consistent. Returns a description of the first divergence, or nullopt.
std::optional<std::string> check_execution_consistency(
    const std::vector<std::pair<ProcessId, const ExecutionLog*>>& logs);

/// Exactly-once execution helper shared by both protocols: remembers the
/// reply of every executed (client, request_id) at or above the client's
/// floor, so re-proposals after view changes and client resends re-send
/// the cached result instead of re-applying. The floor is the highest
/// min(acked, request_id) over the client's freshly executed commands: a
/// pure function of the execution log, so every replica derives the same
/// one. Replies below it are forgotten, and a command below it is settled
/// for good — never executed, never answered. Per-client state is thus one
/// floor plus a reply window as wide as the client's pipeline.
/// Serializable: the reply cache is part of a replica's durable checkpoint
/// and of state-transfer bundles.
class ExecutionDeduper {
 public:
  /// The cached reply if this exact command was executed before and its
  /// reply is still inside the client's window.
  std::optional<Bytes> lookup(const Command& cmd) const;
  /// True if cmd's id is below its client's floor: the client resolved
  /// it, so it must be neither executed nor answered.
  bool below_floor(const Command& cmd) const;
  /// Executed (reply cached) or below the floor: never to execute again.
  bool settled(const Command& cmd) const;
  /// Records a fresh execution and raises the client's floor, dropping
  /// replies below it.
  void record(const Command& cmd, const Bytes& result);
  /// The client's floor (0 before its first acknowledgement).
  std::uint64_t floor(ProcessId client) const;

  /// Every (client, request_id) with a cached reply, in client order, and
  /// every non-zero (client, floor). The state-transfer install witness
  /// ("smr-install") publishes both so the batch-atomicity checker can
  /// tell transferred effects and acknowledged requests from skipped
  /// executions.
  std::vector<std::pair<ProcessId, std::uint64_t>> keys() const;
  std::vector<std::pair<ProcessId, std::uint64_t>> floors() const;

 private:
  friend struct serde::Access;
  static auto fields(auto& m) { return std::tie(m.clients_); }

  struct Window {
    std::uint64_t floor = 0;
    std::map<std::uint64_t, Bytes> replies;  // request_id >= floor

    static auto fields(auto& m) { return std::tie(m.floor, m.replies); }
  };
  std::map<ProcessId, Window> clients_;
};

/// The "smr-install" transcript record, emitted when state transfer
/// installs a bundle: the commands whose effects arrived without
/// an "smr-exec" record (every cached reply) and every client floor (all
/// requests below it are settled). The batch-atomicity checker reads both.
struct InstallWitness {
  std::vector<std::pair<ProcessId, std::uint64_t>> keys;
  std::vector<std::pair<ProcessId, std::uint64_t>> floors;

  static InstallWitness of(const ExecutionDeduper& dedup);

  static auto fields(auto& m) { return std::tie(m.keys, m.floors); }
};

/// A replica's view-change archive: the accepted slots not yet covered by
/// a stable checkpoint, one entry per command — the newest by
/// Entry::order() = (view, counter/seq) — in acceptance order. A command
/// re-proposed in view after view keeps one entry instead of one per
/// proposal, so a VIEW-CHANGE report is bounded by the distinct unstable
/// commands (the new-view agenda ranks each command by its newest entry
/// anyway).
template <class Entry>
class VcArchive {
 public:
  using Key = std::pair<ProcessId, std::uint64_t>;

  void put(Entry e) {
    const Key key = e.cmd.key();
    auto [it, fresh] = order_of_.try_emplace(key, next_);
    if (!fresh) {
      auto old = by_order_.find(it->second);
      if (e.order() < old->second.order()) return;  // keep the newest
      by_order_.erase(old);
      it->second = next_;
    }
    by_order_.emplace(next_++, std::move(e));
  }
  void erase(const Key& key) {
    auto it = order_of_.find(key);
    if (it == order_of_.end()) return;
    by_order_.erase(it->second);
    order_of_.erase(it);
  }
  void clear() {
    by_order_.clear();
    order_of_.clear();
  }
  std::size_t size() const { return by_order_.size(); }
  /// The report: entries in acceptance order.
  std::vector<Entry> entries() const {
    std::vector<Entry> out;
    out.reserve(by_order_.size());
    for (const auto& [order, e] : by_order_) out.push_back(e);
    return out;
  }

 private:
  std::map<std::uint64_t, Entry> by_order_;  // acceptance order -> entry
  std::map<Key, std::uint64_t> order_of_;
  std::uint64_t next_ = 0;
};

}  // namespace unidir::agreement
