// SRB from unidirectional rounds — the paper's Algorithm 1 (n ≥ 2t+1).
//
// Adapted from Aguilera et al.'s SWMR-register construction exactly as the
// paper prescribes: every register *write* becomes "include in my next
// round message" and every *read* becomes "what I received by the end of
// my round". Each process publishes, once per round, its full slot state:
//
//   - its own signed broadcast history (if it acts as a sender),
//   - its adopted, counter-signed *copy* of the value it is currently
//     helping agree on, per sender,
//   - its compiled *L1 proof* (t+1 matching signed copies) per sender,
//   - every *L2 proof* (t+1 matching L1 proofs by distinct compilers) it
//     knows. A valid L2 proof is self-contained and delivers the value.
//
// Safety hinges on unidirectionality: two correct processes that adopted
// conflicting values from an equivocating sender each forward their copy
// in a round; at least one of them receives the other's copy before its
// round ends, sees the sender-signed conflict, and becomes *poisoned* —
// refusing to compile an L1 proof. Hence no two conflicting L1 proofs by
// correct processes, hence (since any valid L2 needs t+1 distinct
// compilers, i.e. at least one correct) no conflicting L2 proofs at all.
//
// Liveness: the engine rounds continuously while it is making progress and
// for `idle_limit` rounds after, then parks. A message-driven round driver
// wakes it when peers are still active (activity listener); on a
// shared-memory driver its slot persists in the board, so laggards catch
// up by reading — no wake needed, which is itself a faithful rendering of
// the shared-memory model.
#pragma once

#include <map>
#include <set>

#include "broadcast/srb.h"
#include "crypto/signature.h"
#include "rounds/round_driver.h"
#include "sim/world.h"
#include "wire/channels.h"
#include "wire/router.h"

namespace unidir::broadcast {

/// A sender-signed value: the unit everything else attests to.
struct SignedVal {
  ProcessId sender = kNoProcess;
  SeqNum seq = 0;
  Bytes msg;
  crypto::Signature sender_sig;

  bool same_value(const SignedVal& o) const {
    return sender == o.sender && seq == o.seq && msg == o.msg;
  }

  /// What sender_sig covers: every field before it.
  Bytes signing_bytes() const;
  static auto fields(auto& m) {
    return std::tie(m.sender, m.seq, m.msg, m.sender_sig);
  }
};

/// One process's counter-signature on a value it adopted.
struct CopyVote {
  ProcessId copier = kNoProcess;
  crypto::Signature sig;

  static Bytes signing_bytes(const SignedVal& val);
  static auto fields(auto& m) { return std::tie(m.copier, m.sig); }
};

/// t+1 matching copies, compiled and signed by one process.
struct L1Proof {
  SignedVal val;
  std::vector<CopyVote> copies;
  ProcessId compiler = kNoProcess;
  crypto::Signature compiler_sig;

  Bytes signing_bytes() const;
  static auto fields(auto& m) {
    return std::tie(m.val, m.copies, m.compiler, m.compiler_sig);
  }
};

/// t+1 matching L1 proofs by distinct compilers. Self-contained: anyone
/// holding a valid L2 proof may deliver its value.
struct L2Proof {
  SignedVal val;
  std::vector<L1Proof> l1s;

  static auto fields(auto& m) { return std::tie(m.val, m.l1s); }
};

/// The full slot state a process publishes each round. Public so that
/// tests can hand-craft Byzantine payloads (e.g. equivocating senders).
struct UniSlotPayload {
  static constexpr wire::MsgDesc kDesc{1, "uni-slot-payload"};

  std::vector<SignedVal> my_vals;
  /// Adopted copies: (value, our vote), one per sender slot.
  std::vector<std::pair<SignedVal, CopyVote>> copies;
  std::vector<L1Proof> l1s;
  std::vector<L2Proof> l2s;

  static auto fields(auto& m) {
    return std::tie(m.my_vals, m.copies, m.l1s, m.l2s);
  }
};

// ---- validation (all self-contained, usable by any module) -----------------

bool valid_signed_val(const sim::World& w, const SignedVal& val);
bool valid_copy(const sim::World& w, const SignedVal& val, const CopyVote& c);
bool valid_l1(const sim::World& w, const L1Proof& p, std::size_t t);
bool valid_l2(const sim::World& w, const L2Proof& p, std::size_t t);

struct UniSrbOptions {
  /// Stop rounding after this many consecutive rounds with no state change.
  int idle_limit = 8;
};

class UniSrbEndpoint final : public SrbEndpoint {
 public:
  /// `driver` is the unidirectional round driver this engine communicates
  /// through; it must be dedicated to this endpoint. `t` is the fault
  /// bound; correctness requires n ≥ 2t+1.
  UniSrbEndpoint(sim::Process& host, rounds::RoundDriver& driver,
                 std::size_t n, std::size_t t, UniSrbOptions options = {});

  void broadcast(Bytes message) override;

  /// Begins participating (typically from Process::on_start). A process
  /// that only listens must still call this: copies from non-senders are
  /// what make the t+1 quorums.
  void start();

  // -- introspection for tests & benches ------------------------------------
  RoundNum rounds_run() const { return driver_.completed_rounds(); }
  bool parked() const { return parked_; }
  std::uint64_t payload_bytes_sent() const { return payload_bytes_; }
  /// True if this process observed sender equivocation on the given
  /// sender's current slot (the "poisoned" flag of the safety argument).
  bool poisoned(ProcessId sender) const;

 private:
  /// Per-sender progress, mirroring the paper's {WaitForSender,
  /// WaitForL1Proof, WaitForL2Proof} state machine for seq next_.
  struct SenderState {
    enum class Phase : std::uint8_t {
      WaitForSender,
      WaitForL1,
      WaitForL2,
    };
    Phase phase = Phase::WaitForSender;
    SeqNum next = 1;  // sequence number currently being agreed on
    std::optional<SignedVal> adopted;
    std::optional<CopyVote> my_copy;
    std::optional<L1Proof> my_l1;
    bool poisoned = false;
    /// Compilation gates: an L1 (resp. L2) proof may be compiled only at
    /// the end of a round that *started after* the copy (resp. L1) was
    /// first published — the write-then-scan ordering the safety argument
    /// rests on. Without this, a Byzantine sender could hand a victim a
    /// ready-made quorum before the victim's copy ever travelled.
    RoundNum earliest_l1_round = 0;
    RoundNum earliest_l2_round = 0;
    std::map<ProcessId, CopyVote> copies;   // matching copies incl. own
    std::map<ProcessId, L1Proof> l1s;       // matching L1s incl. own
    /// Distinct sender-signed messages seen for (sender, next) — ≥2 means
    /// equivocation.
    std::set<Bytes> seen_msgs;

    void reset_for_next_seq() {
      phase = Phase::WaitForSender;
      adopted.reset();
      my_copy.reset();
      my_l1.reset();
      poisoned = false;
      earliest_l1_round = 0;
      earliest_l2_round = 0;
      copies.clear();
      l1s.clear();
      seen_msgs.clear();
    }
  };

  void ensure_rounding();
  void run_round();
  void on_round_done(const std::vector<rounds::Received>& received);
  Bytes build_payload();
  void on_payload(ProcessId from, UniSlotPayload p);

  void consider_val(ProcessId relay, const SignedVal& val);
  void consider_copy(ProcessId relay, const SignedVal& val,
                     const CopyVote& vote);
  void consider_l1(ProcessId relay, const L1Proof& proof);
  void consider_l2(const L2Proof& proof);
  void end_of_round_transitions();
  void maybe_deliver(ProcessId sender);
  void note_equivocation(SenderState& st, const SignedVal& val);

  SenderState& state_of(ProcessId sender);

  sim::Process& host_;
  rounds::RoundDriver& driver_;
  /// Round payloads are not network envelopes, but they are still
  /// untrusted bytes: a detached router on a pseudo-channel gives them the
  /// same hardened decode boundary and stats as real wire traffic.
  wire::Router payload_router_;
  std::size_t n_;
  std::size_t t_;
  UniSrbOptions options_;

  SeqNum my_seq_ = 0;
  std::vector<SignedVal> my_history_;

  std::map<ProcessId, SenderState> senders_;
  std::map<std::pair<ProcessId, SeqNum>, L2Proof> l2_store_;

  bool started_ = false;
  bool parked_ = true;
  bool dirty_ = false;
  int idle_rounds_ = 0;
  std::uint64_t payload_bytes_ = 0;
};

}  // namespace unidir::broadcast
