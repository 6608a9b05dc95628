// TrInc — trusted incrementer (Levin et al., NSDI'09), per the paper's
// simplified interface (Figure "TrInc Interface"):
//
//   attestation Attest(seq-num c, message m)
//       valid iff c is higher than any seq-num used on this Trinket so
//       far; attests to (prev, c, m), where prev is the last attested
//       sequence number.
//   bool CheckAttestation(attestation a, id q)
//       true iff a was previously output by Trinket T_q.
//
// Non-equivocation: a Trinket never attests two different messages under
// the same counter value, so a Byzantine host cannot produce conflicting
// attested messages.
//
// Faithful extensions kept from the full TrInc design: a Trinket holds
// multiple independent counters (needed by the A2M-from-TrInc reduction);
// the simplified interface is counter 0.
#pragma once

#include <map>
#include <optional>

#include "common/bytes.h"
#include "common/serde.h"
#include "common/types.h"
#include "crypto/signature.h"

namespace unidir::trusted {

/// Identifies one counter within a Trinket.
using CounterId = std::uint64_t;

struct TrincAttestation {
  ProcessId owner = kNoProcess;  // whose Trinket produced it
  CounterId counter = 0;
  SeqNum prev = 0;  // last attested seq-num before this one
  SeqNum seq = 0;   // the attested seq-num c
  Bytes message;
  crypto::Signature device_sig;

  bool operator==(const TrincAttestation&) const = default;

  /// What device_sig covers: every field before it.
  Bytes signing_bytes() const;
  static auto fields(auto& m) {
    return std::tie(m.owner, m.counter, m.prev, m.seq, m.message,
                    m.device_sig);
  }
};

class Trinket;

/// The trusted manufacturing / attestation infrastructure: creates
/// Trinkets (each with a device key the host never sees) and verifies
/// attestations. One per world.
class TrincAuthority {
 public:
  explicit TrincAuthority(crypto::KeyRegistry& keys) : keys_(keys) {}
  TrincAuthority(const TrincAuthority&) = delete;
  TrincAuthority& operator=(const TrincAuthority&) = delete;

  /// Issues a Trinket to `owner`. At most one per owner.
  Trinket make_trinket(ProcessId owner);

  /// CheckAttestation(a, q): true iff `a` is a valid attestation produced
  /// by the Trinket issued to `q`.
  bool check(const TrincAttestation& a, ProcessId q) const;

 private:
  crypto::KeyRegistry& keys_;
  std::map<ProcessId, crypto::KeyId> device_keys_;
};

/// The per-process trusted device. Movable; host code can only go through
/// attest() — there is no way to rewind a counter.
class Trinket {
 public:
  ProcessId owner() const { return owner_; }

  /// Attest(c, m) on counter 0 — the paper's simplified interface.
  std::optional<TrincAttestation> attest(SeqNum c, const Bytes& m) {
    return attest_on(0, c, m);
  }

  /// Full interface: attest on a named counter. Returns nullopt if c is
  /// not strictly greater than the counter's last attested value.
  std::optional<TrincAttestation> attest_on(CounterId counter, SeqNum c,
                                            const Bytes& m);

  /// Last attested seq-num on a counter (0 if never used).
  SeqNum last_used(CounterId counter = 0) const;

  // -- crash-recovery (see DESIGN.md §9) ------------------------------------
  // TrInc's counters live in device NVRAM; save/load model the host
  // persisting that NVRAM image. reset_for_power_loss models the *broken*
  // deployment where the counters were volatile: every counter returns to
  // zero while the device key survives, so the device will happily attest a
  // second, different message under an already-used counter value — the
  // equivocation the paper's classification says trusted logs must prevent.

  /// Serialized counter table, suitable for a DurableStore.
  Bytes save_counters() const;
  /// Restores a table produced by save_counters.
  void load_counters(ByteSpan data);
  /// Deliberately models volatile counters: zeroes every counter, keeps the
  /// device key. Negative-test only.
  void reset_for_power_loss() { last_.clear(); }

 private:
  friend class TrincAuthority;
  Trinket(ProcessId owner, crypto::Signer device_key)
      : owner_(owner), device_key_(device_key) {}

  ProcessId owner_;
  crypto::Signer device_key_;
  std::map<CounterId, SeqNum> last_;
};

}  // namespace unidir::trusted
