// A2M — attested append-only memory (Chun et al., SOSP'07), per the
// interface in the paper's Algorithm "Trusted Hardware Functionality":
//
//   CreateLog()        → id           (fresh trusted log)
//   Append(id, x)                     (extend log id with x; past entries
//                                      can never be modified)
//   Lookup(id, s, z)   → attestation  (signed ⟨lookup, id, s, log[id][s], z⟩)
//   End(id, z)         → attestation  (signed ⟨end, id, c_id, last, z⟩)
//
// The nonce z lets a remote challenger confirm freshness. Non-equivocation:
// the device assigns consecutive sequence numbers at append time, so there
// is exactly one attested value per (log, seq).
#pragma once

#include <map>
#include <optional>
#include <vector>

#include "common/bytes.h"
#include "common/serde.h"
#include "common/types.h"
#include "crypto/signature.h"

namespace unidir::trusted {

using LogId = std::uint64_t;

struct A2mAttestation {
  enum class Kind : std::uint8_t { Lookup = 1, End = 2 };

  ProcessId owner = kNoProcess;  // whose device produced it
  Kind kind = Kind::Lookup;
  LogId log = 0;
  SeqNum seq = 0;  // index attested; for End, the current log length
  Bytes value;
  Bytes nonce;
  crypto::Signature device_sig;

  bool operator==(const A2mAttestation&) const = default;

  /// What device_sig covers: every field before it.
  Bytes signing_bytes() const;
  static auto fields(auto& m) {
    return std::tie(m.owner, m.kind, m.log, m.seq, m.value, m.nonce,
                    m.device_sig);
  }
  void decoded() const {
    if (kind != Kind::Lookup && kind != Kind::End)
      throw serde::DecodeError("bad attestation kind");
  }
};

class A2m;

/// Trusted infrastructure: issues A2M devices and verifies attestations.
class A2mAuthority {
 public:
  explicit A2mAuthority(crypto::KeyRegistry& keys) : keys_(keys) {}
  A2mAuthority(const A2mAuthority&) = delete;
  A2mAuthority& operator=(const A2mAuthority&) = delete;

  A2m make_device(ProcessId owner);

  bool check(const A2mAttestation& a, ProcessId q) const;

 private:
  crypto::KeyRegistry& keys_;
  std::map<ProcessId, crypto::KeyId> device_keys_;
};

class A2m {
 public:
  ProcessId owner() const { return owner_; }

  /// Creates a new empty log and returns its id.
  LogId create_log();

  /// Appends x to log `id`. Returns the assigned 1-based sequence number,
  /// or nullopt if the log does not exist.
  std::optional<SeqNum> append(LogId id, Bytes x);

  /// Attests the entry at index s of log id (1-based). nullopt if out of
  /// range or the log does not exist.
  std::optional<A2mAttestation> lookup(LogId id, SeqNum s,
                                       const Bytes& nonce) const;

  /// Attests the current end of log id (seq = length, value = last entry;
  /// empty logs attest seq 0 with an empty value).
  std::optional<A2mAttestation> end(LogId id, const Bytes& nonce) const;

  std::optional<SeqNum> length(LogId id) const;

  // -- crash-recovery (see DESIGN.md §9) ------------------------------------
  /// Serialized log contents (all logs + the id allocator), suitable for a
  /// DurableStore.
  Bytes save_state() const;
  /// Restores state produced by save_state.
  void load_state(ByteSpan data);
  /// Deliberately models volatile log memory: every log vanishes and the id
  /// allocator rewinds, while the device key survives — re-created logs can
  /// attest fresh values for already-attested (log, seq) slots.
  /// Negative-test only.
  void reset_for_power_loss() {
    logs_.clear();
    next_log_ = 1;
  }

 private:
  friend class A2mAuthority;
  A2m(ProcessId owner, crypto::Signer device_key)
      : owner_(owner), device_key_(device_key) {}

  A2mAttestation make(A2mAttestation::Kind kind, LogId id, SeqNum seq,
                      Bytes value, const Bytes& nonce) const;

  ProcessId owner_;
  crypto::Signer device_key_;
  LogId next_log_ = 1;
  std::map<LogId, std::vector<Bytes>> logs_;
};

}  // namespace unidir::trusted
