// TrInc from sequenced reliable broadcast — the paper's Theorem 1, which
// places trusted-log hardware at-or-below SRB in the power hierarchy.
//
// The paper's construction, verbatim:
//
//   Attest(c, m):          Broadcast(k, (c, m));   return (k, (c, m))
//   CheckAttestation(a,q): upon delivering (k, c, m) from q:
//                              if C[q] < c { store (k, (c, m)); C[q] = c; }
//                          return (stored (k,(c,m)) == a from q)
//
// The SRB's own sequence numbers (k) provide the unforgeable ordering a
// Trinket's counter would; the C[q] filter discards any Byzantine attempt
// to reuse a TrInc counter value c. Because SRB delivers the same stream
// in the same order everywhere, all correct processes store the same
// attestations — CheckAttestation is consistent, and eventually true for
// every correctly produced attestation (Theorem 1's two properties; both
// are exercised by the tests and experiment E1).
#pragma once

#include <map>

#include "broadcast/srb.h"
#include "common/serde.h"
#include "wire/channels.h"
#include "wire/router.h"

namespace unidir::trusted {

/// The attestation of the Theorem-1 construction: no device signature —
/// its authenticity is exactly the fact that it was SRB-delivered from q.
struct SrbAttestation {
  ProcessId owner = kNoProcess;
  SeqNum broadcast_seq = 0;  // k: the SRB sequence number
  SeqNum seq = 0;            // c: the TrInc counter value
  Bytes message;

  bool operator==(const SrbAttestation&) const = default;

  static auto fields(auto& m) {
    return std::tie(m.owner, m.broadcast_seq, m.seq, m.message);
  }
};

class TrincFromSrb {
 public:
  /// `srb` is this process's endpoint of any SRB implementation. The
  /// construction claims the endpoint's delivery callback. `hub`, if
  /// given, receives the decode-boundary counters (pseudo-channel
  /// wire::kTrincAttestCh); pass &world.wire_stats() when a World exists.
  TrincFromSrb(broadcast::SrbEndpoint& srb, ProcessId self,
               wire::StatsHub* hub = nullptr);

  /// Attest(c, m). Like a real Trinket, refuses locally if c was already
  /// used by *this* process (a Byzantine caller bypassing the refusal is
  /// exactly what the receiver-side C[q] filter handles).
  std::optional<SrbAttestation> attest(SeqNum c, const Bytes& m);

  /// CheckAttestation(a, q): true iff `a` has been stored from q's
  /// delivered stream. Eventually true for every correct attestation;
  /// false forever for anything q never attested.
  bool check(const SrbAttestation& a, ProcessId q) const;

  /// Highest TrInc counter value stored per process (the C[] array).
  SeqNum counter_of(ProcessId q) const;

 private:
  void on_delivery(const broadcast::Delivery& d);

  broadcast::SrbEndpoint& srb_;
  /// Decode boundary for attestation payloads arriving via SRB.
  wire::Router payload_router_;
  ProcessId self_;
  SeqNum my_last_c_ = 0;
  SeqNum my_next_k_ = 0;
  SeqNum dispatching_seq_ = 0;  // k of the delivery currently dispatching
  std::map<ProcessId, SeqNum> counters_;  // C[q]
  // stored[(q, c)] = the accepted attestation for that counter value.
  std::map<std::pair<ProcessId, SeqNum>, SrbAttestation> stored_;
};

}  // namespace unidir::trusted
