// Directory of per-replica USIG (unique sequential identifier generator)
// services.
//
// MinBFT needs, per replica, a device that binds strictly increasing
// counter values to message digests, attested so that any other replica
// can verify. The paper's point is that *any* trusted-log mechanism
// provides this; the directory is therefore an interface with one
// implementation per mechanism:
//
//   SgxUsigDirectory    — the USIG program inside an SGX-style enclave
//                         (the deployment Veronese et al. targeted);
//   TrincUsigDirectory  — the same contract from a TrInc trinket
//                         (Levin et al.'s minimal device).
//
// MinBftReplica is written against the interface and runs unchanged over
// either — executable evidence that the mechanisms sit in one power class.
// By convention, replica code calls create_ui only with its own id
// (modelling that it holds only its own device).
#pragma once

#include <map>
#include <memory>

#include "trusted/trinc.h"
#include "trusted/usig.h"

namespace unidir::agreement {

/// One verification in a UsigDirectory::verify_batch call; `ok` is the
/// output. Pointees must outlive the call.
struct UsigVerifyJob {
  ProcessId p = kNoProcess;
  const trusted::UniqueIdentifier* ui = nullptr;
  const Bytes* message = nullptr;
  bool ok = false;
};

class UsigDirectory {
 public:
  virtual ~UsigDirectory() = default;
  UsigDirectory() = default;
  UsigDirectory(const UsigDirectory&) = delete;
  UsigDirectory& operator=(const UsigDirectory&) = delete;

  /// Certifies `message` under replica `p`'s device, consuming its next
  /// counter value.
  virtual trusted::UniqueIdentifier create_ui(ProcessId p,
                                              const Bytes& message) = 0;

  /// Verifies that `ui` certifies `message` under replica `p`'s device.
  virtual bool verify(ProcessId p, const trusted::UniqueIdentifier& ui,
                      const Bytes& message) const = 0;

  /// Verifies several UIs at once. Results equal calling verify() per job,
  /// so handlers may group the checks of a quorum message without changing
  /// semantics. The default is the serial loop; a decorator may override it
  /// to observe the group as one unit.
  virtual void verify_batch(UsigVerifyJob* jobs, std::size_t n) const {
    for (std::size_t i = 0; i < n; ++i)
      jobs[i].ok = verify(jobs[i].p, *jobs[i].ui, *jobs[i].message);
  }

  /// Models replica `p`'s trusted device going through a host restart
  /// (see DESIGN.md §9). With `durable_state` the device state round-trips
  /// through its serialized form, as if read back from NVRAM/sealed storage
  /// at boot; without it the counters reset while the attestation key
  /// survives — the broken deployment whose equivocation the recovery
  /// sweeps demonstrate. No-op for replicas that never used their device.
  virtual void restart_device(ProcessId p, bool durable_state) = 0;
};

/// USIG inside a simulated SGX enclave (trusted/usig.h).
class SgxUsigDirectory final : public UsigDirectory {
 public:
  explicit SgxUsigDirectory(crypto::KeyRegistry& keys) : keys_(keys) {}

  trusted::UniqueIdentifier create_ui(ProcessId p,
                                      const Bytes& message) override;
  bool verify(ProcessId p, const trusted::UniqueIdentifier& ui,
              const Bytes& message) const override;
  void restart_device(ProcessId p, bool durable_state) override;

  /// Direct enclave access (tests that hand-craft Byzantine UIs).
  trusted::UsigEnclave& enclave_for(ProcessId p);

 private:
  crypto::KeyRegistry& keys_;
  std::map<ProcessId, std::unique_ptr<trusted::UsigEnclave>> enclaves_;
};

/// USIG from a TrInc trinket: counter = trinket counter over the message
/// digest. Consecutive use (prev = seq−1) makes the attestation
/// reconstructible from the UniqueIdentifier alone.
class TrincUsigDirectory final : public UsigDirectory {
 public:
  explicit TrincUsigDirectory(crypto::KeyRegistry& keys) : authority_(keys) {}

  trusted::UniqueIdentifier create_ui(ProcessId p,
                                      const Bytes& message) override;
  bool verify(ProcessId p, const trusted::UniqueIdentifier& ui,
              const Bytes& message) const override;
  void restart_device(ProcessId p, bool durable_state) override;

 private:
  trusted::Trinket& trinket_for(ProcessId p);

  trusted::TrincAuthority authority_;
  std::map<ProcessId, std::unique_ptr<trusted::Trinket>> trinkets_;
};

}  // namespace unidir::agreement
