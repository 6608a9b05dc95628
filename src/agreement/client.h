// SMR client: submits operations to a replica group and accepts a result
// once f+1 replicas report the same reply (at least one of them correct).
// Protocol-agnostic: works against MinBFT and PBFT alike.
//
// Supports closed-loop operation (one request at a time, the default) and
// pipelining (`max_outstanding` > 1) for throughput experiments.
#pragma once

#include <deque>
#include <functional>
#include <set>

#include "agreement/smr.h"
#include "sim/world.h"
#include "wire/channels.h"
#include "wire/router.h"

namespace unidir::agreement {

/// Channel conventions shared by replicas and clients. The values live in
/// wire/channels.h, the library-wide channel registry.
inline constexpr sim::Channel kClientRequestCh = wire::kClientRequestCh;
inline constexpr sim::Channel kClientReplyCh = wire::kClientReplyCh;
inline constexpr sim::Channel kMinBftCh = wire::kMinBftCh;
inline constexpr sim::Channel kPbftCh = wire::kPbftCh;

class SmrClient final : public sim::Process {
 public:
  struct Options {
    std::vector<ProcessId> replicas;
    std::size_t f = 0;
    /// Re-broadcast an unanswered request after this many ticks
    /// (0 disables). Resends are what let a request survive a primary
    /// that crashed before proposing it. Consecutive resends of one
    /// request back off exponentially from this base.
    Time resend_timeout = 400;
    /// Total send attempts per request before the client gives up
    /// (0 = retry forever). Bounding attempts is what lets a run quiesce
    /// when a quorum is durably unreachable.
    std::size_t max_attempts = 0;
    /// Upper bound, in ticks, on the deterministic random jitter added to
    /// every backed-off resend (0 = none, the default — existing goldens
    /// hold). Jitter is drawn from the process rng, so sim runs stay
    /// seed-reproducible; its job is to de-synchronize a client fleet
    /// hammering a recovering cluster in lockstep.
    Time resend_jitter = 0;
    /// Requests allowed in flight simultaneously (pipeline depth).
    std::size_t max_outstanding = 1;
    /// Think time: ticks to wait after a request completes (or is
    /// abandoned) before issuing the next queued one (0 = back-to-back,
    /// the default). Real-mode chaos runs use this to stretch a workload
    /// across a kill/restart window instead of finishing in one burst.
    Time think_ticks = 0;
  };

  explicit SmrClient(Options options);

  using DoneFn = std::function<void(const Bytes& result)>;

  /// Submits an operation; issued when a pipeline slot frees up.
  void submit(Bytes op, DoneFn done = nullptr);

  std::uint64_t completed() const { return completed_; }
  /// Requests abandoned after exhausting Options::max_attempts.
  std::uint64_t gave_up() const { return gave_up_; }
  std::size_t outstanding() const { return in_flight_.size(); }
  /// Sum of completed requests' latencies in ticks; the mean is
  /// latency_sum() / completed(). The distribution is the
  /// "client.latency_ticks" histogram.
  Time latency_sum() const { return latency_sum_; }

 protected:
  void on_start() override;

 private:
  struct QueuedOp {
    Bytes op;
    DoneFn done;
  };
  struct InFlight {
    Command cmd;
    DoneFn done;
    Time issued_at = 0;
    std::size_t attempts = 0;  // sends so far (first send included)
    runtime::TimerId resend_timer = runtime::kNoTimer;  // the pending one
    std::map<Bytes, std::set<ProcessId>> votes;  // result -> replicas
  };

  void issue_ready();
  void issue_after_think();
  void send_request(const Command& cmd);
  void arm_resend(std::uint64_t request_id);
  void on_reply(ProcessId from, Reply reply);

  Options options_;
  wire::Router reply_router_;
  std::deque<QueuedOp> queue_;
  bool started_ = false;
  std::uint64_t next_request_id_ = 0;
  std::map<std::uint64_t, InFlight> in_flight_;  // by request_id
  std::uint64_t completed_ = 0;
  std::uint64_t gave_up_ = 0;
  Time latency_sum_ = 0;
};

}  // namespace unidir::agreement
