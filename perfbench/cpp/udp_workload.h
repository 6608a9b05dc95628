// The udp-* workloads: a live MinBFT cluster on loopback UDP in one OS
// process, driven by an SmrClient fleet on one client event loop.
//
// Cluster: n = 2f+1 = 3 replicas, each with its own World, RealRuntime
// (one loop thread, one receiver thread), KeyRegistry and loopback socket.
// Replica options are the library defaults except n, f and a view-change
// timeout longer than any run. The client World hosts the fleet on one
// RealRuntime shard; all client ids share its socket.
//
// Load: KV operations, 2 PUT : 1 GET over 16 keys.
//   closed loop — every client keeps 16 requests in flight and
//                 submits the next one from each done callback;
//   open loop   — a load-generator thread fires seeded Poisson arrivals
//                 at 400 per second, spread over the clients, through a
//                 loopback message to a submitter process on the client
//                 loop; latency counts from each request's due time.
//
// A run: set up, warm up, measure for `seconds`, stop submitting, drain
// for at most 5 s, let the replicas converge, stop, check.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "crypto/signature.h"
#include "runtime/real_runtime.h"
#include "spans.h"

namespace perfbench {

/// n = 2f+1 with f = 1: the smallest cluster of the trusted-counter class.
inline constexpr std::size_t kF = 1;
inline constexpr std::size_t kReplicas = 2 * kF + 1;

struct UdpOptions {
  bool open_loop = false;
  std::size_t clients = 16;
  double seconds = 10;       // measured window, after a 0.5 s warm-up
  std::uint64_t seed = 1;
  /// Non-null: the traced run. Every replica and the client World get the
  /// forwarding decorators (decorators.h), recording into this.
  SpanRecorder* rec = nullptr;
};

struct UdpResult {
  // Requests submitted (closed loop) or due (open loop) inside the window.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;       // gave up or uncommitted at the deadline
  std::uint64_t gave_up = 0;      // SmrClient give-ups, whole run
  std::uint64_t committed_in_window = 0;  // completions inside the window
  std::uint64_t committed_total = 0;      // completions, whole run
  double window_s = 0;
  double rps = 0;                 // committed_in_window / window_s
  double tail_ratio = 0;          // last-quarter rps / first-quarter rps
  std::vector<std::uint64_t> completions;  // commit instants, whole run
  std::vector<double> latency_us;  // attempted requests; failed ones carry
                                   // a lower bound (deadline - start)
  std::vector<double> lag_us;      // open loop: submission lateness

  // Public counters, whole run, summed over every runtime / World.
  unidir::runtime::UdpTransportStats udp{};
  std::uint64_t wire_msgs = 0;
  std::uint64_t wire_bytes = 0;
  std::uint64_t wire_dropped = 0;
  unidir::crypto::VerifyStats sig{};
  std::uint64_t view_changes = 0;
  std::uint64_t replica_lag = 0;  // max - min executed count after settling

  // Traced run only.
  std::uint64_t persist_puts = 0;
  std::uint64_t persist_bytes = 0;
  std::uint64_t usig_verifications = 0;
  std::uint64_t window_from_ns = 0;  // the measured window [from, to)
  std::uint64_t window_to_ns = 0;

  // Correctness.
  bool digests_agree = false;
  bool conservation_exact = false;  // sent == received + malformed, no loss
  std::string errors;               // empty iff every check passed
  std::vector<std::string> replica_digests;  // hex, per replica
  std::vector<std::uint64_t> replica_executed;
};

/// Runs one udp-* measurement.
UdpResult run_udp(const UdpOptions& opts);

/// Brings a cluster of `opts` up (sockets, keys, replicas, loops) until it
/// has served one request, calls `ready`, and tears the cluster down.
void udp_bring_up(const UdpOptions& opts, const std::function<void()>& ready);

}  // namespace perfbench
