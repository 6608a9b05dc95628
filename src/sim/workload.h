// Client-fleet workload generation.
//
// A WorkloadSpec describes a fleet of closed- or open-loop clients in pure
// data: how many clients, how many requests each, how arrivals are spaced,
// and how keys are skewed. `plan()` expands the spec deterministically
// (integer math only, seeded sim::Rng streams) into per-client arrival
// schedules; the SMR harness maps those onto real SmrClient processes.
// Keeping the spec here — below the agreement layer — means the generator
// can be unit-tested and shrunk without pulling in any protocol code.
//
// Closed-loop clients submit everything upfront and let the client's
// outstanding-window throttle them (think YCSB worker threads); open-loop
// clients submit on a Poisson-like schedule regardless of completions
// (think arrival-rate-driven load tests). The distinction is what makes
// throughput curves honest: closed-loop load collapses when latency grows,
// open-loop load does not.
#pragma once

#include <string>
#include <vector>

#include "common/serde.h"
#include "common/types.h"

namespace unidir::sim {

struct WorkloadSpec {
  /// Fleet size; 0 disables the workload entirely (the spec is inert data
  /// and harnesses fall back to their single legacy client).
  std::uint64_t clients = 0;
  std::uint64_t requests_per_client = 0;
  /// false: closed-loop (submit all upfront, `max_outstanding` throttles).
  /// true: open-loop (timed arrivals, independent of completions).
  bool open_loop = false;
  /// Open-loop mean gap between a client's consecutive arrivals, in ticks.
  /// Gaps are geometric (the discrete Poisson-process analogue), capped at
  /// 8x the mean so one unlucky draw cannot stall a schedule.
  Time mean_interarrival = 10;
  /// Closed-loop per-client outstanding window (SmrClient pipeline depth).
  std::uint64_t max_outstanding = 1;
  /// Keys are drawn from [0, key_space).
  std::uint64_t key_space = 16;
  /// Skew: this percent of operations land on the first `hot_keys` keys.
  /// 0 = uniform.
  std::uint64_t hot_key_percent = 0;
  std::uint64_t hot_keys = 1;
  /// Arrival/key randomness stream, independent of the simulator seed.
  std::uint64_t seed = 1;

  bool operator==(const WorkloadSpec&) const = default;

  bool enabled() const { return clients > 0 && requests_per_client > 0; }
  std::uint64_t total_requests() const {
    return enabled() ? clients * requests_per_client : 0;
  }

  /// One planned request: when the client submits it (absolute tick;
  /// always 0 for closed-loop) and which key it touches.
  struct Arrival {
    Time at = 0;
    std::uint64_t key = 0;

    bool operator==(const Arrival&) const = default;
  };
  struct ClientPlan {
    std::vector<Arrival> arrivals;  // in submission order

    bool operator==(const ClientPlan&) const = default;
  };

  /// Expands the spec into per-client schedules. Deterministic: equal specs
  /// yield equal plans. Each client draws from its own substream, so adding
  /// a client never perturbs the others' schedules (shrinker-friendly).
  std::vector<ClientPlan> plan() const;

  std::string describe() const;

  static auto fields(auto& m) {
    return std::tie(m.clients, m.requests_per_client, m.open_loop,
                    m.mean_interarrival, m.max_outstanding, m.key_space,
                    m.hot_key_percent, m.hot_keys, m.seed);
  }
};

}  // namespace unidir::sim
