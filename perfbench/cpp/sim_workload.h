// The sim-sweep workload: the explorer's randomized scenario draws over a
// seed range, each run through explore::run_scenario with the standard SMR
// invariants on one thread — what an explorer user waits for.
//
// One pass covers, for every seed in the fixed range [1, 64]:
//   {materialize, materialize_batched, materialize_recovery}
//   x {MinBFT, PBFT} x {RandomDelay, Duplicating, Gst}
// i.e. 18 scenarios per seed, each capped at 100k events. Passes repeat until `seconds` have elapsed
// (at least two, so the determinism check below always has a partner).
// The benchmark seed only shuffles the order scenarios run in, so every
// pass and every run covers the same scenarios and must produce the same
// combined fingerprint.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "crypto/signature.h"
#include "obs/metrics.h"
#include "spans.h"

namespace perfbench {

struct SimOptions {
  std::uint64_t seed = 1;
  double seconds = 10;
  /// Non-null: the paired run. Every scenario is also timed against an
  /// empty InvariantRegistry (alternating order) to split invariant
  /// checking from execution, and each scenario run records one span
  /// ("explore.run_scenario" / "explore.run_scenario_empty").
  SpanRecorder* rec = nullptr;
  /// Runs after every pass, untimed: the sweep's clock stops meanwhile.
  std::function<void()> after_pass;
};

struct SimResult {
  std::uint64_t passes = 0;
  std::uint64_t scenarios = 0;       // all passes
  std::uint64_t violations = 0;      // all passes
  std::uint64_t requests = 0;        // committed, all passes
  double sweep_s = 0;                // wall time of the timed passes
  std::vector<double> scenario_us;   // per scenario: median wall time
                                     // over the passes
  std::string fingerprint;           // hex, combined over one pass
  bool fingerprint_stable = false;   // identical in every pass

  // One pass's deterministic counters.
  unidir::obs::HistogramData latency_ticks;  // merged client.latency_ticks
  std::uint64_t pass_scenarios = 0;
  std::uint64_t pass_requests = 0;
  std::uint64_t capped = 0;          // scenarios that ran into the event cap
  std::uint64_t events = 0;
  std::uint64_t ring_events = 0;
  std::uint64_t heap_events = 0;
  unidir::crypto::VerifyStats sig{};
  std::uint64_t wire_msgs = 0;
  std::uint64_t wire_bytes = 0;
  std::uint64_t wire_dropped = 0;

  // Paired timing (SimOptions::rec set).
  double standard_s = 0;
  double empty_s = 0;

  std::string errors;  // empty iff every check passed
};

SimResult run_sim(const SimOptions& opts);

/// Materializes one pass's scenario specs and builds the standard
/// registry (the sweep's set-up), then calls `ready`.
void sim_bring_up(const std::function<void()>& ready);

}  // namespace perfbench
