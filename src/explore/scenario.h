// Explicit, serializable sweep scenarios.
//
// The fault sweep used to draw its whole configuration (delays, pipeline
// depth, crash plan, workload) from a seed inside the test body — a failing
// seed gave a number, not an artifact. ScenarioSpec materializes that draw
// into explicit data: which protocol, which adversary with which
// parameters, the exact client operations, and the exact crash schedule.
// Explicit data is what the shrinker mutates (drop a request, un-crash a
// replica) and what a replay snippet embeds.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "crypto/signature.h"
#include "explore/invariants.h"
#include "explore/trace.h"
#include "obs/metrics.h"
#include "sim/network.h"
#include "sim/simulator.h"
#include "sim/workload.h"
#include "wire/stats.h"

namespace unidir::explore {

enum class ProtocolKind : std::uint8_t { MinBft = 0, Pbft = 1 };
enum class AdversaryKind : std::uint8_t {
  Immediate = 0,
  RandomDelay = 1,
  Duplicating = 2,
  Gst = 3,
  /// RandomDelay plus byte-level payload corruption (wire::Router's fuzz
  /// partner; see sim::MutatingAdversary). Mutations happen at send time,
  /// so Record mode captures post-mutation bytes, but Replay cannot
  /// re-impose them — use Direct mode for deterministic fuzz repros.
  Mutating = 4,
};

std::string protocol_name(ProtocolKind p);
std::string adversary_name(AdversaryKind a);

struct CrashEvent {
  ProcessId victim = kNoProcess;
  Time when = 1;

  bool operator==(const CrashEvent&) const = default;

  static auto fields(auto& m) { return std::tie(m.victim, m.when); }
};

/// A crash paired with a later restart (the crash-recovery fault model,
/// DESIGN.md §9). The pair shrinks as a unit: dropping one keeps every
/// remaining restart matched to its crash.
struct RecoveryEvent {
  ProcessId victim = kNoProcess;
  Time crash_at = 1;
  Time restart_at = 2;

  bool operator==(const RecoveryEvent&) const = default;

  static auto fields(auto& m) {
    return std::tie(m.victim, m.crash_at, m.restart_at);
  }
  void decoded() const {
    if (restart_at <= crash_at)
      throw serde::DecodeError("RecoveryEvent restart precedes crash");
  }
};

struct ScenarioSpec {
  ProtocolKind protocol = ProtocolKind::MinBft;
  AdversaryKind adversary = AdversaryKind::RandomDelay;
  std::uint64_t seed = 1;
  std::uint64_t n = 3;
  std::uint64_t f = 1;

  // Adversary parameters (which apply depends on `adversary`).
  Time max_delay = 1;            // RandomDelay, Duplicating
  std::uint64_t max_copies = 1;  // Duplicating
  Time gst = 0;                  // Gst
  Time gst_delta = 1;            // Gst
  Time gst_pre_extra = 0;        // Gst
  std::uint64_t mutate_rate = 25;  // Mutating: percent of links corrupted

  // Client / protocol knobs.
  std::uint64_t pipeline_depth = 1;
  Time resend_timeout = 200;
  Time view_change_timeout = 150;
  /// MinBFT commit quorum override; 0 = protocol default (f+1). A mutated
  /// knob for deliberately mis-tuning the protocol in explorer self-tests.
  std::uint64_t commit_quorum = 0;

  /// Exact client operations, in submission order (shrinkable).
  std::vector<Bytes> requests;
  /// Exact crash schedule (shrinkable).
  std::vector<CrashEvent> crashes;
  /// Exact crash+restart schedule (shrinkable as whole pairs).
  std::vector<RecoveryEvent> recoveries;
  /// Negative-experiment toggle: restart trusted devices with their state
  /// wiped (power-loss semantics) instead of reloaded from sealed storage.
  /// With MinBFT this re-enables equivocation — the registry catches it.
  bool volatile_trusted_state = false;
  /// Client give-up bound (SmrClient::Options::max_attempts; 0 = forever).
  std::uint64_t client_max_attempts = 0;
  /// Replica checkpoint interval; 0 = protocol default. Recovery scenarios
  /// lower it so durable images are dense enough for restarts to matter.
  std::uint64_t checkpoint_interval = 0;

  std::uint64_t max_events = 2'000'000;

  // Replica batching knobs (DESIGN.md §11). Unlike the replica's own
  // Options defaults, these mean one command per slot and every admitted
  // request proposed at once; their transcripts are pinned by the batching
  // golden fingerprints.
  /// Max requests amortized into one slot (replica Options::batch_size).
  std::uint64_t batch_size = 1;
  /// Primary's in-flight slot window (replica Options::pipeline_depth).
  /// Distinct from `pipeline_depth` above, which is the *client's*
  /// outstanding-request window.
  std::uint64_t replica_pipeline = 1;
  /// Client-fleet workload; disabled (inert) by default. When enabled the
  /// run spawns `workload.clients` extra SmrClients after the replicas and
  /// the legacy `requests` client (if any), and `expected` counts both.
  sim::WorkloadSpec workload;

  /// Record a virtual-time trace and a metrics snapshot into the outcome
  /// (RunOutcome::trace_json / RunOutcome::metrics). Purely observational:
  /// tracing must not change the execution (golden tests compare
  /// fingerprints with the flag on and off).
  bool trace = false;

  bool operator==(const ScenarioSpec&) const = default;

  /// Draws a randomized scenario the way the fault sweep does: random
  /// delays/copies/GST, pipeline depth 1–4, 4–10 KV puts, up to f crashes
  /// at random times (primaries included).
  static ScenarioSpec materialize(ProtocolKind protocol,
                                  AdversaryKind adversary, std::uint64_t seed);

  /// Draws a crash-recovery scenario: the same base draw as `materialize`
  /// (existing sweeps keep their seeds), then replaces the crash schedule
  /// with 1..f crash+restart pairs drawn from a separate stream.
  static ScenarioSpec materialize_recovery(ProtocolKind protocol,
                                           AdversaryKind adversary,
                                           std::uint64_t seed);

  /// Draws a batched scenario: the same base draw as `materialize`, then
  /// batching knobs (batch_size 2–16, replica pipeline 2–6) and a client
  /// fleet (2–6 clients, closed- or open-loop) from a separate stream.
  static ScenarioSpec materialize_batched(ProtocolKind protocol,
                                          AdversaryKind adversary,
                                          std::uint64_t seed);

  /// `materialize_recovery` plus the `materialize_batched` knob draw:
  /// crash+restart pairs over a batched, fleet-driven run.
  static ScenarioSpec materialize_batched_recovery(ProtocolKind protocol,
                                                   AdversaryKind adversary,
                                                   std::uint64_t seed);

  std::string describe() const;

  /// Wire order, not declaration order: fields were appended as the spec
  /// grew, and old hex repro snippets must keep decoding.
  static auto fields(auto& m) {
    return std::tie(m.protocol, m.adversary, m.seed, m.n, m.f, m.max_delay,
                    m.max_copies, m.gst, m.gst_delta, m.gst_pre_extra,
                    m.pipeline_depth, m.resend_timeout, m.view_change_timeout,
                    m.commit_quorum, m.requests, m.crashes, m.max_events,
                    m.mutate_rate, m.recoveries, m.volatile_trusted_state,
                    m.client_max_attempts, m.checkpoint_interval, m.trace,
                    m.batch_size, m.replica_pipeline, m.workload);
  }
  /// Rejects unknown protocol/adversary kinds and zero batching knobs.
  void decoded() const;
  std::string to_hex() const;
  static ScenarioSpec from_hex(std::string_view hex);
};

/// Builds the spec's adversary (the *inner* one — callers wrap it for
/// record/replay).
std::unique_ptr<sim::Adversary> make_adversary(const ScenarioSpec& spec);

enum class RunMode : std::uint8_t {
  Direct,  // spec's own adversary, no trace
  Record,  // spec's adversary wrapped in RecordingAdversary
  Replay,  // ReplayAdversary re-imposing a supplied trace
};

struct RunOutcome {
  std::uint64_t completed = 0;
  std::uint64_t expected = 0;
  /// Requests the client abandoned (spec.client_max_attempts exhausted).
  std::uint64_t gave_up = 0;
  Time final_time = 0;
  std::uint64_t events = 0;
  /// Scheduling decisions observed via the Network tap.
  std::uint64_t decisions = 0;
  sim::NetworkStats net{};
  /// Event-queue counters for this run (ring fast path, peak depth, ...).
  sim::SimulatorStats sim{};
  /// Signature verification counters (memo hits vs HMACs computed).
  crypto::VerifyStats sig{};
  /// Per-channel, per-message-type wire counters (decode boundary drops).
  wire::StatsHub wire{};
  std::optional<InvariantViolation> violation;
  /// Record mode: the captured trace. Replay mode: the consumed decisions
  /// (garbage-collected trace). Direct mode: empty.
  ScheduleTrace trace;
  /// Replay mode: consults that found no recorded decision.
  std::size_t replay_missed = 0;
  /// Unified metrics snapshot (layer counters + protocol histograms),
  /// published after the run. Wall-clock values are excluded, so equal
  /// seeds yield equal snapshots.
  obs::MetricsSnapshot metrics;
  /// Chrome-trace JSON; empty unless spec.trace was set.
  std::string trace_json;
  /// Fingerprint of everything processes observed (all transcripts) plus
  /// completion and final time. Two runs with equal fingerprints executed
  /// indistinguishably.
  crypto::Digest fingerprint{};
};

/// Runs one scenario end-to-end and checks the registry's invariants.
/// `trace` is required iff mode == Replay.
RunOutcome run_scenario(const ScenarioSpec& spec,
                        const InvariantRegistry& registry,
                        RunMode mode = RunMode::Direct,
                        const ScheduleTrace* trace = nullptr);

}  // namespace unidir::explore
