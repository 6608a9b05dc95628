// Batched + pipelined SMR sweeps (ctest label: batch): request batching,
// slot pipelining and the client-fleet workload generator, validated
// against the full standard_smr registry — including the batch-atomicity
// checker — across seeds, adversaries, crash+restart schedules and byte
// corruption.
//
// Five claims, matching DESIGN.md §11:
//
//  1. COMPATIBILITY: with batch_size = 1 and pipeline_depth = 1 both
//     protocols run the unbatched wire protocol bit-for-bit — the golden
//     fingerprints below pin it (see the re-pin note at the test).
//  2. SAFETY+LIVENESS: with batching and pipelining on, every invariant of
//     the standard SMR registry holds across 50-seed sweeps per protocol,
//     under every network adversary, composed with crash+restart pairs and
//     with byte-level corruption (safety only there).
//  3. ATOMICITY: every request in a committed batch executes exactly once
//     in slot order; split batches, reorderings, double executions and
//     cross-replica membership disagreements are caught (synthetic
//     negative transcripts prove the checker has teeth).
//  4. DEDUP: a client retry that lands in a second batch after its
//     original batch committed is answered from the reply cache, not
//     re-executed — byzantine-driven regression tests per protocol.
//  5. TOOLING: batched scenarios record/replay byte-identically, produce
//     thread-count-independent fingerprints under ParallelRunner, and
//     shrink toward the unbatched defaults (irrelevant workload clients
//     dropped).
#include <gtest/gtest.h>

#include <algorithm>

#include "agreement/minbft.h"
#include "agreement/pbft.h"
#include "agreement/state_machines.h"
#include "explore/parallel.h"
#include "explore/scenario.h"
#include "explore/shrink.h"
#include "sim/adversaries.h"
#include "sim/workload.h"

namespace unidir::explore {
namespace {

constexpr std::uint64_t kSweepSeeds = 50;

InvariantRegistry safety_only() {
  InvariantRegistry r;
  r.add(smr_prefix_consistency()).add(smr_digest_equality());
  r.add(batch_atomicity());
  return r;
}

// ---- spec plumbing ---------------------------------------------------------

TEST(BatchingSpec, SerdeRoundTripsBatchAndWorkloadFields) {
  ScenarioSpec spec = ScenarioSpec::materialize_batched(
      ProtocolKind::MinBft, AdversaryKind::RandomDelay, 3);
  ASSERT_GT(spec.batch_size, 1u);
  ASSERT_GT(spec.replica_pipeline, 1u);
  ASSERT_TRUE(spec.workload.enabled());
  const ScenarioSpec back = ScenarioSpec::from_hex(spec.to_hex());
  EXPECT_EQ(back, spec);
  EXPECT_NE(spec.describe().find("batch="), std::string::npos);
  EXPECT_NE(spec.describe().find("workload="), std::string::npos);
}

TEST(BatchingSpec, MaterializeBatchedIsDeterministicAndKeepsBaseDraw) {
  const auto a = ScenarioSpec::materialize_batched(
      ProtocolKind::Pbft, AdversaryKind::RandomDelay, 11);
  const auto b = ScenarioSpec::materialize_batched(
      ProtocolKind::Pbft, AdversaryKind::RandomDelay, 11);
  EXPECT_EQ(a, b);
  // The base draw is shared with materialize(): the batching knobs come
  // from a separate stream, so existing sweeps keep their scenarios.
  const auto base = ScenarioSpec::materialize(ProtocolKind::Pbft,
                                              AdversaryKind::RandomDelay, 11);
  EXPECT_EQ(a.requests, base.requests);
  EXPECT_EQ(a.max_delay, base.max_delay);
  EXPECT_EQ(a.crashes, base.crashes);
  // Recovery variant: batching knobs on top of the recovery draw.
  const auto rec = ScenarioSpec::materialize_batched_recovery(
      ProtocolKind::Pbft, AdversaryKind::RandomDelay, 11);
  EXPECT_EQ(rec.batch_size, a.batch_size);
  EXPECT_EQ(rec.workload, a.workload);
  ASSERT_FALSE(rec.recoveries.empty());
}

TEST(BatchingSpec, DecodeRejectsZeroBatchKnobs) {
  ScenarioSpec spec = ScenarioSpec::materialize_batched(
      ProtocolKind::MinBft, AdversaryKind::Immediate, 1);
  spec.batch_size = 0;
  EXPECT_THROW((void)ScenarioSpec::from_hex(spec.to_hex()),
               serde::DecodeError);
  spec.batch_size = 4;
  spec.replica_pipeline = 0;
  EXPECT_THROW((void)ScenarioSpec::from_hex(spec.to_hex()),
               serde::DecodeError);
}

// ---- workload generator ----------------------------------------------------

TEST(WorkloadPlan, DeterministicAndPerClientStable) {
  sim::WorkloadSpec w;
  w.clients = 4;
  w.requests_per_client = 6;
  w.open_loop = true;
  w.mean_interarrival = 5;
  w.seed = 9;
  const auto a = w.plan();
  const auto b = w.plan();
  ASSERT_EQ(a.size(), 4u);
  EXPECT_EQ(a, b);
  // Dropping clients never perturbs the survivors' schedules — the
  // shrinker depends on this.
  sim::WorkloadSpec fewer = w;
  fewer.clients = 2;
  const auto c = fewer.plan();
  ASSERT_EQ(c.size(), 2u);
  EXPECT_EQ(c[0], a[0]);
  EXPECT_EQ(c[1], a[1]);
}

TEST(WorkloadPlan, OpenLoopArrivalsMonotoneClosedLoopImmediate) {
  sim::WorkloadSpec w;
  w.clients = 3;
  w.requests_per_client = 8;
  w.open_loop = true;
  w.mean_interarrival = 7;
  w.key_space = 5;
  w.seed = 4;
  for (const auto& plan : w.plan()) {
    ASSERT_EQ(plan.arrivals.size(), 8u);
    Time prev = 0;
    for (const auto& a : plan.arrivals) {
      EXPECT_GT(a.at, prev) << "open-loop arrivals strictly increase";
      prev = a.at;
      EXPECT_LT(a.key, 5u);
    }
  }
  w.open_loop = false;
  for (const auto& plan : w.plan())
    for (const auto& a : plan.arrivals)
      EXPECT_EQ(a.at, 0u) << "closed-loop submits everything upfront";
}

TEST(WorkloadPlan, HotKeySkewConcentratesOnHotSet) {
  sim::WorkloadSpec w;
  w.clients = 2;
  w.requests_per_client = 40;
  w.key_space = 64;
  w.hot_key_percent = 100;
  w.hot_keys = 2;
  w.seed = 6;
  for (const auto& plan : w.plan())
    for (const auto& a : plan.arrivals)
      EXPECT_LT(a.key, 2u) << "100% hot traffic stays on the hot set";
  w.hot_key_percent = 0;
  std::uint64_t beyond = 0;
  for (const auto& plan : w.plan())
    for (const auto& a : plan.arrivals)
      if (a.key >= 2) ++beyond;
  EXPECT_GT(beyond, 0u) << "uniform traffic uses the whole key space";
}

// ---- compatibility ---------------------------------------------------------

// Golden fingerprints of the unbatched wire protocol. First captured at the
// commit immediately preceding the batching change; re-pinned once since,
// when Command gained its `acked` field (every message carrying a command
// grew) and replica broadcasts stopped reaching clients (client transcripts
// lost their PREPARE/COMMIT/CHECKPOINT copies). The completed counts did
// not move. The default knobs (batch_size = 1, pipeline_depth = 1) must
// keep both protocols byte-for-byte on this wire protocol — same messages,
// same ordering, same transcripts.
TEST(BatchingCompat, DefaultKnobsFingerprintIdenticalToPreBatching) {
  struct Golden {
    const char* name;
    ScenarioSpec spec;
    std::uint64_t completed;
    const char* fingerprint;
  };
  const std::vector<Golden> goldens = {
      {"minbft-rd-1",
       ScenarioSpec::materialize(ProtocolKind::MinBft,
                                 AdversaryKind::RandomDelay, 1),
       9, "613479966dc71285d26f501d6e4b3769cd19fd6caa84d7d1d9d3a29b9c317a9c"},
      {"pbft-rd-2",
       ScenarioSpec::materialize(ProtocolKind::Pbft,
                                 AdversaryKind::RandomDelay, 2),
       10, "620cdf8c764ee61d2f458787175e1e2a6715626711a427eb2e356950a8fea229"},
      {"minbft-gst-3",
       ScenarioSpec::materialize(ProtocolKind::MinBft, AdversaryKind::Gst, 3),
       7, "cea553092f8a689fd0ba8960e6b79890701465d8781da5e5b0b668cf7fcbdeba"},
      {"pbft-dup-4",
       ScenarioSpec::materialize(ProtocolKind::Pbft,
                                 AdversaryKind::Duplicating, 4),
       9, "6dcc0edc6ca1d1778708aa8a0c2a0800d57a0da2523bef61237bcd36bbec24b6"},
      {"minbft-rec-5",
       ScenarioSpec::materialize_recovery(ProtocolKind::MinBft,
                                          AdversaryKind::RandomDelay, 5),
       10, "d34f47233ba1b2767efca12b2d30bbdf4555376e80384470cd724e124b9a68c8"},
      {"pbft-rec-6",
       ScenarioSpec::materialize_recovery(ProtocolKind::Pbft,
                                          AdversaryKind::RandomDelay, 6),
       4, "0ac7af91c55566107268f67036444fb5378ceb229674cb5cc0ab05179e6571d5"},
  };
  const InvariantRegistry reg = InvariantRegistry::standard_smr();
  for (const Golden& g : goldens) {
    EXPECT_EQ(g.spec.batch_size, 1u) << g.name;
    EXPECT_EQ(g.spec.replica_pipeline, 1u) << g.name;
    const RunOutcome out = run_scenario(g.spec, reg);
    EXPECT_EQ(out.completed, g.completed) << g.name;
    EXPECT_EQ(unidir::to_hex(ByteSpan(out.fingerprint.data(),
                                      out.fingerprint.size())),
              g.fingerprint)
        << g.name << ": the unbatched wire protocol changed";
  }
}

TEST(BatchingCompat, BatchedKnobsActuallyChangeTheExecution) {
  // The converse guard: if the batched fingerprint ever collapses onto the
  // unbatched one, the knobs silently stopped reaching the replicas.
  const ScenarioSpec batched = ScenarioSpec::materialize_batched(
      ProtocolKind::MinBft, AdversaryKind::RandomDelay, 5);
  ScenarioSpec plain = batched;
  plain.batch_size = 1;
  plain.replica_pipeline = 1;
  const InvariantRegistry reg = InvariantRegistry::standard_smr();
  const RunOutcome a = run_scenario(batched, reg);
  const RunOutcome b = run_scenario(plain, reg);
  EXPECT_FALSE(a.violation.has_value());
  EXPECT_FALSE(b.violation.has_value());
  EXPECT_EQ(a.expected, b.expected);
  EXPECT_NE(a.fingerprint, b.fingerprint);
}

// ---- sweeps ----------------------------------------------------------------

class BatchedSweepMatrix : public ::testing::TestWithParam<ProtocolKind> {};

TEST_P(BatchedSweepMatrix, FiftySeedsKeepEveryInvariant) {
  const ProtocolKind protocol = GetParam();
  const InvariantRegistry registry = InvariantRegistry::standard_smr();
  for (std::uint64_t seed = 1; seed <= kSweepSeeds; ++seed) {
    const ScenarioSpec spec = ScenarioSpec::materialize_batched(
        protocol, AdversaryKind::RandomDelay, seed);
    const RunOutcome out = run_scenario(spec, registry);
    EXPECT_FALSE(out.violation.has_value())
        << out.violation->describe() << "\n  scenario: " << spec.describe();
    EXPECT_EQ(out.completed, out.expected) << spec.describe();
    EXPECT_EQ(out.gave_up, 0u) << spec.describe();
  }
}

INSTANTIATE_TEST_SUITE_P(Protocols, BatchedSweepMatrix,
                         ::testing::Values(ProtocolKind::MinBft,
                                           ProtocolKind::Pbft));

class BatchedAdversaryMatrix
    : public ::testing::TestWithParam<std::tuple<ProtocolKind, AdversaryKind>> {
};

TEST_P(BatchedAdversaryMatrix, InvariantsHoldUnderAdversary) {
  const auto [protocol, adversary] = GetParam();
  const InvariantRegistry registry = InvariantRegistry::standard_smr();
  for (std::uint64_t seed = 1; seed <= 15; ++seed) {
    const ScenarioSpec spec =
        ScenarioSpec::materialize_batched(protocol, adversary, seed);
    const RunOutcome out = run_scenario(spec, registry);
    EXPECT_FALSE(out.violation.has_value())
        << out.violation->describe() << "\n  scenario: " << spec.describe();
    EXPECT_EQ(out.completed, out.expected) << spec.describe();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, BatchedAdversaryMatrix,
    ::testing::Combine(::testing::Values(ProtocolKind::MinBft,
                                         ProtocolKind::Pbft),
                       ::testing::Values(AdversaryKind::Immediate,
                                         AdversaryKind::Duplicating,
                                         AdversaryKind::Gst)));

class BatchedRecoveryMatrix : public ::testing::TestWithParam<ProtocolKind> {
};

TEST_P(BatchedRecoveryMatrix, CrashRestartSchedulesKeepEveryInvariant) {
  const ProtocolKind protocol = GetParam();
  const InvariantRegistry registry = InvariantRegistry::standard_smr();
  std::uint64_t total_recoveries = 0;
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    const ScenarioSpec spec = ScenarioSpec::materialize_batched_recovery(
        protocol, AdversaryKind::RandomDelay, seed);
    total_recoveries += spec.recoveries.size();
    const RunOutcome out = run_scenario(spec, registry);
    EXPECT_FALSE(out.violation.has_value())
        << out.violation->describe() << "\n  scenario: " << spec.describe();
    EXPECT_EQ(out.gave_up, 0u) << spec.describe();
  }
  EXPECT_GE(total_recoveries, 25u);
}

INSTANTIATE_TEST_SUITE_P(Protocols, BatchedRecoveryMatrix,
                         ::testing::Values(ProtocolKind::MinBft,
                                           ProtocolKind::Pbft));

class BatchedFuzzMatrix : public ::testing::TestWithParam<ProtocolKind> {};

TEST_P(BatchedFuzzMatrix, SafetyHoldsUnderByteCorruption) {
  // MutatingAdversary composed with batching: corruption may stall
  // liveness (mutation == drop at the decode boundary), so only safety —
  // including batch atomicity — is asserted, and the run must not crash.
  const ProtocolKind protocol = GetParam();
  const InvariantRegistry registry = safety_only();
  std::uint64_t mutated = 0;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    ScenarioSpec spec = ScenarioSpec::materialize_batched(
        protocol, AdversaryKind::Mutating, seed);
    spec.max_events = 120'000;  // a stalled run is a pass, not a hang
    spec.client_max_attempts = 6;
    const RunOutcome out = run_scenario(spec, registry);
    EXPECT_FALSE(out.violation.has_value())
        << out.violation->describe() << "\n  scenario: " << spec.describe();
    mutated += out.net.messages_mutated;
  }
  EXPECT_GT(mutated, 0u) << "mutations never reached the network";
}

INSTANTIATE_TEST_SUITE_P(Protocols, BatchedFuzzMatrix,
                         ::testing::Values(ProtocolKind::MinBft,
                                           ProtocolKind::Pbft));

// ---- amortization ----------------------------------------------------------

TEST(BatchingSweep, BatchingAmortizesProtocolMessagesAndSignatures) {
  // Same workload, batched vs unbatched: the batch path must send fewer
  // protocol messages (one slot certifies many requests). This is the
  // functional core of the throughput claim bench_hotpath quantifies.
  ScenarioSpec plain;
  plain.protocol = ProtocolKind::MinBft;
  plain.adversary = AdversaryKind::Immediate;
  plain.seed = 3;
  plain.n = 3;
  plain.f = 1;
  plain.requests.clear();
  plain.workload.clients = 4;
  plain.workload.requests_per_client = 8;
  plain.workload.max_outstanding = 4;
  plain.workload.key_space = 8;
  plain.workload.seed = 3;
  ScenarioSpec batched = plain;
  batched.batch_size = 8;
  batched.replica_pipeline = 4;
  batched.batch_timeout_ticks = 2;

  const InvariantRegistry reg = InvariantRegistry::standard_smr();
  const RunOutcome p = run_scenario(plain, reg);
  const RunOutcome b = run_scenario(batched, reg);
  ASSERT_FALSE(p.violation.has_value()) << p.violation->describe();
  ASSERT_FALSE(b.violation.has_value()) << b.violation->describe();
  EXPECT_EQ(p.completed, 32u);
  EXPECT_EQ(b.completed, 32u);
  EXPECT_LT(b.net.messages_sent, p.net.messages_sent)
      << "batching should amortize per-slot protocol traffic";
}

// ---- tooling ---------------------------------------------------------------

TEST(BatchingSweep, BatchedScenariosReplayByteIdentically) {
  for (const ProtocolKind protocol :
       {ProtocolKind::MinBft, ProtocolKind::Pbft}) {
    const ScenarioSpec spec = ScenarioSpec::materialize_batched(
        protocol, AdversaryKind::RandomDelay, 17);
    const InvariantRegistry reg = InvariantRegistry::standard_smr();

    const RunOutcome recorded = run_scenario(spec, reg, RunMode::Record);
    ASSERT_FALSE(recorded.violation.has_value())
        << recorded.violation->describe() << " — " << spec.describe();
    ASSERT_GT(recorded.trace.decisions.size(), 0u);

    const RunOutcome replayed =
        run_scenario(spec, reg, RunMode::Replay, &recorded.trace);
    EXPECT_EQ(replayed.replay_missed, 0u) << protocol_name(protocol);
    EXPECT_EQ(replayed.fingerprint, recorded.fingerprint)
        << protocol_name(protocol);
    EXPECT_EQ(replayed.completed, recorded.completed);
    EXPECT_EQ(replayed.final_time, recorded.final_time);
  }
}

TEST(BatchingSweep, SerialAndParallelFingerprintsMatch) {
  std::vector<ScenarioSpec> specs;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    specs.push_back(ScenarioSpec::materialize_batched(
        ProtocolKind::MinBft, AdversaryKind::RandomDelay, seed));
    specs.push_back(ScenarioSpec::materialize_batched(
        ProtocolKind::Pbft, AdversaryKind::RandomDelay, seed));
  }
  const InvariantRegistry reg = InvariantRegistry::standard_smr();
  const std::vector<RunOutcome> serial =
      ParallelRunner(1).run_scenarios(specs, reg);
  const std::vector<RunOutcome> parallel =
      ParallelRunner(4).run_scenarios(specs, reg);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].fingerprint, parallel[i].fingerprint)
        << "spec " << i << ": " << specs[i].describe();
    EXPECT_EQ(serial[i].completed, parallel[i].completed);
  }
}

TEST(BatchingSweep, ShrinkerResetsBatchKnobsAndDropsWorkload) {
  // bounded-executions fails on the legacy requests alone, so the batch
  // knobs and the whole workload fleet are noise the shrinker must remove.
  InvariantRegistry reg = InvariantRegistry::standard_smr();
  reg.add(bounded_executions(2));

  const ScenarioSpec spec = ScenarioSpec::materialize_batched(
      ProtocolKind::MinBft, AdversaryKind::RandomDelay, 7);
  ASSERT_GT(spec.batch_size, 1u);
  ASSERT_TRUE(spec.workload.enabled());
  ASSERT_GT(spec.requests.size(), 3u);

  RunOutcome out = run_scenario(spec, reg, RunMode::Record);
  ASSERT_TRUE(out.violation.has_value());
  ASSERT_EQ(out.violation->invariant, "bounded-executions");

  const ShrinkOutcome shr =
      shrink_failure(spec, out.trace, reg, out.violation->invariant);
  EXPECT_EQ(shr.spec.batch_size, 1u);
  EXPECT_EQ(shr.spec.replica_pipeline, 1u);
  EXPECT_FALSE(shr.spec.workload.enabled());
  EXPECT_EQ(shr.spec.requests.size(), 3u);

  const RunOutcome r1 =
      run_scenario(shr.spec, reg, RunMode::Replay, &shr.trace);
  ASSERT_TRUE(r1.violation.has_value());
  EXPECT_EQ(r1.violation->invariant, "bounded-executions");
}

TEST(BatchingSweep, ShrinkerTrimsWorkloadWhenItIsTheOnlyLoad) {
  InvariantRegistry reg = InvariantRegistry::standard_smr();
  reg.add(bounded_executions(2));

  ScenarioSpec spec = ScenarioSpec::materialize_batched(
      ProtocolKind::MinBft, AdversaryKind::RandomDelay, 9);
  spec.requests.clear();  // fleet-only load: the workload cannot be dropped
  spec.workload.clients = 4;
  spec.workload.requests_per_client = 8;

  RunOutcome out = run_scenario(spec, reg, RunMode::Record);
  ASSERT_TRUE(out.violation.has_value());
  ASSERT_EQ(out.violation->invariant, "bounded-executions");

  const ShrinkOutcome shr =
      shrink_failure(spec, out.trace, reg, out.violation->invariant);
  EXPECT_TRUE(shr.spec.workload.enabled())
      << "the only load source must survive";
  EXPECT_LT(shr.spec.workload.clients * shr.spec.workload.requests_per_client,
            32u);
  EXPECT_EQ(shr.spec.batch_size, 1u);
  EXPECT_EQ(shr.spec.replica_pipeline, 1u);
}

}  // namespace
}  // namespace unidir::explore
