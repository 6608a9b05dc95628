// Batched + pipelined SMR sweeps (ctest label: batch): request batching,
// slot pipelining and the client-fleet workload generator, validated
// against the full standard_smr registry — including the batch-atomicity
// checker — across seeds, adversaries, crash+restart schedules and byte
// corruption.
//
// Five claims, matching DESIGN.md §11:
//
//  1. COMPATIBILITY: with batch_size = 1 and pipeline_depth = 1 both
//     protocols propose every request at once as a batch of one, and the
//     golden fingerprints below pin that wire protocol bit-for-bit (see the
//     re-pin note at the test).
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
//     shrink toward the default knobs (irrelevant workload clients
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

// Golden fingerprints of the default knobs (batch_size = 1,
// pipeline_depth = 1). First captured at the commit immediately preceding
// the batching change; re-pinned when Command gained its `acked` field and
// replica broadcasts stopped reaching clients; re-pinned again when the
// unbatched wire path was retired and both protocols moved onto one
// replica core: a one-command slot now travels as a batch of one (MinBFT's
// UIs sign the command vector, PBFT's votes name the batch digest), every
// executed slot emits its "smr-batch" witness, and the shared messages took
// common tags. The completed counts did not move. The default knobs must
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
       9, "0c76d1321ea405d431e0857ce0cf0b6bb4d837fc12b36b7f80a120e2cb2381bd"},
      {"pbft-rd-2",
       ScenarioSpec::materialize(ProtocolKind::Pbft,
                                 AdversaryKind::RandomDelay, 2),
       10, "3b176a743ad9ed6fbbc4a69c8af66cea8637025cce9201169d96c2621a88d992"},
      {"minbft-gst-3",
       ScenarioSpec::materialize(ProtocolKind::MinBft, AdversaryKind::Gst, 3),
       7, "2ca703737d474ed052dee1e61e066ebebc77284d3ee6af892369073842a15e05"},
      {"pbft-dup-4",
       ScenarioSpec::materialize(ProtocolKind::Pbft,
                                 AdversaryKind::Duplicating, 4),
       9, "622bfd59eb33cae6927b6520a58ddc03ab09d4da9e418135643081bd75bf29f4"},
      {"minbft-rec-5",
       ScenarioSpec::materialize_recovery(ProtocolKind::MinBft,
                                          AdversaryKind::RandomDelay, 5),
       10, "4258fe3e475fd0b81910ac2fa64876c631c403f0b15655ea4ddad81bf62031e2"},
      {"pbft-rec-6",
       ScenarioSpec::materialize_recovery(ProtocolKind::Pbft,
                                          AdversaryKind::RandomDelay, 6),
       4, "b92a4488c7373be6f481dada4b036d68ab6c9f91fcf5cf0438bb13552fc80ac7"},
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
        << g.name << ": the default-knob wire protocol changed";
  }
}

TEST(BatchingCompat, BatchedKnobsActuallyChangeTheExecution) {
  // The converse guard: if the batched fingerprint ever collapses onto the
  // default knobs' one, the knobs silently stopped reaching the replicas.
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

// ---- batch of one ----------------------------------------------------------
//
// With the default knobs a slot holds one command and the primary's
// in-flight slots are unbounded: every admitted request is proposed at
// once, in its own slot. A closed-loop cluster's throughput rests on it.

void expect_each_request_in_its_own_slot(
    sim::World& world, std::size_t n, std::size_t f,
    const std::function<agreement::ReplicaCore&()>& spawn) {
  std::vector<const agreement::ReplicaCore*> replicas;
  for (std::size_t i = 0; i < n; ++i) replicas.push_back(&spawn());
  agreement::SmrClient::Options copt;
  for (ProcessId i = 0; i < n; ++i) copt.replicas.push_back(i);
  copt.f = f;
  constexpr std::size_t kRequests = 8;
  std::vector<agreement::SmrClient*> clients;
  for (std::size_t c = 0; c < kRequests; ++c) {
    clients.push_back(&world.spawn<agreement::SmrClient>(copt));
    clients.back()->submit(
        agreement::KvStateMachine::put_op("k" + std::to_string(c), "v"));
  }
  std::size_t peak = 0;
  world.start();
  world.run_until([&] {
    peak = std::max(peak, replicas[0]->open_slots());
    return false;
  });
  EXPECT_EQ(peak, kRequests) << "the primary held back a proposal";
  for (const agreement::SmrClient* c : clients) EXPECT_EQ(c->completed(), 1u);
  for (const agreement::ReplicaCore* r : replicas) {
    std::size_t batches = 0;
    for (const sim::ObservedEvent& ev : world.transcript(r->id()).events()) {
      if (ev.tag != "smr-batch") continue;
      ++batches;
      serde::Reader rd(ev.payload.span());
      rd.uvarint();  // view
      rd.uvarint();  // slot
      EXPECT_EQ(rd.uvarint(), 1u) << "replica " << r->id();
    }
    EXPECT_EQ(batches, kRequests) << "replica " << r->id();
  }
}

TEST(BatchOfOne, MinBftDefaultsProposeEveryRequestAtOnce) {
  sim::World world(3, std::make_unique<sim::ImmediateAdversary>());
  agreement::SgxUsigDirectory usigs(world.keys());
  agreement::MinBftReplica::Options options;
  options.f = 1;
  options.replicas = {0, 1, 2};
  expect_each_request_in_its_own_slot(
      world, 3, 1, [&]() -> agreement::ReplicaCore& {
        return world.spawn<agreement::MinBftReplica>(
            options, usigs, std::make_unique<agreement::KvStateMachine>());
      });
}

TEST(BatchOfOne, PbftDefaultsProposeEveryRequestAtOnce) {
  sim::World world(4, std::make_unique<sim::ImmediateAdversary>());
  agreement::PbftReplica::Options options;
  options.f = 1;
  options.replicas = {0, 1, 2, 3};
  expect_each_request_in_its_own_slot(
      world, 4, 1, [&]() -> agreement::ReplicaCore& {
        return world.spawn<agreement::PbftReplica>(
            options, std::make_unique<agreement::KvStateMachine>());
      });
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
  // Same workload, batches of 8 vs batches of 1: the former must send fewer
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
