// Crash-restart sweeps (ctest label: recovery): the recovery adversary —
// randomized crash+restart schedules on top of a randomly-delayed network —
// across 50 seeds per protocol.
//
// Three claims, matching DESIGN.md §9:
//
//  1. POSITIVE: with durable trusted state every invariant of the standard
//     SMR registry holds — safety (prefix consistency, digest equality)
//     AND liveness (every request completes; replicas come back, so
//     unlimited client retries must eventually land).
//  2. NEGATIVE: the same sweep with volatile trusted state (counters
//     rewind at restart — reset_for_power_loss) re-enables equivocation,
//     and the registry catches real safety violations. This is the paper's
//     classification made executable: the trusted log's power derives from
//     state that must survive the host's crashes.
//  3. TOOLING: recovery scenarios record, replay byte-identically, and
//     shrink like any other scenario — crash+restart pairs are explicit
//     spec data, and irrelevant ones are dropped by the shrinker.
//
// Plus the composed fuzz: crash-restart schedules UNDER byte corruption
// (MutatingAdversary). No crash, safety holds among correct processes.
#include <gtest/gtest.h>

#include "agreement/state_machines.h"
#include "explore/scenario.h"
#include "explore/shrink.h"

namespace unidir::explore {
namespace {

constexpr std::uint64_t kSweepSeeds = 50;

InvariantRegistry safety_only() {
  InvariantRegistry r;
  r.add(smr_prefix_consistency()).add(smr_digest_equality());
  return r;
}

TEST(RecoverySweep, SpecSerdeRoundTripsWithRecoveryFields) {
  ScenarioSpec spec = ScenarioSpec::materialize_recovery(
      ProtocolKind::MinBft, AdversaryKind::RandomDelay, 3);
  spec.volatile_trusted_state = true;
  spec.client_max_attempts = 7;
  ASSERT_FALSE(spec.recoveries.empty());
  const ScenarioSpec back = ScenarioSpec::from_hex(spec.to_hex());
  EXPECT_EQ(back, spec);
  EXPECT_NE(spec.describe().find("recoveries=["), std::string::npos);
  EXPECT_NE(spec.describe().find("volatile-trusted"), std::string::npos);
}

TEST(RecoverySweep, MaterializeRecoveryIsDeterministicAndKeepsBaseDraw) {
  const auto a = ScenarioSpec::materialize_recovery(
      ProtocolKind::Pbft, AdversaryKind::RandomDelay, 11);
  const auto b = ScenarioSpec::materialize_recovery(
      ProtocolKind::Pbft, AdversaryKind::RandomDelay, 11);
  EXPECT_EQ(a, b);
  // The base draw is shared with materialize(): same workload and knobs,
  // so existing sweeps keep their per-seed scenarios.
  const auto base = ScenarioSpec::materialize(ProtocolKind::Pbft,
                                              AdversaryKind::RandomDelay, 11);
  EXPECT_EQ(a.requests, base.requests);
  EXPECT_EQ(a.max_delay, base.max_delay);
  EXPECT_TRUE(a.crashes.empty());
  ASSERT_FALSE(a.recoveries.empty());
  for (const RecoveryEvent& ev : a.recoveries)
    EXPECT_GT(ev.restart_at, ev.crash_at);
}

class RecoverySweepMatrix : public ::testing::TestWithParam<ProtocolKind> {};

TEST_P(RecoverySweepMatrix, DurableStateKeepsEveryInvariant) {
  const ProtocolKind protocol = GetParam();
  const InvariantRegistry registry = InvariantRegistry::standard_smr();
  std::uint64_t total_recoveries = 0;
  for (std::uint64_t seed = 1; seed <= kSweepSeeds; ++seed) {
    const ScenarioSpec spec = ScenarioSpec::materialize_recovery(
        protocol, AdversaryKind::RandomDelay, seed);
    total_recoveries += spec.recoveries.size();
    const RunOutcome out = run_scenario(spec, registry);
    EXPECT_FALSE(out.violation.has_value())
        << out.violation->describe() << "\n  scenario: " << spec.describe();
    EXPECT_EQ(out.gave_up, 0u) << spec.describe();
  }
  EXPECT_GE(total_recoveries, kSweepSeeds)
      << "every drawn scenario restarts at least one replica";
}

INSTANTIATE_TEST_SUITE_P(Protocols, RecoverySweepMatrix,
                         ::testing::Values(ProtocolKind::MinBft,
                                           ProtocolKind::Pbft));

// A replica that suspects the primary alone asks for state before it
// rejoins. These six PBFT draws commit every request, then a recovered
// replica keeps timing out on requests its peers already executed. Each
// lone attempt used to end in an abandon and a fresh deadline, so the run
// churned abandoned view changes until the event cap. State transfer now
// settles those requests, and the run quiesces.
TEST(RecoverySweep, LoneSuspectCatchesUpAndQuiesces) {
  struct Draw {
    AdversaryKind adversary;
    std::uint64_t seed;
  };
  const Draw draws[] = {
      {AdversaryKind::RandomDelay, 3}, {AdversaryKind::RandomDelay, 28},
      {AdversaryKind::RandomDelay, 48}, {AdversaryKind::RandomDelay, 56},
      {AdversaryKind::Gst, 1},          {AdversaryKind::Gst, 39},
  };
  const InvariantRegistry registry = InvariantRegistry::standard_smr();
  for (const Draw& d : draws) {
    ScenarioSpec spec = ScenarioSpec::materialize_recovery(ProtocolKind::Pbft,
                                                           d.adversary, d.seed);
    spec.max_events = 100'000;
    const RunOutcome out = run_scenario(spec, registry);
    EXPECT_FALSE(out.violation.has_value())
        << out.violation->describe() << "\n  scenario: " << spec.describe();
    EXPECT_EQ(out.completed, out.expected) << spec.describe();
    EXPECT_LT(out.events, 2'000u) << spec.describe();
  }
}

// Builds the targeted equivocation schedule for `seed`. The recycled-counter
// attack needs a backup with a one-slot hole exactly where the rewound
// primary's counter stream will land, so the crash times are hand-placed
// (with per-seed jitter) rather than drawn:
//
//   - Backup P (replica 2) crashes just after persisting its first
//     execution, so its durable image says "cursor = counter 2" while its
//     peers move on. It restarts with a real image — not blank — and its
//     recovery probes fire into a dead cluster, so no StateReply fills the
//     hole first.
//   - Primary A (replica 0) crashes after executing one entry more, then
//     restarts with its USIG counter rewound to 1. The client's remaining
//     requests make it re-issue counters 2, 3, ... for commands that never
//     held them — counter 2 drops into P's cursor hole, and P executes a
//     different command at a log position A's branch already assigned.
//   - Replica Q (1) crashes right after A and never returns: the only
//     replica whose vote could form a view-change quorum and re-align the
//     branches stays silent, and the crashed-at-end process is excluded
//     from the invariant context anyway.
//
// From counter 3 onward both branches execute the same commands in
// lockstep, so the two logs stay the SAME length: install_bundle's strict
// size test can never overwrite either branch, and the fork is frozen into
// the end state where the registry reads it. The chain digests through the
// divergence point differ even after pruning (prefix consistency hashes
// the pruned prefix), and the state digests differ at equal executed
// counts (digest equality).
ScenarioSpec targeted_equivocation_spec(std::uint64_t seed) {
  ScenarioSpec spec = ScenarioSpec::materialize_recovery(
      ProtocolKind::MinBft, AdversaryKind::RandomDelay, seed);
  spec.n = 3;
  spec.f = 1;
  spec.max_delay = 6;  // keep hop latency small so the jitter scan below
                       // lands inside the one-slot fork window
  while (spec.requests.size() < 5)
    spec.requests.push_back(agreement::KvStateMachine::put_op("key-pad", "v"));
  spec.requests.resize(5);
  spec.pipeline_depth = 1;  // serial client: give-ups pace the counter climb
  spec.resend_timeout = 20;
  spec.client_max_attempts = 4;
  spec.view_change_timeout = 600;
  // Persist at every execution: the restarting replicas resume from real
  // images whose cursors bracket the in-flight slot.
  spec.checkpoint_interval = 1;
  // The forked run cannot quiesce (the rewound primary's stranded request
  // retries solo view changes forever); the cap ends it with the forked
  // logs intact for the registry.
  spec.max_events = 30'000;
  const Time tc = 12 + (seed % 6) * 2;        // P's crash: rid2 in flight
  const Time d0 = 6 + ((seed >> 1) % 4) * 2;  // A's crash: rid3 in flight
  spec.recoveries.clear();
  spec.crashes.clear();
  spec.recoveries.push_back({2, tc, tc + 120});
  spec.recoveries.push_back({0, tc + d0, tc + 140});
  spec.crashes.push_back({1, tc + d0 + 2});
  return spec;
}

TEST(RecoverySweep, VolatileTrustedStateBreaksMinBftSafety) {
  // The negative experiment, paired with its control: the same targeted
  // crash schedule runs twice per seed. With durable trusted state the
  // rewound primary is impossible — its device resumes past every counter
  // it ever issued, the backup's hole stays empty until state transfer
  // fills it, and safety holds in every seed. With volatile state
  // (restart_device wipes the counter — power-loss semantics) the very
  // same schedule re-enables equivocation, and the registry must catch a
  // real fork in a healthy fraction of seeds. The jitter windows don't hit
  // the in-flight slot in every seed — network delays are seed-drawn — so
  // the assertion is "at least one caught fork", not per-seed.
  const InvariantRegistry registry = safety_only();
  std::uint64_t violations = 0;
  for (std::uint64_t seed = 1; seed <= kSweepSeeds; ++seed) {
    ScenarioSpec spec = targeted_equivocation_spec(seed);

    spec.volatile_trusted_state = false;
    const RunOutcome control = run_scenario(spec, registry);
    EXPECT_FALSE(control.violation.has_value())
        << "durable control forked: " << control.violation->describe()
        << "\n  scenario: " << spec.describe();

    spec.volatile_trusted_state = true;
    const RunOutcome out = run_scenario(spec, registry);
    if (out.violation) {
      ++violations;
      EXPECT_TRUE(out.violation->invariant == "smr-prefix-consistency" ||
                  out.violation->invariant == "smr-digest-equality")
          << out.violation->describe();
    }
  }
  EXPECT_GT(violations, 0u)
      << "volatile trusted state never produced an observable safety "
         "violation — the negative experiment lost its teeth";
}

TEST(RecoverySweep, RecoveryScenariosReplayByteIdentically) {
  for (const ProtocolKind protocol :
       {ProtocolKind::MinBft, ProtocolKind::Pbft}) {
    const ScenarioSpec spec = ScenarioSpec::materialize_recovery(
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

TEST(RecoverySweep, ShrinkerDropsIrrelevantRecoveryEvents) {
  // bounded-executions fails on workload size alone; the crash+restart
  // schedule is noise the shrinker must remove (whole pairs at a time),
  // and the shrunk artifact must still replay to the same violation.
  InvariantRegistry reg = InvariantRegistry::standard_smr();
  reg.add(bounded_executions(2));

  const ScenarioSpec spec = ScenarioSpec::materialize_recovery(
      ProtocolKind::MinBft, AdversaryKind::RandomDelay, 7);
  ASSERT_FALSE(spec.recoveries.empty());
  ASSERT_GT(spec.requests.size(), 3u);

  RunOutcome out = run_scenario(spec, reg, RunMode::Record);
  ASSERT_TRUE(out.violation.has_value());
  ASSERT_EQ(out.violation->invariant, "bounded-executions");

  const ShrinkOutcome shr =
      shrink_failure(spec, out.trace, reg, out.violation->invariant);
  EXPECT_EQ(shr.spec.recoveries.size(), 0u);
  EXPECT_EQ(shr.spec.requests.size(), 3u);

  const RunOutcome r1 = run_scenario(shr.spec, reg, RunMode::Replay, &shr.trace);
  const RunOutcome r2 = run_scenario(shr.spec, reg, RunMode::Replay, &shr.trace);
  ASSERT_TRUE(r1.violation.has_value());
  EXPECT_EQ(r1.violation->invariant, "bounded-executions");
  EXPECT_EQ(r1.fingerprint, r2.fingerprint);
}

class RecoveryFuzzMatrix : public ::testing::TestWithParam<ProtocolKind> {};

TEST_P(RecoveryFuzzMatrix, SafetyHoldsUnderRestartsPlusByteCorruption) {
  // Composed adversary: crash-restart schedules UNDER the mutating network.
  // Corruption may stall liveness (mutation == drop at the decode
  // boundary), so only safety is asserted — and the run must not crash.
  const ProtocolKind protocol = GetParam();
  const InvariantRegistry registry = safety_only();
  std::uint64_t mutated = 0;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    ScenarioSpec spec = ScenarioSpec::materialize_recovery(
        protocol, AdversaryKind::Mutating, seed);
    spec.max_events = 60'000;  // a stalled run is a pass, not a hang
    spec.client_max_attempts = 6;
    const RunOutcome out = run_scenario(spec, registry);
    EXPECT_FALSE(out.violation.has_value())
        << out.violation->describe() << "\n  scenario: " << spec.describe();
    mutated += out.net.messages_mutated;
  }
  EXPECT_GT(mutated, 0u) << "mutations never reached the network";
}

INSTANTIATE_TEST_SUITE_P(Protocols, RecoveryFuzzMatrix,
                         ::testing::Values(ProtocolKind::MinBft,
                                           ProtocolKind::Pbft));

}  // namespace
}  // namespace unidir::explore
