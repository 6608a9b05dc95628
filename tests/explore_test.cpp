// Tests for the schedule explorer: trace serialization, record/replay
// determinism, delta-debugging shrinking, and the sweep driver. The
// "failing protocol" throughout is a healthy MinBFT/PBFT cluster checked
// against a deliberately broken invariant (bounded-executions), which
// gives a guaranteed, deterministic violation to exercise the machinery.
#include <gtest/gtest.h>

#include "explore/explorer.h"
#include "explore/record_replay.h"
#include "explore/scenario.h"
#include "explore/shrink.h"

namespace unidir::explore {
namespace {

TEST(ScheduleTrace, DecisionSerdeRoundTrips) {
  ScheduleTrace t;
  t.decisions.push_back(
      {DecisionKind::Send, {1, 2, 7, 0xDEADBEEFULL}, false, 13, 1});
  t.decisions.push_back(
      {DecisionKind::Copies, {0, 4, 52, 42}, false, 0, 3});
  t.decisions.push_back(
      {DecisionKind::Release, {3, 1, 9, 99}, true, 0, 1});
  const ScheduleTrace back = ScheduleTrace::from_hex(t.to_hex());
  EXPECT_EQ(back, t);
  EXPECT_NE(t.summary().find("3 decisions"), std::string::npos);
}

TEST(ScheduleTrace, DecodeRejectsBadKind) {
  serde::Writer w;
  w.uvarint(1);  // one decision
  w.u8(9);       // invalid DecisionKind
  EXPECT_THROW(serde::decode<ScheduleTrace>(w.buffer()),
               serde::DecodeError);
}

TEST(ScenarioSpec, SerdeRoundTripsThroughHex) {
  const ScenarioSpec spec = ScenarioSpec::materialize(
      ProtocolKind::Pbft, AdversaryKind::Duplicating, 11);
  const ScenarioSpec back = ScenarioSpec::from_hex(spec.to_hex());
  EXPECT_EQ(back, spec);
  EXPECT_NE(spec.describe().find("pbft"), std::string::npos);
  EXPECT_NE(spec.describe().find("duplicating"), std::string::npos);
}

TEST(ScenarioSpec, MaterializeIsDeterministicPerSeed) {
  const auto a = ScenarioSpec::materialize(ProtocolKind::MinBft,
                                           AdversaryKind::RandomDelay, 5);
  const auto b = ScenarioSpec::materialize(ProtocolKind::MinBft,
                                           AdversaryKind::RandomDelay, 5);
  const auto c = ScenarioSpec::materialize(ProtocolKind::MinBft,
                                           AdversaryKind::RandomDelay, 6);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

TEST(ReplayAdversary, FallsBackWhenTraceHasNoDecision) {
  ScheduleTrace t;
  sim::Envelope known;
  known.from = 0;
  known.to = 1;
  known.channel = 3;
  known.payload = bytes_of("known");
  t.decisions.push_back(
      {DecisionKind::Send, MessageKey::of(known), false, 17, 1});

  ReplayAdversary replay(t);
  sim::Rng rng(1);
  EXPECT_EQ(replay.on_send(known, rng), Time{17});

  sim::Envelope unknown = known;
  unknown.payload = bytes_of("never recorded");
  EXPECT_EQ(replay.on_send(unknown, rng), Time{1});  // fallback
  EXPECT_EQ(replay.copies(unknown, rng), 1u);
  EXPECT_EQ(replay.matched(), 1u);
  EXPECT_EQ(replay.missed(), 2u);
}

TEST(ReplayAdversary, SameKeyDecisionsReplayInRecordingOrder) {
  sim::Envelope env;
  env.from = 2;
  env.to = 5;
  env.channel = 1;
  env.payload = bytes_of("resend");
  ScheduleTrace t;
  t.decisions.push_back({DecisionKind::Send, MessageKey::of(env), false, 4, 1});
  t.decisions.push_back({DecisionKind::Send, MessageKey::of(env), true, 0, 1});
  t.decisions.push_back({DecisionKind::Send, MessageKey::of(env), false, 9, 1});

  ReplayAdversary replay(t);
  sim::Rng rng(1);
  EXPECT_EQ(replay.on_send(env, rng), Time{4});
  EXPECT_EQ(replay.on_send(env, rng), std::nullopt);  // the recorded hold
  EXPECT_EQ(replay.on_send(env, rng), Time{9});
}

// The core promise: recording an execution and replaying its trace on a
// fresh world reproduces the execution byte-for-byte — every process
// observes an identical transcript.
class RecordReplay
    : public ::testing::TestWithParam<std::tuple<ProtocolKind, AdversaryKind>> {
};

TEST_P(RecordReplay, ReplayIsByteIdentical) {
  const auto [protocol, adversary] = GetParam();
  const ScenarioSpec spec = ScenarioSpec::materialize(protocol, adversary, 9);
  const InvariantRegistry reg = InvariantRegistry::standard_smr();

  RunOutcome recorded = run_scenario(spec, reg, RunMode::Record);
  ASSERT_FALSE(recorded.violation.has_value())
      << recorded.violation->describe() << " — " << spec.describe();
  ASSERT_GT(recorded.trace.decisions.size(), 0u);

  const RunOutcome replayed =
      run_scenario(spec, reg, RunMode::Replay, &recorded.trace);
  EXPECT_EQ(replayed.replay_missed, 0u);
  EXPECT_EQ(replayed.fingerprint, recorded.fingerprint);
  EXPECT_EQ(replayed.completed, recorded.completed);
  EXPECT_EQ(replayed.final_time, recorded.final_time);
  EXPECT_EQ(replayed.net.messages_delivered, recorded.net.messages_delivered);
  // Every recorded decision was consumed, in order.
  EXPECT_EQ(replayed.trace, recorded.trace);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, RecordReplay,
    ::testing::Combine(::testing::Values(ProtocolKind::MinBft,
                                         ProtocolKind::Pbft),
                       ::testing::Values(AdversaryKind::RandomDelay,
                                         AdversaryKind::Duplicating,
                                         AdversaryKind::Gst)));

// Acceptance scenario: a sweep with an injected broken invariant must
// yield a shrunken trace that replays to the same violation
// deterministically.
TEST(Shrink, InjectedViolationShrinksAndReplaysDeterministically) {
  InvariantRegistry reg = InvariantRegistry::standard_smr();
  reg.add(bounded_executions(2));

  const ScenarioSpec spec = ScenarioSpec::materialize(
      ProtocolKind::MinBft, AdversaryKind::RandomDelay, 7);
  ASSERT_GT(spec.requests.size(), 3u);

  RunOutcome out = run_scenario(spec, reg, RunMode::Record);
  ASSERT_TRUE(out.violation.has_value());
  EXPECT_EQ(out.violation->invariant, "bounded-executions");

  const ShrinkOutcome shr = shrink_failure(spec, out.trace, reg,
                                           out.violation->invariant);
  // Minimal failing workload: 3 requests beat the bound of 2; crashes are
  // noise and must all be removed; every surviving delay collapses to 1.
  EXPECT_EQ(shr.spec.requests.size(), 3u);
  EXPECT_EQ(shr.spec.crashes.size(), 0u);
  EXPECT_LE(shr.trace.decisions.size(), out.trace.decisions.size());
  for (const ScheduleDecision& d : shr.trace.decisions) {
    if (d.kind == DecisionKind::Copies) {
      EXPECT_EQ(d.copies, 1u);
    } else if (!d.held) {
      EXPECT_EQ(d.delay, 1u) << d.describe();
    }
  }

  const RunOutcome r1 =
      run_scenario(shr.spec, reg, RunMode::Replay, &shr.trace);
  const RunOutcome r2 =
      run_scenario(shr.spec, reg, RunMode::Replay, &shr.trace);
  ASSERT_TRUE(r1.violation.has_value());
  ASSERT_TRUE(r2.violation.has_value());
  EXPECT_EQ(r1.violation->invariant, "bounded-executions");
  EXPECT_EQ(r1.violation->message, r2.violation->message);
  EXPECT_EQ(r1.fingerprint, r2.fingerprint);
}

// The shrunken artifact survives serialization: decode from hex and the
// violation still reproduces (the "standalone artifact" property).
TEST(Shrink, ShrunkArtifactSurvivesHexRoundTrip) {
  InvariantRegistry reg = InvariantRegistry::standard_smr();
  reg.add(bounded_executions(1));

  const ScenarioSpec spec = ScenarioSpec::materialize(
      ProtocolKind::Pbft, AdversaryKind::Duplicating, 3);
  RunOutcome out = run_scenario(spec, reg, RunMode::Record);
  ASSERT_TRUE(out.violation.has_value());
  const ShrinkOutcome shr =
      shrink_failure(spec, out.trace, reg, out.violation->invariant);

  const ScenarioSpec spec2 = ScenarioSpec::from_hex(shr.spec.to_hex());
  const ScheduleTrace trace2 = ScheduleTrace::from_hex(shr.trace.to_hex());
  const RunOutcome replayed =
      run_scenario(spec2, reg, RunMode::Replay, &trace2);
  ASSERT_TRUE(replayed.violation.has_value());
  EXPECT_EQ(replayed.violation->invariant, "bounded-executions");
}

TEST(Explorer, SweepFindsShrinksAndCertifiesInjectedBug) {
  SweepPlan plan;
  plan.protocols = {ProtocolKind::MinBft};
  plan.adversaries = {AdversaryKind::RandomDelay};
  plan.seeds = 3;
  plan.seed_base = 1;

  InvariantRegistry reg = InvariantRegistry::standard_smr();
  reg.add(bounded_executions(2));

  const ExplorationReport report = Explorer(plan, reg).run();
  EXPECT_EQ(report.runs, 3u);
  ASSERT_GE(report.findings.size(), 1u);
  for (const Finding& f : report.findings) {
    EXPECT_EQ(f.violation.invariant, "bounded-executions");
    EXPECT_TRUE(f.deterministic) << f.replay_snippet();
    EXPECT_LE(f.shrunk_trace.decisions.size(), f.recorded_decisions);
    EXPECT_EQ(f.shrunk_spec.crashes.size(), 0u);
    EXPECT_NE(f.replay_snippet().find("ScenarioSpec::from_hex"),
              std::string::npos);
    EXPECT_NE(f.replay_snippet().find("ScheduleTrace::from_hex"),
              std::string::npos);
  }
  EXPECT_NE(report.summary().find("3 executions"), std::string::npos);
}

TEST(Explorer, CleanSweepReportsNoFindings) {
  SweepPlan plan;
  plan.protocols = {ProtocolKind::Pbft};
  plan.adversaries = {AdversaryKind::Gst};
  plan.seeds = 2;
  plan.seed_base = 1;

  const ExplorationReport report =
      Explorer(plan, InvariantRegistry::standard_smr()).run();
  EXPECT_EQ(report.runs, 2u);
  EXPECT_TRUE(report.findings.empty());
}

// A mutated protocol knob (MinBFT commit quorum of n instead of the
// default f+1 — legal but over-strict) is expressible in the spec,
// recordable and replayable like any scenario — the knob for deliberately
// mis-tuned runs.
TEST(Scenario, MutatedCommitQuorumKnobRoundTrips) {
  ScenarioSpec spec = ScenarioSpec::materialize(ProtocolKind::MinBft,
                                                AdversaryKind::RandomDelay, 2);
  spec.commit_quorum = spec.n;  // every replica must confirm
  spec.crashes.clear();  // quorum n tolerates no crash; keep the run live
  const InvariantRegistry reg = InvariantRegistry::standard_smr();
  RunOutcome recorded = run_scenario(spec, reg, RunMode::Record);
  const RunOutcome replayed =
      run_scenario(spec, reg, RunMode::Replay, &recorded.trace);
  EXPECT_EQ(replayed.fingerprint, recorded.fingerprint);
  EXPECT_EQ(ScenarioSpec::from_hex(spec.to_hex()).commit_quorum, spec.n);
}

// The world publishes the registry's memo counters as metrics. The batch
// fields of VerifyStats are never incremented: the registry verifies one
// signature per call, even in a batched run.
TEST(Scenario, SignatureCountersPublishedAndBatchFieldsStayZero) {
  const ScenarioSpec spec = ScenarioSpec::materialize_batched(
      ProtocolKind::MinBft, AdversaryKind::Immediate, 2);
  const RunOutcome out = run_scenario(spec, InvariantRegistry::standard_smr());
  ASSERT_FALSE(out.violation.has_value()) << spec.describe();
  EXPECT_GT(out.sig.verifies, 0u);
  EXPECT_EQ(out.metrics.counter_or("sig.verifies", 0), out.sig.verifies);
  EXPECT_EQ(out.metrics.counter_or("sig.memo_hits", 0), out.sig.memo_hits);
  EXPECT_EQ(out.metrics.counter_or("sig.macs", 0), out.sig.macs);
  EXPECT_EQ(out.sig.batches, 0u);
  EXPECT_EQ(out.sig.batch_jobs, 0u);
}

}  // namespace
}  // namespace unidir::explore
