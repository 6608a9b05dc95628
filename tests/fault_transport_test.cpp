// FaultPlan / FaultyTransport (runtime/fault.h) — the chaos harness's
// deterministic adversary (ctest label: chaos):
//
//  - FaultPlan text and serde round-trips; malformed text fails as a whole
//    (nullopt), never silently runs a different experiment;
//  - FaultyTransport decision semantics against a recording transport and
//    a manual clock: drop, duplicate, delay (deferred re-send through the
//    clock), payload corruption (never a no-op flip), partition epochs
//    (listed-and-different-groups drops, unlisted is unrestricted);
//  - determinism: the same plan replays the same decision sequence;
//  - end-to-end sim sweeps: MinBFT and PBFT clusters complete a workload
//    and stay consistent under a lossy/delaying/corrupting plan, with the
//    corrupt payloads dying at the wire::Router decode boundary.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "agreement/minbft.h"
#include "agreement/pbft.h"
#include "agreement/state_machines.h"
#include "agreement/usig_directory.h"
#include "replica_util.h"
#include "runtime/fault.h"
#include "sim/adversaries.h"
#include "sim/world.h"

namespace unidir {
namespace {

using agreement::KvStateMachine;
using agreement::MinBftReplica;
using agreement::PbftReplica;
using agreement::SgxUsigDirectory;
using agreement::SmrClient;
using runtime::FaultPlan;
using runtime::FaultyTransport;
using runtime::PartitionEpoch;

// ---- FaultPlan serialization -----------------------------------------------------

FaultPlan sample_plan() {
  FaultPlan plan;
  plan.seed = 42;
  plan.drop_per_million = 20'000;
  plan.duplicate_per_million = 10'000;
  plan.delay_per_million = 50'000;
  plan.corrupt_per_million = 5'000;
  plan.delay_min_ticks = 200;
  plan.delay_max_ticks = 2'000;
  plan.partitions.push_back(PartitionEpoch{1'000, 5'000, {{0, 1}, {2, 3}}});
  plan.partitions.push_back(PartitionEpoch{9'000, 9'500, {{2}, {0}}});
  return plan;
}

TEST(FaultPlanCodec, TextRoundTrips) {
  const FaultPlan plan = sample_plan();
  const auto parsed = FaultPlan::parse_text(plan.to_text());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, plan);
}

TEST(FaultPlanCodec, SerdeRoundTrips) {
  const FaultPlan plan = sample_plan();
  EXPECT_EQ(serde::decode<FaultPlan>(serde::encode(plan)), plan);
}

TEST(FaultPlanCodec, TextToleratesCommentsBlanksAndUnknownKeys) {
  const auto parsed = FaultPlan::parse_text(
      "# a chaos run\n"
      "\n"
      "seed=7   # trailing comment\n"
      "  drop = 1000  \r\n"
      "future_knob=123\n"
      "partition=10:20:0,1|2\n");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->seed, 7u);
  EXPECT_EQ(parsed->drop_per_million, 1'000u);
  ASSERT_EQ(parsed->partitions.size(), 1u);
  EXPECT_EQ(parsed->partitions[0],
            (PartitionEpoch{10, 20, {{0, 1}, {2}}}));
}

TEST(FaultPlanCodec, MalformedTextFailsWholesale) {
  const char* bad[] = {
      "drop=fast",                 // non-numeric value
      "drop=10 000",               // junk after the number
      "drop",                      // no '='
      "drop=-5",                   // sign not allowed
      "partition=10:20",           // missing groups field
      "partition=20:10:0|1",       // end <= start
      "partition=10:20:0|x",       // non-numeric id
      "delay_min=50\ndelay_max=5", // inverted delay window
  };
  for (const char* text : bad)
    EXPECT_FALSE(FaultPlan::parse_text(text).has_value()) << text;
}

TEST(FaultPlanCodec, DefaultPlanHasNoFaults) {
  EXPECT_FALSE(FaultPlan{}.any_faults());
  EXPECT_TRUE(sample_plan().any_faults());
  FaultPlan partition_only;
  partition_only.partitions.push_back(PartitionEpoch{0, 1, {{0}, {1}}});
  EXPECT_TRUE(partition_only.any_faults());
}

// ---- FaultyTransport unit semantics ----------------------------------------------

struct RecordingTransport final : runtime::Transport {
  struct Sent {
    ProcessId from;
    ProcessId to;
    Channel channel;
    Bytes payload;
  };
  std::vector<Sent> sent;

  void send(ProcessId from, ProcessId to, Channel channel,
            Payload payload) override {
    sent.push_back({from, to, channel, payload.bytes()});
  }
  void set_deliver(DeliverFn) override {}
  std::size_t peer_count() const override { return 0; }
};

/// Minimal hand-cranked clock: now() is set by the test; fire() runs every
/// armed callback whose deadline has passed, in arm order.
struct ManualClock final : runtime::Clock {
  struct Armed {
    Time deadline;
    std::function<void()> fn;
  };
  Time current = 0;
  std::vector<Armed> armed;

  Time now() const override { return current; }
  runtime::TimerId arm(Time delay, std::function<void()> fn) override {
    armed.push_back({current + delay, std::move(fn)});
    return runtime::TimerId(armed.size());
  }
  void cancel(runtime::TimerId) override {}
  void advance_to(Time t) {
    current = t;
    std::vector<Armed> pending;
    std::vector<Armed> due;
    for (auto& a : armed)
      (a.deadline <= t ? due : pending).push_back(std::move(a));
    armed = std::move(pending);
    for (auto& a : due) a.fn();
  }
};

TEST(FaultyTransport, CertainDropLosesEverything) {
  RecordingTransport inner;
  ManualClock clock;
  FaultPlan plan;
  plan.drop_per_million = 1'000'000;
  FaultyTransport faulty(inner, clock, plan);
  for (int k = 0; k < 10; ++k) faulty.send(0, 1, 3, bytes_of("m"));
  EXPECT_TRUE(inner.sent.empty());
  EXPECT_EQ(faulty.stats().dropped, 10u);
  EXPECT_EQ(faulty.stats().forwarded, 0u);
}

TEST(FaultyTransport, CertainDuplicateDoublesEverySend) {
  RecordingTransport inner;
  ManualClock clock;
  FaultPlan plan;
  plan.duplicate_per_million = 1'000'000;
  FaultyTransport faulty(inner, clock, plan);
  for (int k = 0; k < 5; ++k) faulty.send(0, 1, 3, bytes_of("m"));
  EXPECT_EQ(inner.sent.size(), 10u);
  EXPECT_EQ(faulty.stats().duplicated, 5u);
  EXPECT_EQ(faulty.stats().forwarded, 5u);
}

TEST(FaultyTransport, CertainDelayDefersThroughTheClock) {
  RecordingTransport inner;
  ManualClock clock;
  FaultPlan plan;
  plan.delay_per_million = 1'000'000;
  plan.delay_min_ticks = 5;
  plan.delay_max_ticks = 5;
  FaultyTransport faulty(inner, clock, plan);
  faulty.send(0, 1, 3, bytes_of("deferred"));
  EXPECT_TRUE(inner.sent.empty()) << "delayed send leaked through early";
  EXPECT_EQ(faulty.stats().delayed, 1u);
  clock.advance_to(4);
  EXPECT_TRUE(inner.sent.empty());
  clock.advance_to(5);
  ASSERT_EQ(inner.sent.size(), 1u);
  EXPECT_EQ(inner.sent[0].payload, bytes_of("deferred"));
  EXPECT_EQ(inner.sent[0].to, 1u);
}

TEST(FaultyTransport, CertainCorruptionAlwaysChangesThePayload) {
  RecordingTransport inner;
  ManualClock clock;
  FaultPlan plan;
  plan.corrupt_per_million = 1'000'000;
  FaultyTransport faulty(inner, clock, plan);
  const Bytes original = bytes_of("payload bytes here");
  for (int k = 0; k < 20; ++k) faulty.send(0, 1, 3, Bytes(original));
  ASSERT_EQ(inner.sent.size(), 20u);
  for (const auto& s : inner.sent) {
    EXPECT_EQ(s.payload.size(), original.size());
    EXPECT_NE(s.payload, original) << "corruption was a no-op flip";
  }
  EXPECT_EQ(faulty.stats().corrupted, 20u);
  // An empty payload has nothing to flip and must not crash.
  faulty.send(0, 1, 3, Payload{});
  EXPECT_EQ(inner.sent.size(), 21u);
}

TEST(FaultyTransport, CorruptionCopiesOnWriteBeforeFlipping) {
  // Multicast shares one COW buffer across links; corrupting one link's
  // copy must not reach into the others.
  RecordingTransport inner;
  ManualClock clock;
  FaultPlan plan;
  plan.corrupt_per_million = 1'000'000;
  FaultyTransport faulty(inner, clock, plan);
  const Payload shared(bytes_of("shared buffer"));
  faulty.send(0, 1, 3, shared);
  EXPECT_EQ(shared.bytes(), bytes_of("shared buffer"))
      << "corruption mutated the sender's shared buffer";
}

TEST(FaultyTransport, PartitionEpochSplitsListedGroupsOnly) {
  RecordingTransport inner;
  ManualClock clock;
  FaultPlan plan;
  plan.partitions.push_back(PartitionEpoch{10, 20, {{0, 1}, {2, 3}}});
  FaultyTransport faulty(inner, clock, plan);

  clock.current = 9;  // before the epoch: everything flows
  faulty.send(0, 2, 1, bytes_of("m"));
  EXPECT_EQ(inner.sent.size(), 1u);

  clock.current = 10;  // inside the epoch
  faulty.send(0, 2, 1, bytes_of("m"));  // across groups: dropped
  faulty.send(2, 1, 1, bytes_of("m"));  // across groups (other way): dropped
  EXPECT_EQ(inner.sent.size(), 1u);
  faulty.send(0, 1, 1, bytes_of("m"));  // same group: flows
  faulty.send(0, 4, 1, bytes_of("m"));  // unlisted peer: unrestricted
  faulty.send(4, 3, 1, bytes_of("m"));
  EXPECT_EQ(inner.sent.size(), 4u);

  clock.current = 20;  // epoch end is exclusive: healed
  faulty.send(0, 2, 1, bytes_of("m"));
  EXPECT_EQ(inner.sent.size(), 5u);
  EXPECT_EQ(faulty.stats().partitioned, 2u);
}

TEST(FaultyTransport, SameSeedReplaysTheSameDecisions) {
  FaultPlan plan;
  plan.seed = 99;
  plan.drop_per_million = 300'000;
  plan.duplicate_per_million = 200'000;
  plan.corrupt_per_million = 100'000;
  auto run = [&plan] {
    RecordingTransport inner;
    ManualClock clock;
    FaultyTransport faulty(inner, clock, plan);
    for (int k = 0; k < 200; ++k)
      faulty.send(0, 1, 1, bytes_of("msg" + std::to_string(k)));
    std::vector<Bytes> delivered;
    for (const auto& s : inner.sent) delivered.push_back(s.payload);
    return std::make_pair(faulty.stats(), delivered);
  };
  const auto [stats_a, sent_a] = run();
  const auto [stats_b, sent_b] = run();
  EXPECT_EQ(stats_a.dropped, stats_b.dropped);
  EXPECT_EQ(stats_a.duplicated, stats_b.duplicated);
  EXPECT_EQ(stats_a.corrupted, stats_b.corrupted);
  EXPECT_EQ(stats_a.forwarded, stats_b.forwarded);
  EXPECT_EQ(sent_a, sent_b) << "same plan, different byte stream";
  // And the faults actually engaged at these rates.
  EXPECT_GT(stats_a.dropped, 0u);
  EXPECT_GT(stats_a.duplicated, 0u);
  EXPECT_GT(stats_a.corrupted, 0u);
}

// ---- end-to-end sim sweeps -------------------------------------------------------

FaultPlan sweep_plan(std::uint64_t seed) {
  FaultPlan plan;
  plan.seed = seed;
  plan.drop_per_million = 80'000;      // 8% loss
  plan.duplicate_per_million = 50'000;
  plan.delay_per_million = 100'000;
  plan.delay_min_ticks = 1;
  plan.delay_max_ticks = 8;
  plan.corrupt_per_million = 30'000;
  return plan;
}

TEST(FaultPlanSweep, MinBftCompletesAndStaysConsistentUnderFaults) {
  // A corrupted payload need not fail to decode (a flipped bit inside a
  // value field decodes cleanly), so the wire-rejection check is summed
  // over the seeds, as the mutation sweep does, not demanded per seed.
  std::uint64_t corrupted = 0;
  std::uint64_t rejected = 0;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    sim::World world(seed, std::make_unique<sim::RandomDelayAdversary>(1, 4));
    world.install_fault_plan(sweep_plan(seed));
    SgxUsigDirectory usigs(world.keys());
    MinBftReplica::Options opt;
    opt.f = 1;
    for (ProcessId i = 0; i < 3; ++i) opt.replicas.push_back(i);
    std::vector<MinBftReplica*> replicas;
    for (ProcessId i = 0; i < 3; ++i)
      replicas.push_back(&world.spawn<MinBftReplica>(
          opt, usigs, std::make_unique<KvStateMachine>()));
    SmrClient::Options copt;
    copt.replicas = opt.replicas;
    copt.f = 1;
    copt.resend_timeout = 100;
    copt.resend_jitter = 16;
    auto& client = world.spawn<SmrClient>(copt);
    for (int k = 0; k < 6; ++k)
      client.submit(KvStateMachine::put_op("k" + std::to_string(k), "v"));
    world.start();
    // Under message LOSS, quiescence is not guaranteed — a replica that
    // missed a commit quorum and sees no further traffic retries view
    // changes indefinitely — so the gate is the client's closed loop plus
    // prefix consistency, the same gate the chaos harness uses.
    ASSERT_TRUE(world.run_until([&] { return client.completed() >= 6; }))
        << "seed " << seed << ": workload never completed";

    EXPECT_EQ(client.completed(), 6u) << "seed " << seed;
    const auto divergence = testutil::log_divergence(world, replicas);
    EXPECT_FALSE(divergence.has_value()) << "seed " << seed << ": "
                                         << *divergence;

    const auto* fstats = world.fault_stats();
    ASSERT_NE(fstats, nullptr);
    EXPECT_GT(fstats->dropped + fstats->delayed + fstats->duplicated, 0u)
        << "seed " << seed << ": the plan never engaged";
    corrupted += fstats->corrupted;
    rejected += world.wire_stats().total_dropped_malformed() +
                world.wire_stats().total_dropped_unknown_tag();
  }
  ASSERT_GT(corrupted, 0u) << "the plan never corrupted a payload";
  EXPECT_GT(rejected, 0u)
      << "no corrupted payload was ever rejected at the wire";
}

TEST(FaultPlanSweep, PbftCompletesAndStaysConsistentUnderFaults) {
  for (std::uint64_t seed = 4; seed <= 6; ++seed) {
    sim::World world(seed, std::make_unique<sim::RandomDelayAdversary>(1, 4));
    world.install_fault_plan(sweep_plan(seed));
    PbftReplica::Options opt;
    opt.f = 1;
    for (ProcessId i = 0; i < 4; ++i) opt.replicas.push_back(i);
    std::vector<PbftReplica*> replicas;
    for (ProcessId i = 0; i < 4; ++i)
      replicas.push_back(&world.spawn<PbftReplica>(
          opt, std::make_unique<KvStateMachine>()));
    SmrClient::Options copt;
    copt.replicas = opt.replicas;
    copt.f = 1;
    copt.resend_timeout = 100;
    copt.resend_jitter = 16;
    auto& client = world.spawn<SmrClient>(copt);
    for (int k = 0; k < 6; ++k)
      client.submit(KvStateMachine::put_op("k" + std::to_string(k), "v"));
    world.start();
    ASSERT_TRUE(world.run_until([&] { return client.completed() >= 6; }))
        << "seed " << seed << ": workload never completed";

    EXPECT_EQ(client.completed(), 6u) << "seed " << seed;
    const auto divergence = testutil::log_divergence(world, replicas);
    EXPECT_FALSE(divergence.has_value()) << "seed " << seed << ": "
                                         << *divergence;
  }
}

TEST(FaultPlanSweep, PartitionHealsAndTheClusterStillCommits) {
  // Isolate the MinBFT view-0 primary from its backups for a window that
  // the workload straddles. The backups hold the f+1 quorum, so a view
  // change restores progress during the partition; the client (unlisted,
  // hence unrestricted) completes everything.
  sim::World world(11, std::make_unique<sim::RandomDelayAdversary>(1, 4));
  FaultPlan plan;
  plan.seed = 11;
  plan.partitions.push_back(PartitionEpoch{50, 3'000, {{0}, {1, 2}}});
  world.install_fault_plan(plan);
  SgxUsigDirectory usigs(world.keys());
  MinBftReplica::Options opt;
  opt.f = 1;
  for (ProcessId i = 0; i < 3; ++i) opt.replicas.push_back(i);
  std::vector<MinBftReplica*> replicas;
  for (ProcessId i = 0; i < 3; ++i)
    replicas.push_back(&world.spawn<MinBftReplica>(
        opt, usigs, std::make_unique<KvStateMachine>()));
  SmrClient::Options copt;
  copt.replicas = opt.replicas;
  copt.f = 1;
  copt.resend_timeout = 100;
  auto& client = world.spawn<SmrClient>(copt);
  client.submit(KvStateMachine::put_op("k0", "v"));
  client.submit(KvStateMachine::put_op("k1", "v"));
  world.simulator().at(100, [&] {
    client.submit(KvStateMachine::put_op("k2", "v"));
    client.submit(KvStateMachine::put_op("k3", "v"));
  });
  world.start();
  ASSERT_TRUE(world.run_until([&] { return client.completed() >= 4; }))
      << "cluster never recovered from the partition";

  EXPECT_GT(world.fault_stats()->partitioned, 0u)
      << "the partition never bit";
  // The isolated primary lost its view; the survivors carry the workload.
  std::size_t caught_up = 0;
  for (auto* r : replicas)
    if (r->executed_count() >= 4u) ++caught_up;
  EXPECT_GE(caught_up, 2u);
  const auto divergence = testutil::log_divergence(world, replicas);
  EXPECT_FALSE(divergence.has_value()) << *divergence;
}

TEST(FaultPlanSweep, SameWorldSeedAndPlanReproduceTheSameRun) {
  auto run = [] {
    sim::World world(5, std::make_unique<sim::RandomDelayAdversary>(1, 4));
    world.install_fault_plan(sweep_plan(5));
    SgxUsigDirectory usigs(world.keys());
    MinBftReplica::Options opt;
    opt.f = 1;
    for (ProcessId i = 0; i < 3; ++i) opt.replicas.push_back(i);
    std::vector<MinBftReplica*> replicas;
    for (ProcessId i = 0; i < 3; ++i)
      replicas.push_back(&world.spawn<MinBftReplica>(
          opt, usigs, std::make_unique<KvStateMachine>()));
    SmrClient::Options copt;
    copt.replicas = opt.replicas;
    copt.f = 1;
    copt.resend_timeout = 100;
    auto& client = world.spawn<SmrClient>(copt);
    for (int k = 0; k < 4; ++k)
      client.submit(KvStateMachine::put_op("k" + std::to_string(k), "v"));
    world.start();
    EXPECT_TRUE(world.run_until([&] { return client.completed() >= 4; }));
    return std::make_pair(*world.fault_stats(),
                          replicas[0]->execution_log().digest_through(
                              replicas[0]->execution_log().size()));
  };
  const auto [stats_a, digest_a] = run();
  const auto [stats_b, digest_b] = run();
  EXPECT_EQ(stats_a.forwarded, stats_b.forwarded);
  EXPECT_EQ(stats_a.dropped, stats_b.dropped);
  EXPECT_EQ(stats_a.delayed, stats_b.delayed);
  EXPECT_EQ(stats_a.corrupted, stats_b.corrupted);
  EXPECT_EQ(digest_a, digest_b);
}

}  // namespace
}  // namespace unidir
