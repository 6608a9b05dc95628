// Crash-recovery semantics (ctest label: recovery), bottom-up:
//
//  - simulator/world: restarts bump the incarnation epoch so pre-crash
//    timers never fire; in-flight traffic to a crashed process is dropped
//    and counted (NetworkStats::dropped_crashed); DurableStore survives
//    restart while everything else is rebuilt in on_recover.
//  - trusted devices: USIG / TrInc / A2M state round-trips through
//    save/load (sealed storage), and reset_for_power_loss demonstrably
//    rewinds counters — the hazard the durable path exists to prevent.
//  - client: bounded retries give up after max_attempts and surface the
//    abandonment ("smr-gave-up" output, gave_up() counter) without faking
//    a result.
//  - protocols: a restarted MinBFT/PBFT replica recovers from its durable
//    image, catches up via state transfer, and rejoins with no divergence;
//    both protocols prune their view-change archives at the stable
//    checkpoint.
#include <gtest/gtest.h>

#include "agreement/minbft.h"
#include "agreement/pbft.h"
#include "agreement/state_machines.h"
#include "replica_util.h"
#include "runtime/real_runtime.h"
#include "runtime/sim_runtime.h"
#include "sim/adversaries.h"
#include "trusted/a2m.h"
#include "trusted/trinc.h"
#include "trusted/usig.h"
#include "test_util.h"

namespace unidir {
namespace {

using agreement::KvStateMachine;
using agreement::MinBftReplica;
using agreement::PbftReplica;
using agreement::SgxUsigDirectory;
using agreement::SmrClient;
using testutil::Node;

// ---- sim layer ------------------------------------------------------------------

TEST(CrashRecoverySim, PreCrashTimersAreSuppressedAfterRestart) {
  sim::World world(1, std::make_unique<sim::ImmediateAdversary>());
  bool pre_crash_fired = false;
  bool post_restart_fired = false;
  auto& node = world.spawn<Node>();
  node.on_start_fn = [&] {
    node.set_timer(50, [&] { pre_crash_fired = true; });
  };
  world.start();
  world.simulator().at(10, [&] { world.crash(node.id()); });
  world.simulator().at(20, [&] {
    world.restart(node.id());
    node.set_timer(5, [&] { post_restart_fired = true; });
  });
  world.run_to_quiescence();
  EXPECT_FALSE(pre_crash_fired)
      << "a timer armed in incarnation 0 fired in incarnation 1";
  EXPECT_TRUE(post_restart_fired);
  EXPECT_EQ(world.incarnation(node.id()), 1u);
}

// The same incarnation-epoch guarantee, stated ONCE against the runtime
// interface and instantiated on both backends (satellite: timer-epoch
// semantics are a World contract, not a simulator artifact). The real
// backend runs loopback-only — no socket, no receiver thread — so the
// whole schedule is a single loop thread's timer heap and the test is as
// deterministic as the sim one.
class CrashRecoveryTimerEpoch : public ::testing::TestWithParam<bool> {
 protected:
  static std::unique_ptr<runtime::Runtime> make_runtime() {
    if (GetParam()) {
      runtime::RealRuntimeOptions o;
      o.tick_ns = 200'000;  // 0.2ms ticks: the 80-tick schedule is ~16ms
      return std::make_unique<runtime::RealRuntime>(o);
    }
    return std::make_unique<runtime::SimRuntime>(
        /*seed=*/1, std::make_unique<sim::ImmediateAdversary>());
  }
};

TEST_P(CrashRecoveryTimerEpoch, PreCrashTimersAreSuppressedOnBothBackends) {
  sim::World world(/*seed=*/1, make_runtime());
  bool pre_crash_fired = false;
  bool post_restart_fired = false;
  bool finished = false;
  auto& node = world.spawn<Node>();
  node.on_start_fn = [&] {
    node.set_timer(50, [&] { pre_crash_fired = true; });
  };
  world.start();
  // Harness events go straight to the Clock — below the epoch filter — so
  // they run regardless of the crash, on either backend.
  runtime::Clock& clock = world.runtime().clock();
  clock.arm(10, [&] { world.crash(node.id()); });
  clock.arm(20, [&] {
    world.restart(node.id());
    node.set_timer(5, [&] { post_restart_fired = true; });
  });
  clock.arm(80, [&] { finished = true; });
  ASSERT_TRUE(world.run_until([&] { return finished; }));
  EXPECT_FALSE(pre_crash_fired)
      << "a timer armed in incarnation 0 fired in incarnation 1";
  EXPECT_TRUE(post_restart_fired);
  EXPECT_EQ(world.incarnation(node.id()), 1u);
}

INSTANTIATE_TEST_SUITE_P(Backends, CrashRecoveryTimerEpoch,
                         ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& p) {
                           return p.param ? std::string("RealRuntime")
                                          : std::string("SimRuntime");
                         });

TEST(CrashRecoverySim, InFlightMessagesToCrashedProcessAreDroppedAndCounted) {
  // Delay every message by 10 ticks, crash the receiver at tick 5: the
  // message is in flight at crash time and must be dropped, not delivered
  // to the dead process (and not replayed to its next incarnation).
  struct Receiver final : sim::Process {
    int received = 0;

   protected:
    void on_message(ProcessId, sim::Channel, const Bytes&) override {
      ++received;
    }
  };
  sim::World world(1, std::make_unique<sim::RandomDelayAdversary>(10, 10));
  auto& sender = world.spawn<Node>();
  auto& receiver = world.spawn<Receiver>();
  sender.on_start_fn = [&] { sender.send(receiver.id(), 1, bytes_of("hi")); };
  world.start();
  world.simulator().at(5, [&] { world.crash(receiver.id()); });
  // Restart only after the scheduled delivery time (t=10): the message
  // must be dropped at the dead endpoint, not buffered for the next
  // incarnation.
  world.simulator().at(15, [&] { world.restart(receiver.id()); });
  world.run_to_quiescence();
  EXPECT_EQ(receiver.received, 0);
  EXPECT_EQ(world.network().stats().dropped_crashed, 1u);
}

TEST(CrashRecoverySim, DurableStoreSurvivesRestartAndVolatileStateDoesNot) {
  struct Counter final : sim::Process {
    int volatile_count = 0;
    int recovered_from = -1;

   protected:
    void on_start() override {
      volatile_count = 7;
      world().durable(id()).put_value<std::uint64_t>("count", 7);
    }
    void on_recover(sim::DurableStore& durable) override {
      volatile_count = 0;  // rebuilt, not remembered
      if (const auto v = durable.get_value<std::uint64_t>("count"))
        recovered_from = static_cast<int>(*v);
    }
  };
  sim::World world(1, std::make_unique<sim::ImmediateAdversary>());
  auto& p = world.spawn<Counter>();
  world.start();
  world.run_to_quiescence();  // lets on_start write the durable record
  world.crash(p.id());
  p.volatile_count = 99;  // garbage written "while dead"
  world.restart(p.id());
  EXPECT_EQ(p.volatile_count, 0);
  EXPECT_EQ(p.recovered_from, 7);
}

// ---- trusted devices ------------------------------------------------------------

TEST(CrashRecoveryTrusted, UsigCounterSurvivesSealedSaveLoad) {
  crypto::KeyRegistry keys;
  trusted::UsigEnclave usig(keys);
  const auto ui1 = usig.create_ui(bytes_of("m1"));
  const auto ui2 = usig.create_ui(bytes_of("m2"));
  EXPECT_EQ(ui1.counter, 1u);
  EXPECT_EQ(ui2.counter, 2u);

  const Bytes sealed = usig.save_state();
  usig.load_state(sealed);  // the restart path
  const auto ui3 = usig.create_ui(bytes_of("m3"));
  EXPECT_EQ(ui3.counter, 3u) << "sealed counter must continue, not rewind";
  EXPECT_TRUE(
      trusted::UsigEnclave::verify_ui(keys, usig.key(), ui3, bytes_of("m3")));
}

TEST(CrashRecoveryTrusted, UsigPowerLossReenablesCounterReuse) {
  crypto::KeyRegistry keys;
  trusted::UsigEnclave usig(keys);
  const auto before = usig.create_ui(bytes_of("original"));
  usig.reset_for_power_loss();
  const auto after = usig.create_ui(bytes_of("conflicting"));
  // Same counter, two different messages, both verifying: equivocation.
  EXPECT_EQ(after.counter, before.counter);
  EXPECT_TRUE(trusted::UsigEnclave::verify_ui(keys, usig.key(), before,
                                              bytes_of("original")));
  EXPECT_TRUE(trusted::UsigEnclave::verify_ui(keys, usig.key(), after,
                                              bytes_of("conflicting")));
}

TEST(CrashRecoveryTrusted, TrinketCountersSurviveSaveLoad) {
  crypto::KeyRegistry keys;
  trusted::TrincAuthority authority(keys);
  trusted::Trinket t = authority.make_trinket(0);
  ASSERT_TRUE(t.attest(5, bytes_of("m")).has_value());
  const Bytes nvram = t.save_counters();

  t.load_counters(nvram);
  EXPECT_FALSE(t.attest(5, bytes_of("other")).has_value())
      << "restored counter must still reject a used seq-num";
  EXPECT_TRUE(t.attest(6, bytes_of("next")).has_value());

  t.reset_for_power_loss();
  const auto reused = t.attest(5, bytes_of("conflicting"));
  ASSERT_TRUE(reused.has_value()) << "volatile counters rewind — the hazard";
  EXPECT_TRUE(authority.check(*reused, 0));
}

TEST(CrashRecoveryTrusted, A2mLogsSurviveSaveLoad) {
  crypto::KeyRegistry keys;
  trusted::A2mAuthority authority{keys};
  trusted::A2m dev = authority.make_device(0);
  const trusted::LogId log = dev.create_log();
  ASSERT_TRUE(dev.append(log, bytes_of("x")).has_value());
  ASSERT_TRUE(dev.append(log, bytes_of("y")).has_value());

  const Bytes saved = dev.save_state();
  dev.load_state(saved);
  EXPECT_EQ(dev.append(log, bytes_of("z")), std::optional<SeqNum>{3});
  const auto e = dev.end(log, bytes_of("n"));
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->value, bytes_of("z"));

  dev.reset_for_power_loss();
  EXPECT_EQ(dev.append(dev.create_log(), bytes_of("fresh")),
            std::optional<SeqNum>{1});
}

// ---- client back-off ------------------------------------------------------------

TEST(CrashRecoveryClient, GivesUpAfterMaxAttemptsWithoutFakingAResult) {
  // Every replica is dead, so no reply will ever arrive. The client must
  // stop retrying after max_attempts, let the run quiesce, and report the
  // abandonment without invoking the done callback.
  sim::World world(3, std::make_unique<sim::RandomDelayAdversary>(1, 4));
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
  copt.resend_timeout = 20;
  copt.max_attempts = 3;
  auto& client = world.spawn<SmrClient>(copt);

  for (ProcessId i = 0; i < 3; ++i) world.crash(i);
  bool done_called = false;
  client.submit(KvStateMachine::put_op("k", "v"),
                [&](const Bytes&) { done_called = true; });
  world.start();
  world.run_to_quiescence();

  EXPECT_EQ(client.completed(), 0u);
  EXPECT_EQ(client.gave_up(), 1u);
  EXPECT_EQ(client.outstanding(), 0u);
  EXPECT_FALSE(done_called);
  EXPECT_EQ(world.transcript(client.id()).outputs("smr-gave-up").size(), 1u);
}

TEST(CrashRecoveryClient, UnlimitedRetriesOutliveALongOutage) {
  // Default max_attempts = 0: the request survives a full-cluster outage
  // and completes once replicas come back.
  sim::World world(5, std::make_unique<sim::RandomDelayAdversary>(1, 4));
  SgxUsigDirectory usigs(world.keys());
  MinBftReplica::Options opt;
  opt.f = 1;
  for (ProcessId i = 0; i < 3; ++i) opt.replicas.push_back(i);
  for (ProcessId i = 0; i < 3; ++i)
    world.spawn<MinBftReplica>(opt, usigs,
                               std::make_unique<KvStateMachine>());
  SmrClient::Options copt;
  copt.replicas = opt.replicas;
  copt.f = 1;
  copt.resend_timeout = 20;
  auto& client = world.spawn<SmrClient>(copt);
  client.submit(KvStateMachine::put_op("k", "v"));

  for (ProcessId i = 0; i < 3; ++i) world.crash(i);
  for (ProcessId i = 0; i < 3; ++i)
    world.simulator().at(200 + i, [&world, &usigs, i] {
      usigs.restart_device(i, /*durable_state=*/true);
      world.restart(i);
    });
  world.start();
  world.run_to_quiescence();
  EXPECT_EQ(client.completed(), 1u);
  EXPECT_EQ(client.gave_up(), 0u);
}

// ---- protocol recovery ----------------------------------------------------------

struct MinBftRecoveryCluster {
  sim::World world;
  SgxUsigDirectory usigs;
  std::vector<MinBftReplica*> replicas;
  SmrClient* client = nullptr;

  explicit MinBftRecoveryCluster(std::uint64_t seed, std::size_t n = 3,
                                 SeqNum checkpoint_interval = 2)
      : world(seed, std::make_unique<sim::RandomDelayAdversary>(1, 6)),
        usigs(world.keys()) {
    MinBftReplica::Options opt;
    opt.f = (n - 1) / 2;
    opt.checkpoint_interval = checkpoint_interval;
    for (ProcessId i = 0; i < n; ++i) opt.replicas.push_back(i);
    for (ProcessId i = 0; i < n; ++i)
      replicas.push_back(&world.spawn<MinBftReplica>(
          opt, usigs, std::make_unique<KvStateMachine>()));
    SmrClient::Options copt;
    copt.replicas = opt.replicas;
    copt.f = opt.f;
    copt.resend_timeout = 100;
    client = &world.spawn<SmrClient>(copt);
  }

  void restart(ProcessId victim, bool durable_trusted = true) {
    usigs.restart_device(victim, durable_trusted);
    world.restart(victim);
  }

  void expect_consistent(const char* context) {
    const auto divergence = testutil::log_divergence(world, replicas);
    EXPECT_FALSE(divergence.has_value()) << context << ": " << *divergence;
  }
};

TEST(CrashRecoveryMinBft, RestartedBackupCatchesUpViaStateTransfer) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    MinBftRecoveryCluster c(seed);
    for (int k = 0; k < 8; ++k)
      c.client->submit(KvStateMachine::put_op("k" + std::to_string(k), "v"));
    c.world.start();
    c.world.run_until([&] { return c.client->completed() >= 2; });
    c.world.crash(2);
    c.world.run_until([&] { return c.client->completed() >= 5; });
    c.restart(2);
    c.world.run_to_quiescence();

    EXPECT_EQ(c.client->completed(), 8u) << "seed " << seed;
    EXPECT_EQ(c.replicas[2]->recoveries(), 1u);
    EXPECT_EQ(c.replicas[2]->executed_count(), 8u)
        << "seed " << seed << ": recovered replica did not catch up";
    c.expect_consistent("minbft restart");
    EXPECT_EQ(c.replicas[2]->state_digest(), c.replicas[0]->state_digest());
  }
}

TEST(CrashRecoveryMinBft, RestartedPrimaryRejoinsWithoutEquivocating) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    MinBftRecoveryCluster c(seed);
    for (int k = 0; k < 8; ++k)
      c.client->submit(KvStateMachine::put_op("k" + std::to_string(k), "v"));
    c.world.start();
    c.world.run_until([&] { return c.client->completed() >= 2; });
    c.world.crash(0);  // the view-0 primary
    c.world.run_until([&] { return c.client->completed() >= 4; });
    c.restart(0);
    c.world.run_to_quiescence();

    EXPECT_EQ(c.client->completed(), 8u) << "seed " << seed;
    c.expect_consistent("minbft primary restart");
    EXPECT_EQ(c.replicas[0]->executed_count(), 8u) << "seed " << seed;
  }
}

TEST(CrashRecoveryMinBft, ArchivePrunesAtStableCheckpoint) {
  MinBftRecoveryCluster c(3, 3, /*checkpoint_interval=*/2);
  for (int k = 0; k < 6; ++k)
    c.client->submit(KvStateMachine::put_op("k" + std::to_string(k), "v"));
  c.world.start();
  c.world.run_to_quiescence();
  for (auto* r : c.replicas) {
    EXPECT_GE(r->stable_checkpoint(), 4u);
    // The archive holds only slots above the stable checkpoint.
    EXPECT_LE(r->vc_archive_size(), 6u - r->stable_checkpoint());
    // The log's pruned prefix is folded into its base digest.
    EXPECT_EQ(r->execution_log().base(), r->stable_checkpoint());
    EXPECT_EQ(r->execution_log().size(), 6u);
  }
  c.expect_consistent("pruned");
}

struct PbftRecoveryCluster {
  sim::World world;
  std::vector<PbftReplica*> replicas;
  SmrClient* client = nullptr;

  explicit PbftRecoveryCluster(std::uint64_t seed, std::size_t n = 4,
                               SeqNum checkpoint_interval = 2)
      : world(seed, std::make_unique<sim::RandomDelayAdversary>(1, 6)) {
    PbftReplica::Options opt;
    opt.f = (n - 1) / 3;
    opt.checkpoint_interval = checkpoint_interval;
    for (ProcessId i = 0; i < n; ++i) opt.replicas.push_back(i);
    for (ProcessId i = 0; i < n; ++i)
      replicas.push_back(&world.spawn<PbftReplica>(
          opt, std::make_unique<KvStateMachine>()));
    SmrClient::Options copt;
    copt.replicas = opt.replicas;
    copt.f = opt.f;
    copt.resend_timeout = 100;
    client = &world.spawn<SmrClient>(copt);
  }

  void expect_consistent(const char* context) {
    const auto divergence = testutil::log_divergence(world, replicas);
    EXPECT_FALSE(divergence.has_value()) << context << ": " << *divergence;
  }
};

TEST(CrashRecoveryPbft, RestartedBackupCatchesUpViaStateTransfer) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    PbftRecoveryCluster c(seed);
    for (int k = 0; k < 8; ++k)
      c.client->submit(KvStateMachine::put_op("k" + std::to_string(k), "v"));
    c.world.start();
    c.world.run_until([&] { return c.client->completed() >= 2; });
    c.world.crash(3);
    c.world.run_until([&] { return c.client->completed() >= 5; });
    c.world.restart(3);
    c.world.run_to_quiescence();

    EXPECT_EQ(c.client->completed(), 8u) << "seed " << seed;
    EXPECT_EQ(c.replicas[3]->recoveries(), 1u);
    EXPECT_EQ(c.replicas[3]->executed_count(), 8u)
        << "seed " << seed << ": recovered replica did not catch up";
    c.expect_consistent("pbft restart");
  }
}

TEST(CrashRecoveryPbft, RestartedPrimaryDoesNotReuseSequenceNumbers) {
  // The (view, next-seq) journal is what keeps an honest restarted primary
  // from re-assigning sequence numbers ("equivocation by amnesia"). With
  // the journal, restarting the view-0 primary mid-run stays safe AND its
  // own log stays prefix-consistent with the others.
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    PbftRecoveryCluster c(seed);
    for (int k = 0; k < 8; ++k)
      c.client->submit(KvStateMachine::put_op("k" + std::to_string(k), "v"));
    c.world.start();
    c.world.run_until([&] { return c.client->completed() >= 2; });
    c.world.crash(0);
    c.world.run_until([&] { return c.client->completed() >= 4; });
    c.world.restart(0);
    c.world.run_to_quiescence();

    EXPECT_EQ(c.client->completed(), 8u) << "seed " << seed;
    c.expect_consistent("pbft primary restart");
    EXPECT_EQ(c.replicas[0]->executed_count(), 8u) << "seed " << seed;
  }
}

TEST(CrashRecoveryPbft, ArchivePrunesAtStableCheckpoint) {
  PbftRecoveryCluster c(7, 4, /*checkpoint_interval=*/2);
  for (int k = 0; k < 6; ++k)
    c.client->submit(KvStateMachine::put_op("k" + std::to_string(k), "v"));
  c.world.start();
  c.world.run_to_quiescence();
  for (auto* r : c.replicas) {
    EXPECT_GE(r->stable_checkpoint(), 4u);
    EXPECT_LE(r->vc_archive_size(), 6u - r->stable_checkpoint());
    EXPECT_EQ(r->execution_log().base(), r->stable_checkpoint());
    EXPECT_EQ(r->execution_log().size(), 6u);
  }
  c.expect_consistent("pbft pruned");
}

}  // namespace
}  // namespace unidir
