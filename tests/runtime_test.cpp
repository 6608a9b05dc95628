// The runtime boundary (ctest label: unit): Clock/Transport/Runtime
// contracts that must hold identically on BOTH backends, plus what is
// specific to each —
//
//  - RuntimeStats: the wall-clock rate arithmetic that moved here out of
//    SimulatorStats. The run_wall_ns == 0 edge (fresh stats, coarse clock)
//    must read as rate 0, not NaN/inf, on either backend.
//  - Clock::cancel: tombstoned on both backends; cancelling a fired or
//    unknown id is a no-op.
//  - RealRuntime's timer heap: fires in (deadline, arm-order) order on one
//    loop thread — deterministic, so it is testable under the unit label.
//  - Datagram framing: round-trip, and the hardening contract (nullopt,
//    never a throw, for malformed input).
//  - A World on RealRuntime in loopback-only mode (no socket, no threads —
//    sanitizer-cheap): provisioned id space, local delivery, and counted
//    drops for unaddressable ids.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/serde.h"

#include "runtime/frame.h"
#include "runtime/real_runtime.h"
#include "runtime/runtime.h"
#include "runtime/sim_runtime.h"
#include "sim/adversaries.h"
#include "sim/world.h"
#include "test_util.h"

namespace unidir::runtime {
namespace {

using testutil::Node;

// Loopback-only real runtime: no socket, no receiver thread, ticks short
// enough that timer-driven tests finish in milliseconds.
RealRuntimeOptions loopback_options() {
  RealRuntimeOptions o;
  o.tick_ns = 100'000;  // 0.1ms per tick
  return o;
}

// ---- RuntimeStats (satellite: wall-time accounting moved behind Runtime) ---

TEST(RuntimeStats, ZeroWallTimeIsZeroRateNotInfinity) {
  RuntimeStats s;
  EXPECT_EQ(s.events_per_sec(), 0.0);
  s.executed = 42;  // events counted, wall time never measured
  EXPECT_EQ(s.events_per_sec(), 0.0);
}

TEST(RuntimeStats, FreshSimBackendReportsZeroRate) {
  SimRuntime rt(/*seed=*/1, std::make_unique<sim::ImmediateAdversary>());
  EXPECT_EQ(rt.stats().run_wall_ns, 0u);
  EXPECT_EQ(rt.stats().events_per_sec(), 0.0);
}

TEST(RuntimeStats, FreshRealBackendReportsZeroRate) {
  RealRuntime rt(loopback_options());
  EXPECT_EQ(rt.stats().run_wall_ns, 0u);
  EXPECT_EQ(rt.stats().events_per_sec(), 0.0);
}

TEST(RuntimeStats, SimBackendAccountsWallTimeAcrossRuns) {
  SimRuntime rt(/*seed=*/1, std::make_unique<sim::ImmediateAdversary>());
  // Enough events that even a coarse steady_clock registers the run.
  int fired = 0;
  for (int i = 0; i < 20'000; ++i)
    rt.clock().arm(static_cast<Time>(i % 50), [&fired] { ++fired; });
  const std::size_t n = rt.run(SIZE_MAX);
  EXPECT_EQ(n, 20'000u);
  EXPECT_EQ(fired, 20'000);
  EXPECT_EQ(rt.stats().executed, 20'000u);
  EXPECT_GT(rt.stats().run_wall_ns, 0u);
  EXPECT_GT(rt.stats().events_per_sec(), 0.0);
  // And the simulator's OWN stats stayed wall-clock-free (they no longer
  // carry the field at all; executed matches what the runtime reports).
  EXPECT_EQ(rt.simulator().stats().executed, 20'000u);
}

TEST(RuntimeStats, RealBackendAccountsWallTimeAcrossRuns) {
  RealRuntime rt(loopback_options());
  int fired = 0;
  for (int i = 0; i < 100; ++i) rt.clock().arm(0, [&fired] { ++fired; });
  const std::size_t n = rt.run(SIZE_MAX);  // drains, then quiesces (no socket)
  EXPECT_EQ(n, 100u);
  EXPECT_EQ(fired, 100);
  EXPECT_EQ(rt.stats().executed, 100u);
  EXPECT_GT(rt.stats().run_wall_ns, 0u);
}

// ---- transport-health fields and shard virtuals ---------------------------

TEST(RuntimeStats, TransportHealthFieldsDefaultClean) {
  // Generic harnesses poll these to decide "is this process still a
  // functioning cluster member"; both backends must start clean, and the
  // sim backend (whose network cannot fail this way) stays clean forever.
  RuntimeStats s;
  EXPECT_EQ(s.frames_send_failed, 0u);
  EXPECT_EQ(s.frames_oversized, 0u);
  EXPECT_FALSE(s.receiver_dead);

  SimRuntime sim_rt(/*seed=*/1, std::make_unique<sim::ImmediateAdversary>());
  sim_rt.clock().arm(1, [] {});
  sim_rt.run(SIZE_MAX);
  EXPECT_EQ(sim_rt.stats().frames_send_failed, 0u);
  EXPECT_FALSE(sim_rt.stats().receiver_dead);
}

TEST(RuntimeShards, SingleLoopBackendsReportOneShardAndRouteArmFor) {
  // The shard interface must be callable uniformly: both backends are one
  // shard, never report a calling shard, aggregate into shard_stats(0),
  // and arm_for degenerates to a plain clock arm.
  SimRuntime sim_rt(/*seed=*/1, std::make_unique<sim::ImmediateAdversary>());
  RealRuntime real_rt(loopback_options());
  for (Runtime* rt : {static_cast<Runtime*>(&sim_rt),
                      static_cast<Runtime*>(&real_rt)}) {
    EXPECT_EQ(rt->execution_shards(), 1u);
    EXPECT_EQ(rt->calling_shard(), kNoShard);
    bool fired = false;
    rt->arm_for(/*owner=*/3, 1, [&fired] { fired = true; });
    rt->run(SIZE_MAX);
    EXPECT_TRUE(fired);
    EXPECT_EQ(rt->shard_stats(0).executed, rt->stats().executed);
  }
}

// ---- Clock::cancel ---------------------------------------------------------

TEST(Clock, CancelSuppressesPendingTimerOnSimBackend) {
  SimRuntime rt(/*seed=*/1, std::make_unique<sim::ImmediateAdversary>());
  bool fired = false;
  const TimerId id = rt.clock().arm(5, [&fired] { fired = true; });
  rt.clock().cancel(id);
  rt.run(SIZE_MAX);
  EXPECT_FALSE(fired);
  rt.clock().cancel(id);         // cancelling a consumed id: no-op
  rt.clock().cancel(kNoTimer);   // and the null id: no-op
}

TEST(Clock, CancelSuppressesPendingTimerOnRealBackend) {
  RealRuntime rt(loopback_options());
  bool fired = false;
  bool other_fired = false;
  const TimerId id = rt.clock().arm(2, [&fired] { fired = true; });
  rt.clock().arm(3, [&other_fired] { other_fired = true; });
  rt.clock().cancel(id);
  rt.run(SIZE_MAX);
  EXPECT_FALSE(fired);
  EXPECT_TRUE(other_fired);
  rt.clock().cancel(id);  // already gone: no-op
}

TEST(Clock, CancelAfterFireIsANoOp) {
  SimRuntime rt(/*seed=*/1, std::make_unique<sim::ImmediateAdversary>());
  int fired = 0;
  const TimerId id = rt.clock().arm(1, [&fired] { ++fired; });
  rt.run(SIZE_MAX);
  EXPECT_EQ(fired, 1);
  rt.clock().cancel(id);  // must not poison a later timer's id reuse path
  bool later = false;
  rt.clock().arm(1, [&later] { later = true; });
  rt.run(SIZE_MAX);
  EXPECT_TRUE(later);
}

// ---- RealRuntime timer ordering -------------------------------------------

TEST(RealRuntimeTimers, FireInDeadlineOrder) {
  RealRuntime rt(loopback_options());
  std::vector<int> order;
  rt.clock().arm(3, [&order] { order.push_back(3); });
  rt.clock().arm(1, [&order] { order.push_back(1); });
  rt.clock().arm(2, [&order] { order.push_back(2); });
  rt.run(SIZE_MAX);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(RealRuntimeTimers, EqualDeadlinesFireInArmOrder) {
  RealRuntime rt(loopback_options());
  std::vector<int> order;
  for (int i = 0; i < 5; ++i)
    rt.clock().arm(1, [&order, i] { order.push_back(i); });
  rt.run(SIZE_MAX);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(RealRuntimeTimers, HandlerMayArmFurtherTimers) {
  RealRuntime rt(loopback_options());
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 4) rt.clock().arm(0, chain);
  };
  rt.clock().arm(0, chain);
  rt.run(SIZE_MAX);
  EXPECT_EQ(depth, 4);
}

// ---- frame codec -----------------------------------------------------------

TEST(Frame, RoundTrips) {
  const Bytes payload = bytes_of("prepare(v=2, s=17)");
  const Bytes wire = encode_frame(3, 9, 44, payload);
  const auto f = decode_frame(wire);
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->from, 3u);
  EXPECT_EQ(f->to, 9u);
  EXPECT_EQ(f->channel, 44u);
  EXPECT_EQ(f->payload, payload);
}

TEST(Frame, RoundTripsEmptyPayload) {
  const Bytes wire = encode_frame(0, 1, 0, ByteSpan{});
  const auto f = decode_frame(wire);
  ASSERT_TRUE(f.has_value());
  EXPECT_TRUE(f->payload.empty());
}

TEST(Frame, RejectsWrongMagic) {
  Bytes wire = encode_frame(1, 2, 3, bytes_of("x"));
  wire[0] ^= 0x01;  // varint low byte of the magic
  EXPECT_FALSE(decode_frame(wire).has_value());
}

TEST(Frame, RejectsEveryTruncation) {
  const Bytes wire = encode_frame(7, 8, 9, bytes_of("payload bytes"));
  for (std::size_t len = 0; len < wire.size(); ++len)
    EXPECT_FALSE(decode_frame(ByteSpan(wire.data(), len)).has_value())
        << "truncation to " << len << " bytes decoded";
}

TEST(Frame, RejectsTrailingBytes) {
  Bytes wire = encode_frame(1, 2, 3, bytes_of("x"));
  wire.push_back(0x00);
  EXPECT_FALSE(decode_frame(wire).has_value());
}

TEST(Frame, RejectsOutOfRangeIds) {
  // Hand-build a frame whose `from` varint exceeds ProcessId's 32 bits.
  serde::Writer w;
  w.uvarint(kFrameMagic);
  w.uvarint(std::uint64_t{1} << 40);  // from: too wide for ProcessId
  w.uvarint(1);
  w.uvarint(1);
  w.bytes(ByteSpan{});
  EXPECT_FALSE(decode_frame(w.take()).has_value());
}

TEST(Frame, GarbageNeverThrows) {
  sim::Rng rng(99);
  for (int trial = 0; trial < 200; ++trial) {
    Bytes junk(rng.below(64));
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.below(256));
    EXPECT_NO_THROW((void)decode_frame(junk));
  }
}

// ---- World on the real backend, loopback-only ------------------------------

TEST(RealWorld, LoopbackPingPong) {
  sim::World world(/*seed=*/5,
                   std::make_unique<RealRuntime>(loopback_options()));
  ASSERT_FALSE(world.simulated());

  struct Echo final : sim::Process {
    int got = 0;

   protected:
    void on_message(ProcessId from, Channel channel,
                    const Bytes& payload) override {
      ++got;
      if (payload.size() < 4) {
        Bytes next = payload;
        next.push_back(0xAB);
        send(from, channel, std::move(next));
      }
    }
  };

  auto& a = world.spawn<Echo>();
  auto& b = world.spawn<Echo>();
  world.start();
  // Harness-injected opener, attributed to b so the echo bounces a <-> b.
  world.send_message(b.id(), a.id(), 7, Bytes{0x01});
  world.run_to_quiescence();
  // 1 byte → a, 2 → b, 3 → a, 4 → b (stops growing at size 4).
  EXPECT_EQ(a.got, 2);
  EXPECT_EQ(b.got, 2);

  const auto& rt = dynamic_cast<const RealRuntime&>(world.runtime());
  // Four local messages: the injected opener plus three echoes.
  EXPECT_EQ(rt.udp_stats().loopback_messages, 4u);
  EXPECT_EQ(rt.udp_stats().frames_sent, 0u);  // no socket involved
}

TEST(RealWorld, ProvisionedWorldDropsSendsToUnspawnedIds) {
  sim::World world(/*seed=*/5,
                   std::make_unique<RealRuntime>(loopback_options()));
  world.provision(3);
  ASSERT_TRUE(world.is_local(0) == false);  // provisioned but not spawned

  auto& n = world.spawn_at<Node>(0);
  n.on_start_fn = [&] {
    n.send(1, 7, bytes_of("to nobody"));  // id 1 never spawned, no peer
    n.send(0, 7, bytes_of("to self"));    // loopback to the only local id
  };
  world.start();
  world.run_to_quiescence();

  const auto& rt = dynamic_cast<const RealRuntime&>(world.runtime());
  EXPECT_EQ(rt.udp_stats().frames_no_peer, 1u);
  EXPECT_EQ(rt.udp_stats().loopback_messages, 1u);
}

TEST(RealWorld, ProvisionDerivesTheSameKeysInEveryProcess) {
  // Two OS processes of a distributed deployment are modelled by two
  // Worlds provisioning the same (seed, total) — their registries must
  // agree on every process's key id, or signatures would not transfer.
  sim::World host_a(/*seed=*/11,
                    std::make_unique<RealRuntime>(loopback_options()));
  sim::World host_b(/*seed=*/11,
                    std::make_unique<RealRuntime>(loopback_options()));
  host_a.provision(4);
  host_b.provision(4);
  for (ProcessId p = 0; p < 4; ++p)
    EXPECT_EQ(host_a.key_of(p), host_b.key_of(p));

  // And a signature minted under host_a's registry verifies under
  // host_b's — the portable-trusted-setup property the real transport
  // relies on.
  auto& signer_side = host_a.spawn_at<Node>(2);
  const Bytes msg = bytes_of("transferable");
  const crypto::Signature sig = signer_side.signer().sign(msg);
  EXPECT_TRUE(host_b.keys().verify(sig, msg));
}

TEST(RealWorld, RunUntilHonorsPredicateAndCap) {
  sim::World world(/*seed=*/5,
                   std::make_unique<RealRuntime>(loopback_options()));
  auto& n = world.spawn<Node>();
  int ticks = 0;
  // Lives at test scope: set_timer copies it, and each copy's body refers
  // back here, so the self-rescheduling chain never dangles.
  std::function<void()> tick = [&] {
    ++ticks;
    n.set_timer(1, tick);
  };
  n.on_start_fn = [&] { tick(); };
  world.start();
  EXPECT_TRUE(world.run_until([&] { return ticks >= 10; }, 100'000));
  EXPECT_GE(ticks, 10);
  // A predicate that never holds on a loopback-only world ends at
  // quiescence or the cap — here the cap, since the chain never stops.
  EXPECT_FALSE(world.run_until([] { return false; }, 25));
}

}  // namespace
}  // namespace unidir::runtime
