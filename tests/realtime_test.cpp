// Real-time loopback smoke (ctest label: realtime): the full MinBFT stack —
// USIG attestation, batching, the typed wire boundary, the SMR client —
// running over ACTUAL UDP sockets on 127.0.0.1, one World (= one modelled
// OS process) per replica and one for the client, each on its own thread.
//
// What this buys beyond the simulator: the datagram framing, the receiver
// thread / event-loop handoff, the peer addressing, the ephemeral-port
// rendezvous, and the deterministic cross-process key derivation are all
// exercised for real. What it deliberately does NOT claim: determinism —
// delivery order is whatever the kernel does, which is exactly why the
// invariant checked at the end is the protocol's (prefix-consistent
// execution logs), not a fingerprint.
//
// Excluded from the ASan/UBSan CI shards (label filter) but included in
// TSan: the interesting bugs here are cross-thread.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <unistd.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "agreement/minbft.h"
#include "agreement/state_machines.h"
#include "runtime/real_runtime.h"
#include "sim/world.h"

namespace unidir {
namespace {

using agreement::KvStateMachine;
using agreement::MinBftReplica;
using agreement::SgxUsigDirectory;
using agreement::SmrClient;
using runtime::RealRuntime;
using runtime::RealRuntimeOptions;

constexpr std::size_t kReplicas = 4;  // n = 4, f = 1 (commit quorum f+1)
constexpr std::size_t kF = 1;
constexpr std::size_t kTotal = kReplicas + 1;  // + the client, id 4
constexpr ProcessId kClientId = 4;
constexpr std::uint64_t kSeed = 42;
constexpr std::uint64_t kRequests = 8;

// 0.2ms ticks: MinBFT's view-change timeout (300 ticks) becomes 60ms and
// the client's resend base (400 ticks) 80ms — snappy on loopback, yet far
// above its RTT, so retries stay bounded.
constexpr std::uint64_t kTickNs = 200'000;

/// One modelled OS process: a World over its own RealRuntime + socket,
/// the shared-by-derivation key registry, and its single local process.
struct Host {
  explicit Host(std::unique_ptr<runtime::Runtime> rt,
                std::size_t total = kTotal)
      : world(kSeed, std::move(rt)), usigs(world.keys()) {
    world.provision(total);
    // Materialize every replica's enclave in id order: enclave keys are
    // generated deterministically after the provisioned process keys, so
    // all five hosts derive identical registries and UIs verify anywhere.
    for (ProcessId p = 0; p < kReplicas; ++p) usigs.enclave_for(p);
  }

  sim::World world;
  SgxUsigDirectory usigs;
};

TEST(RealTimeLoopback, MinBftCommitsAClosedLoopWorkloadOverUdp) {
  // Bind every socket first (port 0 = ephemeral), then exchange the
  // resolved ports — the rendezvous a deployment would do via config.
  std::vector<std::unique_ptr<RealRuntime>> runtimes;
  for (std::size_t i = 0; i < kTotal; ++i) {
    RealRuntimeOptions o;
    o.tick_ns = kTickNs;
    o.listen = "127.0.0.1:0";
    runtimes.push_back(std::make_unique<RealRuntime>(o));
    ASSERT_GT(runtimes.back()->bound_port(), 0);
  }
  std::vector<std::uint16_t> ports;
  for (const auto& rt : runtimes) ports.push_back(rt->bound_port());
  for (std::size_t i = 0; i < kTotal; ++i)
    for (ProcessId p = 0; p < kTotal; ++p)
      if (p != i) runtimes[i]->add_peer(p, "127.0.0.1", ports[p]);

  // Keep loop-control handles; ownership moves into the Worlds.
  std::vector<RealRuntime*> controls;
  for (auto& rt : runtimes) controls.push_back(rt.get());

  MinBftReplica::Options ropt;
  ropt.f = kF;
  for (ProcessId p = 0; p < kReplicas; ++p) ropt.replicas.push_back(p);

  std::vector<std::unique_ptr<Host>> hosts;
  std::vector<MinBftReplica*> replicas;
  for (ProcessId p = 0; p < kReplicas; ++p) {
    hosts.push_back(std::make_unique<Host>(std::move(runtimes[p])));
    replicas.push_back(&hosts.back()->world.spawn_at<MinBftReplica>(
        p, ropt, hosts.back()->usigs,
        std::make_unique<KvStateMachine>()));
    hosts.back()->world.start();
  }

  auto client_host = std::make_unique<Host>(std::move(runtimes[kClientId]));
  SmrClient::Options copt;
  copt.replicas = ropt.replicas;
  copt.f = kF;
  copt.max_attempts = 25;  // bounded retries: give up instead of spinning
  auto& client =
      client_host->world.spawn_at<SmrClient>(kClientId, copt);
  for (std::uint64_t i = 0; i < kRequests; ++i) {
    const std::string key = "k" + std::to_string(i % 3);
    if (i % 3 == 2)
      client.submit(KvStateMachine::get_op(key));
    else
      client.submit(KvStateMachine::put_op(key, "v" + std::to_string(i)));
  }
  client_host->world.start();

  // Replica loops: run until the test says done. The predicate is an
  // atomic read, re-checked after every event and every bounded wait, so
  // shutdown needs no extra machinery beyond stores + stop().
  std::atomic<bool> done{false};
  std::vector<std::thread> threads;
  for (ProcessId p = 0; p < kReplicas; ++p) {
    sim::World* w = &hosts[p]->world;
    threads.emplace_back([w, &done] {
      w->run_until([&done] { return done.load(std::memory_order_relaxed); },
                   SIZE_MAX);
    });
  }

  // Client loop on this thread, with a wall-clock safety net far above
  // anything a healthy run needs.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  const bool committed = client_host->world.run_until(
      [&] {
        return client.completed() + client.gave_up() >= kRequests ||
               std::chrono::steady_clock::now() > deadline;
      },
      SIZE_MAX);
  EXPECT_TRUE(committed);
  EXPECT_EQ(client.completed(), kRequests);
  EXPECT_EQ(client.gave_up(), 0u) << "client abandoned requests";

  done.store(true, std::memory_order_relaxed);
  for (auto* c : controls) c->stop();  // wakes any loop parked in a wait
  for (auto& t : threads) t.join();

  // Threads are joined: replica state is safe to read from here.
  std::vector<std::pair<ProcessId, const agreement::ExecutionLog*>> logs;
  for (ProcessId p = 0; p < kReplicas; ++p)
    logs.emplace_back(p, &replicas[p]->execution_log());
  const auto divergence = agreement::check_execution_consistency(logs);
  EXPECT_FALSE(divergence.has_value()) << *divergence;

  // Commit quorum is f+1 = 2, so at least that many replicas executed the
  // full workload.
  std::size_t caught_up = 0;
  for (auto* r : replicas)
    if (r->executed_count() >= kRequests) ++caught_up;
  EXPECT_GE(caught_up, kF + 1);

  // The wire survived: every datagram either decoded through both
  // hardening layers or was counted, and nothing was dropped for want of
  // an address. Only the client and a commit quorum are guaranteed to
  // have sent anything: a replica the scheduler starved until the client
  // finished may not have had a turn yet.
  std::size_t replicas_sent = 0;
  for (ProcessId p = 0; p < kTotal; ++p) {
    const auto us = controls[p]->udp_stats();
    EXPECT_EQ(us.frames_no_peer, 0u) << "host " << p;
    EXPECT_EQ(us.frames_malformed, 0u) << "host " << p;
    if (p != kClientId && us.frames_sent > 0) ++replicas_sent;
  }
  EXPECT_GT(controls[kClientId]->udp_stats().frames_sent, 0u);
  EXPECT_GE(replicas_sent, kF + 1);
}

// ---- shutdown ordering -----------------------------------------------------------
//
// The teardown path is where loop thread, receiver thread and destructor
// meet; these tests (TSan-covered) pin the contract: stop() is callable
// from any thread and from inside a handler, and the destructor joins the
// receiver and discards still-armed timers no matter what state the run
// was abandoned in.

TEST(RealTimeShutdown, StopMidDeliveryWithTimersArmedJoinsCleanly) {
  auto make = [] {
    RealRuntimeOptions o;
    o.tick_ns = 100'000;  // 0.1ms ticks keep the pump hot
    o.listen = "127.0.0.1:0";
    return std::make_unique<RealRuntime>(o);
  };
  auto a = make();
  auto b = make();
  a->add_peer(1, "127.0.0.1", b->bound_port());
  b->add_peer(0, "127.0.0.1", a->bound_port());
  a->transport().set_local([](ProcessId p) { return p == 0; });
  b->transport().set_local([](ProcessId p) { return p == 1; });
  a->transport().set_deliver(
      [](ProcessId, ProcessId, Channel, const Payload&) {});
  std::atomic<std::uint64_t> received_b{0};
  b->transport().set_deliver(
      [&](ProcessId, ProcessId, Channel, const Payload&) {
        received_b.fetch_add(1, std::memory_order_relaxed);
      });

  // Long-deadline timers that will still be armed at teardown, on both
  // sides — the destructor must discard them, not wait for them.
  for (int k = 0; k < 64; ++k) {
    a->clock().arm(10'000'000, [] {});
    b->clock().arm(10'000'000, [] {});
  }
  // A self-rearming pump keeps datagrams in flight for the whole test, so
  // stop() lands while the receiver thread is mid-delivery.
  std::function<void()> pump = [&] {
    for (int k = 0; k < 8; ++k)
      a->transport().send(0, 1, 7, bytes_of("chaff"));
    a->clock().arm(1, pump);
  };
  a->clock().arm(1, pump);

  std::thread loop_a([&] { a->run(SIZE_MAX); });
  std::thread loop_b([&] { b->run(SIZE_MAX); });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (received_b.load(std::memory_order_relaxed) < 100 &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_GE(received_b.load(std::memory_order_relaxed), 100u)
      << "traffic never flowed; the shutdown below would prove nothing";

  // Stop the RECEIVING side first: a keeps firing datagrams at a runtime
  // that is tearing down, which is exactly the hazardous interleaving.
  b->stop();
  loop_b.join();
  b.reset();  // destructor: joins b's receiver while a still sends
  a->stop();
  loop_a.join();
  EXPECT_GT(a->udp_stats().frames_sent, 0u);
}

TEST(RealTimeShutdown, StopFromInsideATimerHandler) {
  RealRuntimeOptions o;
  o.tick_ns = 100'000;
  o.listen = "127.0.0.1:0";
  RealRuntime rt(o);
  rt.transport().set_deliver(
      [](ProcessId, ProcessId, Channel, const Payload&) {});
  for (int k = 0; k < 32; ++k) rt.clock().arm(10'000'000, [] {});
  bool late_fired = false;
  rt.clock().arm(1, [&] { rt.stop(); });
  rt.clock().arm(10'000'000, [&] { late_fired = true; });
  rt.run(SIZE_MAX);
  EXPECT_TRUE(rt.stopped());
  EXPECT_FALSE(late_fired) << "run() outlived stop() by a long timer";
}

TEST(RealTimeShutdown, DestroyWithoutEverRunningJoinsTheReceiver) {
  // Construction starts the receiver thread; destruction must join it even
  // if run() was never called and timers are still armed. Iterate a few
  // times to give TSan interleavings to chew on.
  for (int i = 0; i < 8; ++i) {
    RealRuntimeOptions o;
    o.listen = "127.0.0.1:0";
    RealRuntime rt(o);
    rt.clock().arm(10'000'000, [] {});
    ASSERT_GT(rt.bound_port(), 0);
  }
}

// ---- send-path loss accounting ---------------------------------------------
//
// The regression suite for the silent-loss bugs the batched-I/O PR fixed:
// before, an oversized frame died as an unchecked kernel EMSGSIZE and a
// rejected sendto was reported as delivered traffic. Each test drives the
// REAL failure (actual kernel errno, not a mock) and asserts it lands in
// the right counter — in udp_stats() and, for generic harnesses, mirrored
// in RuntimeStats.

TEST(RealTimeSendAccounting, OversizedFrameIsRefusedAtEncodeTime) {
  RealRuntimeOptions o;
  o.listen = "127.0.0.1:0";
  o.max_datagram = 128;
  RealRuntime rt(o);
  rt.add_peer(1, "127.0.0.1", rt.bound_port());
  rt.transport().set_deliver(
      [](ProcessId, ProcessId, Channel, const Payload&) {});

  rt.transport().send(0, 1, 7, Bytes(4096, std::uint8_t{0xAB}));
  auto us = rt.udp_stats();
  EXPECT_EQ(us.frames_oversized, 1u);
  EXPECT_EQ(us.frames_sent, 0u) << "an oversized frame reached the socket";
  EXPECT_EQ(us.frames_send_failed, 0u);
  EXPECT_EQ(rt.stats().frames_oversized, 1u);

  // The limit is per frame, not a poisoned channel: a fitting frame on the
  // same channel still goes out.
  rt.transport().send(0, 1, 7, bytes_of("small"));
  EXPECT_EQ(rt.udp_stats().frames_sent, 1u);
}

TEST(RealTimeSendAccounting, KernelRejectionIsCountedNotSilent) {
  // Raising max_datagram PAST the IPv4 UDP payload maximum lets a 70KB
  // frame through the encode-time check, so sendto itself must fail —
  // a genuine kernel EMSGSIZE, the exact path that used to lose frames
  // without a trace.
  RealRuntimeOptions o;
  o.listen = "127.0.0.1:0";
  o.max_datagram = 200'000;
  RealRuntime rt(o);
  rt.add_peer(1, "127.0.0.1", rt.bound_port());
  rt.transport().set_deliver(
      [](ProcessId, ProcessId, Channel, const Payload&) {});

  rt.transport().send(0, 1, 7, Bytes(70'000, std::uint8_t{0x5A}));
  auto us = rt.udp_stats();
  EXPECT_EQ(us.frames_send_failed, 1u);
  EXPECT_EQ(us.frames_sent, 0u) << "a rejected send was reported delivered";
  EXPECT_EQ(us.frames_oversized, 0u);
  EXPECT_EQ(rt.stats().frames_send_failed, 1u);
}

TEST(RealTimeSendAccounting, BatchedFlushCountsEveryKernelRejection) {
  // Sends staged from inside the loop take the sendmmsg flush path; mix
  // doomed and healthy frames in one burst. sendmmsg only reports -1 when
  // the FIRST datagram fails, so the flush must count that one and keep
  // going instead of abandoning (or infinitely retrying) the burst.
  RealRuntimeOptions o;
  o.listen = "127.0.0.1:0";
  o.max_datagram = 200'000;
  o.send_batch = 8;
  RealRuntime rt(o);
  rt.add_peer(1, "127.0.0.1", rt.bound_port());
  rt.transport().set_deliver(
      [](ProcessId, ProcessId, Channel, const Payload&) {});

  rt.clock().arm(0, [&] {
    for (int k = 0; k < 3; ++k)
      rt.transport().send(0, 1, 7, Bytes(70'000, std::uint8_t(k)));
    for (int k = 0; k < 2; ++k) rt.transport().send(0, 1, 7, bytes_of("ok"));
    rt.stop();
  });
  rt.run(SIZE_MAX);

  auto us = rt.udp_stats();
  EXPECT_EQ(us.frames_send_failed, 3u);
  EXPECT_EQ(us.frames_sent, 2u);
}

TEST(RealTimeReceiverDeath, DeadReceiverRaisesTheFlagInsteadOfServingDeaf) {
  RealRuntimeOptions o;
  o.listen = "127.0.0.1:0";
  RealRuntime rt(o);
  rt.transport().set_deliver(
      [](ProcessId, ProcessId, Channel, const Payload&) {});
  ASSERT_FALSE(rt.stats().receiver_dead);

  // Yank the socket out from under the receiver thread: dup2 a non-socket
  // over the fd, so its next receive returns a real ENOTSOCK — neither a
  // timeout nor shutdown. The thread must record the death and exit; a
  // polling harness (minbft_kv exits 4 on this flag) sees a failed member
  // instead of a process that answers nothing forever.
  const int null_fd = ::open("/dev/null", O_RDONLY);
  ASSERT_GE(null_fd, 0);
  ASSERT_GE(::dup2(null_fd, rt.native_handle()), 0);
  ::close(null_fd);

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!rt.stats().receiver_dead &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_TRUE(rt.stats().receiver_dead);
  EXPECT_TRUE(rt.udp_stats().receiver_dead);
}

// ---- batched receive equivalence -------------------------------------------

TEST(RealTimeBatchedReceive, MmsgAndPortablePathsDeliverIdentically) {
  // Same sender, same frame sequence, two receivers — one draining bursts
  // with recvmmsg, one on the single-datagram recvfrom fallback. Loopback
  // UDP preserves per-socket order, so both must deliver the SAME
  // (from, to, channel, payload) sequence, byte for byte: the batch path
  // may change syscall economics, never what the protocol sees.
  using Delivered = std::tuple<ProcessId, ProcessId, Channel, Bytes>;
  constexpr std::size_t kFrames = 64;

  auto make_rx = [](bool mmsg, ProcessId local,
                    std::vector<Delivered>* got,
                    std::atomic<std::size_t>* count) {
    RealRuntimeOptions o;
    o.listen = "127.0.0.1:0";
    o.use_recvmmsg = mmsg;
    o.recv_batch = 8;
    auto rt = std::make_unique<RealRuntime>(o);
    rt->transport().set_local([local](ProcessId p) { return p == local; });
    rt->transport().set_deliver([got, count](ProcessId from, ProcessId to,
                                             Channel ch,
                                             const Payload& payload) {
      // Runs on the single loop thread; the test thread only reads the
      // vector after stop() + thread join.
      got->emplace_back(from, to, ch,
                        Bytes(payload.bytes().begin(), payload.bytes().end()));
      count->fetch_add(1, std::memory_order_release);
    });
    return rt;
  };

  std::vector<Delivered> got_mmsg, got_portable;
  std::atomic<std::size_t> n_mmsg{0}, n_portable{0};
  auto rx_m = make_rx(true, 1, &got_mmsg, &n_mmsg);
  auto rx_p = make_rx(false, 2, &got_portable, &n_portable);

  RealRuntimeOptions so;
  so.listen = "127.0.0.1:0";
  RealRuntime sender(so);
  sender.add_peer(1, "127.0.0.1", rx_m->bound_port());
  sender.add_peer(2, "127.0.0.1", rx_p->bound_port());
  sender.transport().set_deliver(
      [](ProcessId, ProcessId, Channel, const Payload&) {});

  const auto rx_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  std::thread tm([&] {
    rx_m->run_until(
        [&] {
          return n_mmsg.load(std::memory_order_acquire) >= kFrames ||
                 std::chrono::steady_clock::now() > rx_deadline;
        },
        SIZE_MAX);
  });
  std::thread tp([&] {
    rx_p->run_until(
        [&] {
          return n_portable.load(std::memory_order_acquire) >= kFrames ||
                 std::chrono::steady_clock::now() > rx_deadline;
        },
        SIZE_MAX);
  });

  for (std::size_t i = 0; i < kFrames; ++i) {
    // Varying sizes and channels so a mis-stitched burst (wrong length,
    // swapped payload) cannot escape the comparison.
    Bytes payload(i * 7 + 1, static_cast<std::uint8_t>(i));
    const Channel ch = static_cast<Channel>(i % 3 + 1);
    sender.transport().send(0, 1, ch, Bytes(payload));
    sender.transport().send(0, 2, ch, std::move(payload));
  }

  tm.join();
  tp.join();
  rx_m->stop();
  rx_p->stop();

  ASSERT_EQ(got_mmsg.size(), static_cast<std::size_t>(kFrames));
  ASSERT_EQ(got_portable.size(), static_cast<std::size_t>(kFrames));
  for (std::size_t i = 0; i < kFrames; ++i) {
    EXPECT_EQ(std::get<0>(got_mmsg[i]), std::get<0>(got_portable[i]));
    EXPECT_EQ(std::get<2>(got_mmsg[i]), std::get<2>(got_portable[i]));
    EXPECT_EQ(std::get<3>(got_mmsg[i]), std::get<3>(got_portable[i]))
        << "payload mismatch at frame " << i;
  }
  // Both decoded everything; the batch path differs only in syscall count.
  EXPECT_EQ(rx_m->udp_stats().frames_malformed, 0u);
  EXPECT_EQ(rx_p->udp_stats().frames_malformed, 0u);
  EXPECT_LE(rx_m->udp_stats().recv_syscalls,
            rx_p->udp_stats().recv_syscalls);
}

// ---- event-loop shards -----------------------------------------------------

TEST(RealTimeSharded, TimersRunOnTheirOwnersShard) {
  // Loopback-only: with no socket the global pending count makes run()
  // quiesce once every timer fired, even across shards.
  RealRuntimeOptions o;
  o.shards = 4;
  RealRuntime rt(o);
  rt.transport().set_deliver(
      [](ProcessId, ProcessId, Channel, const Payload&) {});

  constexpr std::size_t kOwners = 8;
  std::array<std::atomic<std::size_t>, kOwners> ran_on;
  for (auto& a : ran_on) a.store(runtime::kNoShard);
  for (ProcessId owner = 0; owner < kOwners; ++owner)
    rt.arm_for(owner, 1, [&rt, &ran_on, owner] {
      ran_on[owner].store(rt.calling_shard(), std::memory_order_relaxed);
    });
  rt.run(SIZE_MAX);

  for (std::size_t owner = 0; owner < kOwners; ++owner)
    EXPECT_EQ(ran_on[owner].load(), owner % 4)
        << "timer for owner " << owner << " ran on a foreign shard";
}

TEST(RealTimeSharded, CrossShardLoopbackDeliversOnTheTargetsShard) {
  RealRuntimeOptions o;
  o.shards = 4;
  RealRuntime rt(o);
  constexpr std::size_t kIds = 8;
  rt.transport().set_local([](ProcessId p) { return p < kIds; });
  std::array<std::atomic<std::size_t>, kIds> delivered_on;
  for (auto& a : delivered_on) a.store(runtime::kNoShard);
  rt.transport().set_deliver([&rt, &delivered_on](ProcessId, ProcessId to,
                                                  Channel, const Payload&) {
    delivered_on[to].store(rt.calling_shard(), std::memory_order_relaxed);
  });

  // One sender on shard 0 fans out to every local id: 0 and 4 take the
  // same-shard fast path, the rest cross shards through their inboxes.
  rt.arm_for(0, 1, [&rt] {
    for (ProcessId to = 0; to < kIds; ++to)
      rt.transport().send(0, to, 5, bytes_of("x"));
  });
  rt.run(SIZE_MAX);

  for (std::size_t to = 0; to < kIds; ++to)
    EXPECT_EQ(delivered_on[to].load(), to % 4)
        << "message for " << to << " was handled on a foreign shard";
  EXPECT_EQ(rt.udp_stats().loopback_messages, kIds);
}

TEST(RealTimeSharded, ClientFleetCommitsAcrossShardsAndConservesFrames) {
  // The TSan centerpiece: a client World whose RealRuntime runs THREE
  // event-loop shards hosting six SmrClients, against four single-shard
  // replica Worlds — every cross-thread seam (sharded inboxes, batched
  // receiver fan-out, sendmmsg staging, per-shard wire stats) under real
  // concurrency. Afterwards, on this lossless loopback cluster, the
  // frame-conservation identity must hold exactly across the whole
  // cluster: sent == received + malformed, failed == oversized == 0 —
  // the cluster-level form of the send-path accounting above.
  constexpr std::size_t kClients = 6;
  constexpr std::size_t kShards = 3;
  constexpr std::uint64_t kPerClient = 4;
  constexpr std::size_t kAll = kReplicas + kClients;

  std::vector<std::unique_ptr<RealRuntime>> runtimes;
  for (std::size_t i = 0; i <= kReplicas; ++i) {
    RealRuntimeOptions o;
    o.tick_ns = kTickNs;
    o.listen = "127.0.0.1:0";
    if (i == kReplicas) o.shards = kShards;  // the fleet's runtime
    runtimes.push_back(std::make_unique<RealRuntime>(o));
  }
  std::vector<std::uint16_t> ports;
  for (const auto& rt : runtimes) ports.push_back(rt->bound_port());
  for (std::size_t i = 0; i < runtimes.size(); ++i)
    for (ProcessId p = 0; p < kAll; ++p) {
      const std::size_t owner = p < kReplicas ? p : kReplicas;
      if (owner != i) runtimes[i]->add_peer(p, "127.0.0.1", ports[owner]);
    }
  std::vector<RealRuntime*> controls;
  for (auto& rt : runtimes) controls.push_back(rt.get());

  MinBftReplica::Options ropt;
  ropt.f = kF;
  for (ProcessId p = 0; p < kReplicas; ++p) ropt.replicas.push_back(p);

  std::vector<std::unique_ptr<Host>> hosts;
  for (ProcessId p = 0; p < kReplicas; ++p) {
    hosts.push_back(std::make_unique<Host>(std::move(runtimes[p]), kAll));
    hosts.back()->world.spawn_at<MinBftReplica>(
        p, ropt, hosts.back()->usigs, std::make_unique<KvStateMachine>());
    hosts.back()->world.start();
  }

  auto fleet_host =
      std::make_unique<Host>(std::move(runtimes[kReplicas]), kAll);
  SmrClient::Options copt;
  copt.replicas = ropt.replicas;
  copt.f = kF;
  copt.max_attempts = 25;
  copt.resend_jitter = 64;
  // The fleet World's run_until predicate executes on shard 0 while other
  // shards run client handlers, so it may read only this atomic —
  // incremented by done callbacks, which run on each client's own shard.
  std::atomic<std::uint64_t> done{0};
  for (std::size_t c = 0; c < kClients; ++c) {
    auto& client = fleet_host->world.spawn_at<SmrClient>(
        static_cast<ProcessId>(kReplicas + c), copt);
    for (std::uint64_t i = 0; i < kPerClient; ++i)
      client.submit(
          KvStateMachine::put_op("k" + std::to_string(i % 3),
                                 "c" + std::to_string(c) + "v" +
                                     std::to_string(i)),
          [&done](const Bytes&) {
            done.fetch_add(1, std::memory_order_relaxed);
          });
  }
  fleet_host->world.start();

  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (ProcessId p = 0; p < kReplicas; ++p) {
    sim::World* w = &hosts[p]->world;
    threads.emplace_back([w, &stop] {
      w->run_until([&stop] { return stop.load(std::memory_order_relaxed); },
                   SIZE_MAX);
    });
  }

  constexpr std::uint64_t kOffered = kClients * kPerClient;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  fleet_host->world.run_until(
      [&] {
        return done.load(std::memory_order_relaxed) >= kOffered ||
               std::chrono::steady_clock::now() > deadline;
      },
      SIZE_MAX);
  EXPECT_EQ(done.load(), kOffered);

  // Every shard hosting clients must have actually executed events — the
  // fleet is sharded in fact, not just in configuration.
  RealRuntime* fleet_rt = controls[kReplicas];
  ASSERT_EQ(fleet_rt->execution_shards(), kShards);
  for (std::size_t s = 0; s < kShards; ++s)
    EXPECT_GT(fleet_rt->shard_stats(s).executed, 0u)
        << "shard " << s << " sat idle";

  // Frame conservation: wait for the replicas' tail traffic (commits,
  // checkpoints) to quiesce — counters stable across two reads — then
  // demand the identity exactly.
  auto totals = [&] {
    std::array<std::uint64_t, 6> t{};
    for (auto* c : controls) {
      const auto us = c->udp_stats();
      t[0] += us.frames_sent;
      t[1] += us.frames_received;
      t[2] += us.frames_malformed;
      t[3] += us.frames_send_failed;
      t[4] += us.frames_oversized;
      t[5] += us.frames_no_peer;
    }
    return t;
  };
  auto prev = totals();
  for (int i = 0; i < 40; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    const auto cur = totals();
    if (cur == prev && cur[0] == cur[1] + cur[2]) break;
    prev = cur;
  }
  const auto t = totals();
  EXPECT_EQ(t[0], t[1] + t[2]) << "sent != received + malformed: a frame "
                                  "vanished without a counter";
  EXPECT_EQ(t[2], 0u) << "malformed frames on a clean wire";
  EXPECT_EQ(t[3], 0u) << "kernel send rejections on loopback";
  EXPECT_EQ(t[4], 0u) << "oversized frames in a stock workload";
  EXPECT_EQ(t[5], 0u) << "sends to unaddressable ids";

  stop.store(true, std::memory_order_relaxed);
  for (auto* c : controls) c->stop();
  for (auto& th : threads) th.join();
}

}  // namespace
}  // namespace unidir
