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

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "agreement/minbft.h"
#include "agreement/state_machines.h"
#include "runtime/frame.h"
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

// ---- client resend timers --------------------------------------------------

TEST(RealTimeClient, RunQuiescesOnceEveryRequestCompletes) {
  // One loopback-only runtime (no socket) hosts three replicas and a
  // client whose resend base is 30 s at the default 1-ms tick. run()
  // returns once no timer is live, so it comes back promptly only if each
  // completed request's resend timer was cancelled, not left to expire.
  constexpr std::uint64_t kPipelined = 64;
  sim::World world(kSeed, std::make_unique<RealRuntime>(RealRuntimeOptions{}));
  SgxUsigDirectory usigs(world.keys());
  MinBftReplica::Options ropt;
  ropt.f = 1;
  ropt.replicas = {0, 1, 2};
  for (std::size_t i = 0; i < ropt.replicas.size(); ++i)
    world.spawn<MinBftReplica>(ropt, usigs,
                               std::make_unique<KvStateMachine>());
  SmrClient::Options copt;
  copt.replicas = ropt.replicas;
  copt.f = 1;
  copt.resend_timeout = 30'000;
  copt.max_outstanding = kPipelined;
  auto& client = world.spawn<SmrClient>(copt);
  for (std::uint64_t i = 0; i < kPipelined; ++i)
    client.submit(KvStateMachine::put_op("k" + std::to_string(i % 8), "v"));
  world.start();

  const auto t0 = std::chrono::steady_clock::now();
  world.runtime().run(SIZE_MAX);
  const auto wall = std::chrono::steady_clock::now() - t0;
  EXPECT_EQ(client.completed(), kPipelined);
  EXPECT_EQ(client.outstanding(), 0u);
  EXPECT_LT(wall, std::chrono::seconds(10))
      << "run() waited out the resend timers of completed requests";
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
  // doomed and healthy frames in one burst (5 frames, well under
  // kSendBatch, so one flush carries them all). sendmmsg only reports -1
  // when the FIRST datagram fails, so the flush must count that one and
  // keep going instead of abandoning (or infinitely retrying) the burst.
  RealRuntimeOptions o;
  o.listen = "127.0.0.1:0";
  o.max_datagram = 200'000;
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

// ---- batched receive --------------------------------------------------------

/// A socket-bound runtime whose one local process records every delivery
/// as (from, channel, payload). run() drives its loop on its own thread
/// until `want` frames were delivered or rejected as malformed, or 30 s
/// passed; join() waits for it.
class RecordingReceiver {
 public:
  using Delivered = std::tuple<ProcessId, Channel, Bytes>;
  static constexpr ProcessId kLocal = 1;

  RecordingReceiver() : rt_(listen_options()) {
    rt_.transport().set_local([](ProcessId p) { return p == kLocal; });
    rt_.transport().set_deliver([this](ProcessId from, ProcessId, Channel ch,
                                       const Payload& payload) {
      // Runs on the loop thread; the test reads got() only after join().
      got_.emplace_back(from, ch,
                        Bytes(payload.bytes().begin(), payload.bytes().end()));
      count_.fetch_add(1, std::memory_order_release);
    });
  }
  RecordingReceiver(const RecordingReceiver&) = delete;
  RecordingReceiver& operator=(const RecordingReceiver&) = delete;
  ~RecordingReceiver() {
    if (loop_.joinable()) join();
  }

  std::uint16_t port() const { return rt_.bound_port(); }
  std::size_t delivered() const {
    return count_.load(std::memory_order_acquire);
  }

  void run(std::size_t want) {
    deadline_ = std::chrono::steady_clock::now() + std::chrono::seconds(30);
    loop_ = std::thread([this, want] {
      rt_.run_until(
          [&] {
            return delivered() + rt_.udp_stats().frames_malformed >=
                       want ||
                   std::chrono::steady_clock::now() > deadline_;
          },
          SIZE_MAX);
    });
  }
  void join() { loop_.join(); }

  /// Calls `send`, then waits until one more datagram was delivered or
  /// counted malformed, or run()'s deadline passed. In this lock-step each
  /// datagram is read alone, so a small receive buffer drops none.
  void send_and_wait(const std::function<void()>& send) {
    const std::size_t before = delivered();
    const std::uint64_t bad = rt_.udp_stats().frames_malformed;
    send();
    while (delivered() == before &&
           rt_.udp_stats().frames_malformed == bad &&
           std::chrono::steady_clock::now() < deadline_)
      std::this_thread::sleep_for(std::chrono::microseconds(50));
  }

  const std::vector<Delivered>& got() const { return got_; }
  runtime::UdpTransportStats udp_stats() const { return rt_.udp_stats(); }

 private:
  static RealRuntimeOptions listen_options() {
    RealRuntimeOptions o;
    o.listen = "127.0.0.1:0";
    return o;
  }

  RealRuntime rt_;
  std::vector<Delivered> got_;
  std::atomic<std::size_t> count_{0};
  std::chrono::steady_clock::time_point deadline_;
  std::thread loop_;
};

/// A socket-bound sender whose peer RecordingReceiver::kLocal is `rx`.
std::unique_ptr<RealRuntime> sender_to(const RecordingReceiver& rx) {
  RealRuntimeOptions o;
  o.listen = "127.0.0.1:0";
  auto sender = std::make_unique<RealRuntime>(o);
  sender->add_peer(RecordingReceiver::kLocal, "127.0.0.1", rx.port());
  sender->transport().set_deliver(
      [](ProcessId, ProcessId, Channel, const Payload&) {});
  return sender;
}

TEST(RealTimeBatchedReceive, BatchedReceiveDeliversTheSentSequence) {
  // recvmmsg drains bursts into one reused slab; what the protocol sees
  // must be exactly what was sent. Loopback UDP preserves per-socket
  // order, so the delivered (from, channel, payload) sequence must equal
  // the sent one, byte for byte. 64 frames are two full recvmmsg bursts'
  // worth, so slot reuse across bursts is covered too.
  constexpr std::size_t kFrames = 64;
  RecordingReceiver rx;
  const auto sender = sender_to(rx);
  rx.run(kFrames);

  std::vector<RecordingReceiver::Delivered> sent;
  for (std::size_t i = 0; i < kFrames; ++i) {
    // Varying sizes and channels so a mis-stitched burst (wrong length,
    // swapped payload) cannot escape the comparison.
    Bytes payload(i * 7 + 1, static_cast<std::uint8_t>(i));
    const Channel ch = static_cast<Channel>(i % 3 + 1);
    sent.emplace_back(0, ch, payload);
    sender->transport().send(0, RecordingReceiver::kLocal, ch,
                             std::move(payload));
  }
  rx.join();

  ASSERT_EQ(rx.got().size(), kFrames);
  for (std::size_t i = 0; i < kFrames; ++i)
    EXPECT_EQ(rx.got()[i], sent[i]) << "mismatch at frame " << i;
  const auto stats = rx.udp_stats();
  EXPECT_EQ(stats.frames_malformed, 0u);
  EXPECT_LE(stats.recv_syscalls, stats.frames_received);
}

TEST(RealTimeBatchedReceive, BurstsTakeFewerReceiveSyscallsThanDatagrams) {
  // The point of recvmmsg: when datagrams arrive in bursts, one receive
  // syscall drains several. The sender's loop flushes kBursts bursts of
  // kSendBatch frames from timer handlers — each burst one sendmmsg — so
  // the receiver must take strictly fewer receive syscalls than frames.
  constexpr std::size_t kBursts = 16;
  constexpr std::size_t kPerBurst = RealRuntime::kSendBatch;
  constexpr std::size_t kFrames = kBursts * kPerBurst;
  RecordingReceiver rx;
  const auto sender = sender_to(rx);
  rx.run(kFrames);

  std::size_t fired = 0;  // sender loop thread only
  for (std::size_t b = 0; b < kBursts; ++b) {
    sender->clock().arm(b, [&] {
      for (std::size_t i = 0; i < kPerBurst; ++i)
        sender->transport().send(0, RecordingReceiver::kLocal, 1,
                                 Bytes(16, static_cast<std::uint8_t>(i)));
      ++fired;
    });
  }
  sender->run_until([&] { return fired >= kBursts; }, SIZE_MAX);
  rx.join();

  const auto stats = rx.udp_stats();
  EXPECT_EQ(rx.got().size(), kFrames);
  EXPECT_EQ(stats.frames_received, kFrames);
  EXPECT_EQ(stats.frames_malformed, 0u);
  EXPECT_LT(stats.recv_syscalls, stats.frames_received)
      << "recv syscalls/datagram " << stats.recv_syscalls_per_datagram();
  // Every burst left in exactly one sendmmsg: the staging queue flushed
  // at kSendBatch, not once per frame.
  EXPECT_EQ(sender->udp_stats().frames_sent, kFrames);
  EXPECT_EQ(sender->udp_stats().send_syscalls, kBursts);
}

TEST(RealTimeBatchedReceive, LargeThenSmallFramesInOneSlotDecodeExactly) {
  // The receive slots are one uninitialised slab reused burst after burst,
  // so a slot that held a ~60 KB frame still holds its bytes when a small
  // frame lands there next. Decoding must read only the datagram's own
  // length: a frame decoded over the stale tail would fail decode_frame's
  // trailing-bytes check (frames_malformed) or carry the wrong payload.
  // Frames are sent in lock-step, the next only after the last one was
  // delivered, so each is read alone into the first slot: every small
  // frame lands on a 60 KB frame's leftovers.
  constexpr std::size_t kPairs = 40;
  constexpr std::size_t kBig = 60'000;
  RecordingReceiver rx;
  const auto sender = sender_to(rx);
  rx.run(2 * kPairs);

  auto send = [&](Channel ch, Bytes payload) {
    rx.send_and_wait([&] {
      sender->transport().send(0, RecordingReceiver::kLocal, ch,
                               std::move(payload));
    });
  };
  for (std::size_t i = 0; i < kPairs; ++i) {
    send(1, Bytes(kBig, std::uint8_t{0xAB}));
    send(2, Bytes(i + 1, static_cast<std::uint8_t>(i)));
  }
  rx.join();

  ASSERT_EQ(rx.got().size(), 2 * kPairs);
  for (std::size_t i = 0; i < kPairs; ++i) {
    EXPECT_EQ(std::get<2>(rx.got()[2 * i]), Bytes(kBig, std::uint8_t{0xAB}))
        << "large frame " << i;
    EXPECT_EQ(std::get<2>(rx.got()[2 * i + 1]),
              Bytes(i + 1, static_cast<std::uint8_t>(i)))
        << "small frame " << i << " picked up stale slot bytes";
  }
  EXPECT_EQ(rx.udp_stats().frames_malformed, 0u);
  EXPECT_EQ(rx.udp_stats().frames_received, 2 * kPairs);
}

TEST(RealTimeBatchedReceive, EveryFlipAndTruncationIsDeliveredOrMalformed) {
  // The live receive path against garbage: one valid frame, then its
  // XOR-0xFF flip at every byte position, then its truncation to every
  // shorter length (0 included), from a plain UDP socket. Each datagram
  // must either decode and be delivered, or be counted malformed — never
  // vanish, crash the receiver, or reach the loop uncounted.
  const Bytes frame = runtime::encode_frame(
      0, RecordingReceiver::kLocal, 1, Bytes(16, std::uint8_t{0x5A}));
  std::vector<Bytes> datagrams{frame};
  for (std::size_t i = 0; i < frame.size(); ++i) {
    Bytes flipped = frame;
    flipped[i] ^= 0xFF;
    datagrams.push_back(std::move(flipped));
  }
  for (std::size_t len = 0; len < frame.size(); ++len)
    datagrams.emplace_back(frame.begin(),
                           frame.begin() + static_cast<std::ptrdiff_t>(len));

  RecordingReceiver rx;
  const int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in to{};
  to.sin_family = AF_INET;
  to.sin_port = htons(rx.port());
  to.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  rx.run(datagrams.size());
  for (const Bytes& d : datagrams) {
    rx.send_and_wait([&] {
      EXPECT_EQ(::sendto(fd, d.data(), d.size(), 0,
                         reinterpret_cast<const sockaddr*>(&to), sizeof(to)),
                static_cast<ssize_t>(d.size()));
    });
  }
  rx.join();
  ::close(fd);

  const auto stats = rx.udp_stats();
  EXPECT_EQ(stats.frames_received + stats.frames_malformed, datagrams.size())
      << stats.frames_received << " delivered, " << stats.frames_malformed
      << " malformed";
  EXPECT_GT(stats.frames_malformed, 0u);
  EXPECT_EQ(rx.got().size(), stats.frames_received);
  EXPECT_FALSE(stats.receiver_dead);
  ASSERT_FALSE(rx.got().empty());
  EXPECT_EQ(rx.got().front(),
            RecordingReceiver::Delivered(0, 1, Bytes(16, std::uint8_t{0x5A})));
}

// ---- one loop per runtime ---------------------------------------------------

TEST(RealTimeLoop, RunsOnTheCallingThreadAndStartsNoThread) {
  // A RealRuntime is one event loop executed by whoever calls run() or
  // run_until(): timers and local deliveries run on that thread, the call
  // starts no thread of its own, and a later call from another thread
  // moves the loop there (the handoff publishes the earlier run's state).
  RealRuntime rt([] {
    RealRuntimeOptions o;
    o.tick_ns = 100'000;  // loopback-only: no socket, no receiver thread
    return o;
  }());
  rt.transport().set_local([](ProcessId p) { return p == 1; });
  auto task_count = [] {
    std::size_t n = 0;
    for ([[maybe_unused]] const auto& e :
         std::filesystem::directory_iterator("/proc/self/task"))
      ++n;
    return n;
  };

  std::vector<std::thread::id> ran_on;  // handlers only; read after each run
  std::vector<std::size_t> tasks_seen;
  rt.transport().set_deliver([&](ProcessId, ProcessId, Channel,
                                 const Payload&) {
    ran_on.push_back(std::this_thread::get_id());
  });
  auto arm_and_send = [&] {
    rt.clock().arm(1, [&] {
      ran_on.push_back(std::this_thread::get_id());
      tasks_seen.push_back(task_count());
    });
    rt.transport().send(0, 1, 3, Bytes{1, 2, 3});
  };

  arm_and_send();
  const std::size_t tasks_before = task_count();
  rt.run(SIZE_MAX);
  ASSERT_EQ(ran_on.size(), 2u);
  for (const auto& id : ran_on) EXPECT_EQ(id, std::this_thread::get_id());
  ASSERT_EQ(tasks_seen.size(), 1u);
  EXPECT_EQ(tasks_seen[0], tasks_before) << "run() started a thread";

  ran_on.clear();
  std::thread::id other;
  std::thread t([&] {
    other = std::this_thread::get_id();
    arm_and_send();
    EXPECT_TRUE(rt.run_until([&] { return ran_on.size() >= 2; }, SIZE_MAX));
  });
  t.join();
  ASSERT_EQ(ran_on.size(), 2u);
  for (const auto& id : ran_on) EXPECT_EQ(id, other);
  EXPECT_EQ(rt.stats().executed, 4u);
}

// ---- foreign-thread sends ---------------------------------------------------

TEST(RealTimeForeignSend, LoopbackSendsFromAnotherThreadRunOnTheLoop) {
  // A load generator on its own thread feeding a socket-bound runtime's
  // local process (perfbench's paced workload does exactly this): every
  // send lands in the inbox, wakes the loop, and is delivered on the loop
  // thread, in order, while run_until runs.
  constexpr std::size_t kSends = 500;
  constexpr ProcessId kLocal = 1;
  RealRuntimeOptions o;
  o.listen = "127.0.0.1:0";
  RealRuntime rt(o);
  rt.transport().set_local([](ProcessId p) { return p == kLocal; });

  // Loop-thread-only state: the predicate and handlers all run there.
  std::thread::id loop_id;
  std::vector<std::uint64_t> seen;
  std::size_t off_loop = 0;
  std::atomic<bool> loop_live{false};
  rt.transport().set_deliver([&](ProcessId from, ProcessId to, Channel ch,
                                 const Payload& payload) {
    if (std::this_thread::get_id() != loop_id) ++off_loop;
    EXPECT_EQ(from, 0u);
    EXPECT_EQ(to, kLocal);
    EXPECT_EQ(ch, 9u);
    seen.push_back(payload.bytes().size());
  });
  rt.clock().arm(0, [&] {
    loop_id = std::this_thread::get_id();
    loop_live.store(true, std::memory_order_release);
  });

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  std::thread loop([&] {
    rt.run_until(
        [&] {
          return seen.size() >= kSends ||
                 std::chrono::steady_clock::now() > deadline;
        },
        SIZE_MAX);
  });
  while (!loop_live.load(std::memory_order_acquire))
    std::this_thread::yield();
  for (std::size_t i = 0; i < kSends; ++i)
    rt.transport().send(0, kLocal, 9, Bytes(i % 97 + 1, std::uint8_t{7}));
  loop.join();

  ASSERT_EQ(seen.size(), kSends);
  EXPECT_EQ(off_loop, 0u) << "a foreign send was handled off the loop";
  for (std::size_t i = 0; i < kSends; ++i)
    EXPECT_EQ(seen[i], i % 97 + 1) << "out of order at send " << i;
  EXPECT_EQ(rt.udp_stats().loopback_messages, kSends);
  EXPECT_EQ(rt.udp_stats().frames_sent, 0u) << "a local send hit the socket";
}

// ---- multi-runtime client fleet ---------------------------------------------

TEST(RealTimeFleet, ClientRuntimesCommitAndConserveFrames) {
  // The TSan centerpiece: six SmrClients on THREE client runtimes (two
  // clients each) against four replica runtimes, every World's loop on its
  // own thread and every runtime with its own receiver — many loops and
  // receivers in one OS process, so every cross-thread seam (inbox
  // handoff, batched receive, sendmmsg staging) runs under real
  // concurrency. Afterwards, on this lossless loopback cluster, the
  // frame-conservation identity must hold exactly across the whole
  // cluster: sent == received + malformed, failed == oversized == 0 —
  // the cluster-level form of the send-path accounting above.
  constexpr std::size_t kClientRuntimes = 3;
  constexpr std::size_t kClientsPerRuntime = 2;
  constexpr std::size_t kClients = kClientRuntimes * kClientsPerRuntime;
  constexpr std::uint64_t kPerClient = 4;
  constexpr std::size_t kAll = kReplicas + kClients;
  // Runtime i < kReplicas serves replica i; the rest serve two clients each.
  auto owner_of = [](ProcessId p) -> std::size_t {
    return p < kReplicas ? p : kReplicas + (p - kReplicas) / kClientsPerRuntime;
  };

  std::vector<std::unique_ptr<RealRuntime>> runtimes;
  for (std::size_t i = 0; i < kReplicas + kClientRuntimes; ++i) {
    RealRuntimeOptions o;
    o.tick_ns = kTickNs;
    o.listen = "127.0.0.1:0";
    runtimes.push_back(std::make_unique<RealRuntime>(o));
  }
  std::vector<std::uint16_t> ports;
  for (const auto& rt : runtimes) ports.push_back(rt->bound_port());
  for (std::size_t i = 0; i < runtimes.size(); ++i)
    for (ProcessId p = 0; p < kAll; ++p)
      if (owner_of(p) != i)
        runtimes[i]->add_peer(p, "127.0.0.1", ports[owner_of(p)]);
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

  SmrClient::Options copt;
  copt.replicas = ropt.replicas;
  copt.f = kF;
  copt.max_attempts = 25;
  copt.resend_jitter = 64;
  std::vector<std::unique_ptr<Host>> fleet_hosts;
  std::vector<std::vector<SmrClient*>> fleets(kClientRuntimes);
  for (std::size_t r = 0; r < kClientRuntimes; ++r) {
    fleet_hosts.push_back(
        std::make_unique<Host>(std::move(runtimes[kReplicas + r]), kAll));
    for (std::size_t k = 0; k < kClientsPerRuntime; ++k) {
      const std::size_t c = r * kClientsPerRuntime + k;
      auto& client = fleet_hosts.back()->world.spawn_at<SmrClient>(
          static_cast<ProcessId>(kReplicas + c), copt);
      for (std::uint64_t i = 0; i < kPerClient; ++i)
        client.submit(KvStateMachine::put_op(
            "k" + std::to_string(i % 3),
            "c" + std::to_string(c) + "v" + std::to_string(i)));
      fleets[r].push_back(&client);
    }
    fleet_hosts.back()->world.start();
  }

  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (ProcessId p = 0; p < kReplicas; ++p) {
    sim::World* w = &hosts[p]->world;
    threads.emplace_back([w, &stop] {
      w->run_until([&stop] { return stop.load(std::memory_order_relaxed); },
                   SIZE_MAX);
    });
  }
  // Each fleet World runs until its own clients are done; the predicate
  // executes on that World's loop, so it reads the clients directly.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  std::vector<std::thread> fleet_threads;
  for (std::size_t r = 0; r < kClientRuntimes; ++r) {
    sim::World* w = &fleet_hosts[r]->world;
    const std::vector<SmrClient*>* fleet = &fleets[r];
    fleet_threads.emplace_back([w, fleet, deadline] {
      w->run_until(
          [fleet, deadline] {
            std::uint64_t done = 0;
            for (const SmrClient* cl : *fleet) done += cl->completed();
            return done >= kClientsPerRuntime * kPerClient ||
                   std::chrono::steady_clock::now() > deadline;
          },
          SIZE_MAX);
    });
  }
  for (auto& th : fleet_threads) th.join();
  for (std::size_t r = 0; r < kClientRuntimes; ++r)
    for (const SmrClient* cl : fleets[r]) {
      EXPECT_EQ(cl->completed(), kPerClient)
          << "client " << cl->id() << " on runtime " << r;
      EXPECT_EQ(cl->gave_up(), 0u);
    }

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
