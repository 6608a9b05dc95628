// RealRuntime: the same protocol stack on an OS thread, a monotonic-clock
// timer heap, and a UDP socket — with batched socket I/O.
//
// One RealRuntime is one event loop. run()/run_until() execute it on the
// calling thread: every local process's handlers and timers run there, one
// event at a time, so protocol code needs no locking — the same
// thread-confinement contract the simulator gives. To use more cores, run
// more runtimes (one per replica, as perfbench and minbft_kv do). A
// socket-bound runtime also owns one receiver thread that drains datagram
// BURSTS — recvmmsg, up to kRecvBatch per syscall — decodes frames
// (runtime/frame.h) and hands each burst to the loop's inbox under one
// lock acquisition. The backend is Linux-only: recvmmsg/sendmmsg are the
// one socket path.
//
// Signature verification runs inline on the loop thread.
//
// Outbound datagrams are coalesced: sends a handler issues are staged in
// the loop's queue and flushed with one sendmmsg when the queue reaches
// kSendBatch, when the loop runs out of immediately-due events, and before
// every wait — so a broadcast costs one syscall, and at saturation the
// syscalls-per-datagram ratio drops well below 1 on both directions.
// Every send's return value is checked: kernel rejections are counted
// (frames_send_failed), never reported as delivered traffic, and frames
// over options.max_datagram are refused at encode time (frames_oversized)
// instead of dying as silent EMSGSIZE — fragmenting them over a TCP
// transport is the ROADMAP item 3 follow-up. Each failure kind (send
// failure, oversized frame, unaddressable peer) warns once, on its first
// occurrence; later ones are only counted in udp_stats().
//
// Time: a "tick" is Options::tick_ns of std::chrono::steady_clock (default
// 1ms), so protocol timeouts written in ticks — a MinBFT view-change
// timeout of 300, a client resend of 400 — become 300ms/400ms of wall
// time. Timers fire in (deadline, arm-order) order on the loop thread.
// Arming or cancelling a timer from any other thread while the loop runs
// is a contract violation (checked).
//
// Addressing: sends to ids in the peer table leave through the UDP socket
// as length-prefixed frames; sends to local ids (World registers which)
// loop back through the inbox — straight onto the loop's own queue when
// the loop itself sends, under the inbox lock from any other thread;
// anything else is dropped and counted. Determinism, fingerprints and the
// adversary do NOT exist here — that is the point of the boundary
// (DESIGN.md §13; batching is §15). Faults are injected above this layer,
// by runtime::FaultyTransport (runtime/fault.h).
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "runtime/runtime.h"

namespace unidir::runtime {

/// Counters for the socket path. Frame drops are counted where they
/// happen (receiver thread, loop flush), so the fields tests read after
/// a run are atomics; everything protocol-visible stays loop-confined.
struct UdpTransportStats {
  std::uint64_t frames_sent = 0;         // datagrams the kernel ACCEPTED
  std::uint64_t frames_received = 0;
  std::uint64_t frames_malformed = 0;    // datagrams decode_frame rejected
  std::uint64_t frames_no_peer = 0;      // sends to unaddressable ids
  std::uint64_t loopback_messages = 0;   // local deliveries (no socket)
  std::uint64_t frames_send_failed = 0;  // sendto/sendmmsg kernel rejections
  std::uint64_t frames_oversized = 0;    // refused at encode: > max_datagram
  std::uint64_t recv_syscalls = 0;       // recvmmsg calls that returned data
  std::uint64_t recv_timeouts = 0;       // receive wakeups with nothing to read
  std::uint64_t send_syscalls = 0;       // sendmmsg/sendto calls (incl. failed)
  bool receiver_dead = false;            // receive loop hit an unexpected errno

  /// Productive receive syscalls per datagram received — < 1.0 iff
  /// recvmmsg actually drained bursts. Idle-timeout wakeups are a
  /// constant-rate overhead, not a per-datagram cost, so they are counted
  /// separately (recv_timeouts) and excluded here.
  double recv_syscalls_per_datagram() const {
    return frames_received == 0
               ? 0.0
               : static_cast<double>(recv_syscalls) /
                     static_cast<double>(frames_received);
  }
  double send_syscalls_per_datagram() const {
    return frames_sent == 0 ? 0.0
                            : static_cast<double>(send_syscalls) /
                                  static_cast<double>(frames_sent);
  }
};

struct RealRuntimeOptions {
  /// Wall duration of one tick. 1ms by default: protocol timeout constants
  /// tuned for the simulator's "a few ticks per hop" then mean a few
  /// milliseconds, which is the right order for localhost UDP.
  std::uint64_t tick_ns = 1'000'000;

  /// "ip:port" to bind the UDP socket to (IPv4). Port 0 binds an ephemeral
  /// port — read it back with bound_port() and exchange it out of band
  /// (the loopback tests do exactly this). Empty: no socket, loopback-only.
  std::string listen;

  struct Peer {
    ProcessId id = kNoProcess;
    std::string host;
    std::uint16_t port = 0;
  };
  /// Remote id → address table. May also be filled after construction with
  /// add_peer(), as long as it happens before the loop runs.
  std::vector<Peer> peers;

  /// Largest encoded frame handed to the socket. Anything bigger is
  /// refused at encode time and counted as frames_oversized instead of
  /// dying as a silent kernel EMSGSIZE. The default is the IPv4 UDP
  /// payload maximum; tests raise it past the kernel's limit to exercise
  /// real sendmmsg failures, or lower it to make "oversized" cheap to hit.
  std::size_t max_datagram = 65507;
};

class RealRuntime final : public Runtime {
 public:
  /// Datagrams drained per receive syscall (recvmmsg burst width) and
  /// frames coalesced per sendmmsg flush.
  static constexpr std::size_t kRecvBatch = 32;
  static constexpr std::size_t kSendBatch = 64;

  explicit RealRuntime(RealRuntimeOptions options);
  ~RealRuntime() override;

  /// The UDP port actually bound (resolves listen-port 0), 0 if no socket.
  std::uint16_t bound_port() const { return bound_port_; }

  /// The socket's file descriptor (-1 when loopback-only). Exposed for
  /// harnesses that need to poke the socket itself — the receiver-death
  /// test dup2()s a non-socket over it to force a real ENOTSOCK.
  int native_handle() const { return fd_; }

  /// Registers/overwrites a remote peer address. Call before run().
  void add_peer(ProcessId id, const std::string& host, std::uint16_t port);

  /// Asks the loop to return after its current event; callable from any
  /// thread (and from signal-handler-adjacent contexts via the atomic).
  void stop();
  bool stopped() const { return stop_.load(std::memory_order_relaxed); }

  Clock& clock() override { return clock_; }
  Transport& transport() override { return transport_; }

  /// Runs until stop(), `max_events`, or quiescence — which here means
  /// nothing pending: no live timer, no queued message, and no socket to
  /// produce more. The loop checks this between events, so no handler is
  /// mid-flight. A socket-bound runtime never quiesces on its own — a
  /// datagram may always arrive; use stop() or run_until there.
  std::size_t run(std::size_t max_events) override;
  bool run_until(const std::function<bool()>& pred,
                 std::size_t max_events) override;

  RuntimeStats stats() const override;
  UdpTransportStats udp_stats() const;
  bool real_time() const override { return true; }

 private:
  class RealClock final : public Clock {
   public:
    explicit RealClock(RealRuntime& rt) : rt_(rt) {}
    Time now() const override { return rt_.now_ticks(); }
    TimerId arm(Time delay, std::function<void()> fn) override {
      return rt_.arm_timer(delay, std::move(fn));
    }
    void cancel(TimerId id) override { rt_.cancel_timer(id); }

   private:
    RealRuntime& rt_;
  };

  class UdpTransport final : public Transport {
   public:
    explicit UdpTransport(RealRuntime& rt) : rt_(rt) {}
    void send(ProcessId from, ProcessId to, Channel channel,
              Payload payload) override {
      rt_.transport_send(from, to, channel, std::move(payload));
    }
    void set_deliver(DeliverFn fn) override { rt_.deliver_ = std::move(fn); }
    void set_local(std::function<bool(ProcessId)> is_local) override {
      rt_.is_local_ = std::move(is_local);
    }
    std::size_t peer_count() const override { return rt_.peers_.size(); }

   private:
    RealRuntime& rt_;
  };

  struct TimerEntry {
    std::uint64_t deadline_ns = 0;
    std::uint64_t seq = 0;  // arm order; ties on deadline fire in arm order
    TimerId id = kNoTimer;

    bool operator<(const TimerEntry& o) const {
      // std::priority_queue is a max-heap; invert for earliest-first.
      if (deadline_ns != o.deadline_ns) return deadline_ns > o.deadline_ns;
      return seq > o.seq;
    }
  };

  struct Incoming {
    ProcessId from = kNoProcess;
    ProcessId to = kNoProcess;
    Channel channel = 0;
    Payload payload;
  };

  /// One frame staged for the next sendmmsg flush.
  struct PendingSend {
    std::uint64_t addr = 0;  // packed sockaddr_in (see real_runtime.cpp)
    Bytes frame;
  };

  std::uint64_t elapsed_ns() const;
  Time now_ticks() const;

  /// True iff the calling thread is running this runtime's loop.
  bool on_loop() const;
  TimerId arm_timer(Time delay, std::function<void()> fn);
  void cancel_timer(TimerId id);
  void transport_send(ProcessId from, ProcessId to, Channel channel,
                      Payload payload);
  void enqueue_local(Incoming in);
  /// Stages `frame` for `addr` on the loop's send queue (flushing at
  /// kSendBatch), or sends it immediately when the caller is not the loop
  /// thread.
  void stage_or_send(std::uint64_t addr, Bytes frame);
  /// One sendto with full failure accounting.
  void send_now(std::uint64_t addr, const Bytes& frame);
  void flush_sends();
  /// Counts one kernel send rejection; the first one warns.
  void count_send_failure(int err);
  void open_socket();
  void receive_loop();
  /// Executes at most one pending event (due timer first, then one
  /// drained message); returns false when nothing was due. Refills the
  /// drained queue from the inbox in one lock acquisition per burst.
  bool step();
  /// Sleeps until the next timer deadline, an inbox arrival, stop(), or a
  /// bounded slice.
  void wait_for_work();
  std::pair<bool, std::size_t> run_impl(const std::function<bool()>* pred,
                                        std::size_t max_events);

  RealRuntimeOptions options_;
  RealClock clock_;
  UdpTransport transport_;
  Transport::DeliverFn deliver_;
  std::function<bool(ProcessId)> is_local_;

  std::chrono::steady_clock::time_point epoch_;

  // Loop-thread-owned: the timer heap (cancelled entries stay behind as
  // tombstones), the live timers' functions, the drained message queue and
  // the outbound staging. Pre-run accesses synchronize via the thread
  // handoff into run().
  std::vector<TimerEntry> timer_heap_;  // via std::push_heap/std::pop_heap
  std::unordered_map<TimerId, std::function<void()>> timer_fns_;
  std::uint64_t next_timer_seq_ = 0;
  TimerId next_timer_id_ = kNoTimer;
  std::deque<Incoming> local_;
  std::vector<PendingSend> send_queue_;

  // The cross-thread handoff point, shared with the receiver and any
  // foreign sender; the runtime's one lock.
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Incoming> inbox_;

  // Work accounting; atomics so stats() may be polled mid-run.
  std::atomic<std::uint64_t> scheduled_{0};
  std::atomic<std::uint64_t> executed_{0};
  std::atomic<std::uint64_t> run_wall_ns_{0};

  int fd_ = -1;
  std::uint16_t bound_port_ = 0;
  std::thread receiver_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> running_{false};  // the loop is live (arm checks)
  std::unordered_map<ProcessId, std::uint64_t> peers_;  // id -> packed addr

  // Failure counters also gate the warnings: each kind warns when its
  // counter leaves 0.
  std::atomic<std::uint64_t> frames_sent_{0};
  std::atomic<std::uint64_t> frames_received_{0};
  std::atomic<std::uint64_t> frames_malformed_{0};
  std::atomic<std::uint64_t> frames_no_peer_{0};
  std::atomic<std::uint64_t> loopback_messages_{0};
  std::atomic<std::uint64_t> frames_send_failed_{0};
  std::atomic<std::uint64_t> frames_oversized_{0};
  std::atomic<std::uint64_t> recv_syscalls_{0};
  std::atomic<std::uint64_t> recv_timeouts_{0};
  std::atomic<std::uint64_t> send_syscalls_{0};
  std::atomic<bool> receiver_dead_{false};
};

}  // namespace unidir::runtime
