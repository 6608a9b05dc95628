// Batched implementation of the real-time backend. Layout:
//
//   timers      — binary heap + id->fn map; cancel leaves a tombstone in
//                 the heap and erases the fn immediately.
//   transport   — peer sends encode to a frame, refuse oversized ones,
//                 maybe corrupt (chaos), then stage on the loop's send
//                 queue for a sendmmsg flush; local sends go to the loop's
//                 own queue (from the loop thread: no lock at all) or the
//                 inbox (from any other thread).
//   receiver    — one thread draining recvmmsg bursts into the inbox, one
//                 lock acquisition per burst.
//   loop        — run_impl is the one event-loop body, on the caller's
//                 thread.
//
// Quiescence (loopback-only runtimes) reads loop-owned state between
// events: step() found no due timer and emptied both the drained queue and
// the inbox, and no timer is live. No handler is mid-flight there — the
// loop is the only thread that runs them.
#ifndef _GNU_SOURCE
#define _GNU_SOURCE 1  // recvmmsg/sendmmsg/MSG_WAITFORONE on glibc
#endif

#include "runtime/real_runtime.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <memory>

#include "common/check.h"
#include "common/log.h"
#include "runtime/frame.h"

namespace unidir::runtime {

namespace {

/// Longest the loop or the receiver block before re-checking stop()/pred.
constexpr std::uint64_t kMaxWaitSliceNs = 50'000'000;  // 50ms

/// Largest UDP datagram we will ever read; also the per-slot receive
/// buffer size for recvmmsg bursts.
constexpr std::size_t kRecvBufBytes = 65536;

/// Packs an IPv4 (address, port) pair — both in network byte order as
/// sockaddr_in wants them — into one map value, so the header needs no
/// socket includes.
std::uint64_t pack_addr(std::uint32_t s_addr_be, std::uint16_t port_be) {
  return (static_cast<std::uint64_t>(s_addr_be) << 16) |
         static_cast<std::uint64_t>(port_be);
}

sockaddr_in unpack_addr(std::uint64_t packed) {
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_addr.s_addr = static_cast<std::uint32_t>(packed >> 16);
  sa.sin_port = static_cast<std::uint16_t>(packed & 0xFFFF);
  return sa;
}

std::uint64_t resolve_ipv4(const std::string& host, std::uint16_t port) {
  in_addr addr{};
  UNIDIR_REQUIRE_MSG(inet_pton(AF_INET, host.c_str(), &addr) == 1,
                     "RealRuntime: not an IPv4 address: " + host);
  return pack_addr(addr.s_addr, htons(port));
}

/// splitmix64 step — the corrupt_tx decision stream. Self-contained so the
/// runtime layer does not pull in sim/rng.h.
std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

/// Splits "ip:port"; throws on anything else.
std::pair<std::string, std::uint16_t> split_host_port(const std::string& s) {
  const std::size_t colon = s.rfind(':');
  UNIDIR_REQUIRE_MSG(colon != std::string::npos && colon + 1 < s.size(),
                     "RealRuntime: expected ip:port, got '" + s + "'");
  const unsigned long port = std::stoul(s.substr(colon + 1));
  UNIDIR_REQUIRE_MSG(port <= 65535, "RealRuntime: port out of range in " + s);
  return {s.substr(0, colon), static_cast<std::uint16_t>(port)};
}

/// Which runtime's loop (if any) the current thread is executing. Keyed by
/// runtime pointer because one OS process routinely hosts several
/// RealRuntimes (every realtime test does).
thread_local const void* tl_loop = nullptr;

struct LoopScope {
  const void* prev;
  explicit LoopScope(const void* rt) : prev(tl_loop) { tl_loop = rt; }
  ~LoopScope() { tl_loop = prev; }
};

}  // namespace

RealRuntime::RealRuntime(RealRuntimeOptions options)
    : options_(std::move(options)),
      clock_(*this),
      transport_(*this),
      epoch_(std::chrono::steady_clock::now()) {
  UNIDIR_REQUIRE_MSG(options_.tick_ns > 0, "tick_ns must be positive");
  // Two independent corrupt streams: the loop's, and a fixed offset of it
  // for other threads' sends. Both are pure functions of corrupt_seed, so
  // a chaos run replays the same corruptions.
  corrupt_rng_ = options_.corrupt_seed;
  foreign_corrupt_rng_ = options_.corrupt_seed + 0x9E3779B97F4A7C15ull * 64;
  for (const RealRuntimeOptions::Peer& p : options_.peers)
    add_peer(p.id, p.host, p.port);
  if (!options_.listen.empty()) {
    open_socket();
    receiver_ = std::thread([this] { receive_loop(); });
  }
}

RealRuntime::~RealRuntime() {
  stop();
  if (receiver_.joinable()) receiver_.join();
  if (fd_ >= 0) ::close(fd_);
}

void RealRuntime::stop() {
  stop_.store(true, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mu_);
  cv_.notify_all();
}

void RealRuntime::add_peer(ProcessId id, const std::string& host,
                           std::uint16_t port) {
  peers_[id] = resolve_ipv4(host, port);
}

std::uint64_t RealRuntime::elapsed_ns() const {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count());
}

Time RealRuntime::now_ticks() const { return elapsed_ns() / options_.tick_ns; }

// ---- timers ----------------------------------------------------------------

bool RealRuntime::on_loop() const { return tl_loop == this; }

TimerId RealRuntime::arm_timer(Time delay, std::function<void()> fn) {
  UNIDIR_REQUIRE(fn != nullptr);
  if (running_.load(std::memory_order_relaxed)) {
    // Timer structures are loop-thread-owned: while the loop runs, only
    // its own handlers may touch them. Pre-run arms (World::start, bench
    // schedule injection) synchronize via the thread handoff.
    UNIDIR_REQUIRE_MSG(on_loop(),
                       "RealRuntime: timer arm from a foreign thread while "
                       "the loop runs");
  }
  const TimerId id = ++next_timer_id_;
  timer_fns_.emplace(id, std::move(fn));
  timer_heap_.push_back(TimerEntry{elapsed_ns() + delay * options_.tick_ns,
                                   next_timer_seq_++, id});
  std::push_heap(timer_heap_.begin(), timer_heap_.end());
  scheduled_.fetch_add(1, std::memory_order_relaxed);
  return id;
}

void RealRuntime::cancel_timer(TimerId id) {
  if (id == kNoTimer) return;
  if (running_.load(std::memory_order_relaxed)) {
    UNIDIR_REQUIRE_MSG(on_loop(),
                       "RealRuntime: timer cancel from a foreign thread "
                       "while the loop runs");
  }
  // The heap entry stays behind as a tombstone; step() skips entries whose
  // function is gone, and quiescence counts only live functions.
  timer_fns_.erase(id);
}

// ---- transport -------------------------------------------------------------

void RealRuntime::transport_send(ProcessId from, ProcessId to, Channel channel,
                                 Payload payload) {
  const auto peer = peers_.find(to);
  if (peer != peers_.end()) {
    UNIDIR_CHECK_MSG(fd_ >= 0, "RealRuntime: peer send without a socket");
    Bytes frame = encode_frame(from, to, channel,
                               ByteSpan(payload.data(), payload.size()));
    if (frame.size() > options_.max_datagram) {
      // Refused here, where the channel is still known, instead of dying
      // as a silent kernel EMSGSIZE deep in a sendmmsg burst. Large frames
      // need the TCP transport (ROADMAP item 3); until then the sender's
      // retransmission logic sees the loss honestly.
      frames_oversized_.fetch_add(1, std::memory_order_relaxed);
      std::lock_guard<std::mutex> lock(warn_mu_);
      if (warned_oversized_.insert(channel).second) {
        UNIDIR_WARN("RealRuntime: dropping "
                    << frame.size() << "-byte frame on channel " << channel
                    << " (> max_datagram " << options_.max_datagram
                    << "); fragmenting needs the TCP transport — ROADMAP "
                       "item 3. Further drops on this channel are silent.");
      }
      return;
    }
    if (options_.corrupt_tx_per_million != 0 && !frame.empty()) {
      std::unique_lock<std::mutex> foreign_lock;
      std::uint64_t* rng = nullptr;
      if (on_loop()) {
        rng = &corrupt_rng_;
      } else {
        foreign_lock = std::unique_lock<std::mutex>(foreign_mu_);
        rng = &foreign_corrupt_rng_;
      }
      if (splitmix64(*rng) % 1'000'000 < options_.corrupt_tx_per_million) {
        // One flipped byte anywhere in the encoded frame: magic, varint
        // header or payload — the peer's decode_frame must reject it (or,
        // for a payload hit that survives framing, the wire::Router must).
        const std::uint64_t roll = splitmix64(*rng);
        frame[roll % frame.size()] ^= std::uint8_t(1 + (roll >> 32) % 255);
        frames_corrupt_tx_.fetch_add(1, std::memory_order_relaxed);
      }
    }
    stage_or_send(peer->second, std::move(frame));
    return;
  }
  if (is_local_ && is_local_(to)) {
    loopback_messages_.fetch_add(1, std::memory_order_relaxed);
    enqueue_local(Incoming{from, to, channel, std::move(payload)});
    return;
  }
  frames_no_peer_.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(warn_mu_);
  if (warned_no_peer_.insert(to).second) {
    UNIDIR_WARN("RealRuntime: dropping send to unaddressable process "
                << to << " (no peer entry, not local)");
  }
}

void RealRuntime::enqueue_local(Incoming in) {
  scheduled_.fetch_add(1, std::memory_order_relaxed);
  if (on_loop()) {
    // Delivery from the loop's own thread: the drained queue is ours, no
    // lock, no wakeup (we are plainly awake).
    local_.push_back(std::move(in));
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    inbox_.push_back(std::move(in));
  }
  cv_.notify_one();
}

// ---- outbound batching -----------------------------------------------------

void RealRuntime::stage_or_send(std::uint64_t addr, Bytes frame) {
  if (!on_loop()) {
    // Not on the loop thread (pre-run or foreign sends): one syscall now,
    // with the same failure accounting as a flush.
    send_now(addr, frame);
    return;
  }
  send_queue_.push_back(PendingSend{addr, std::move(frame)});
  if (send_queue_.size() >= kSendBatch) flush_sends();
}

void RealRuntime::send_now(std::uint64_t addr, const Bytes& frame) {
  const sockaddr_in sa = unpack_addr(addr);
  send_syscalls_.fetch_add(1, std::memory_order_relaxed);
  const ssize_t r =
      ::sendto(fd_, frame.data(), frame.size(), 0,
               reinterpret_cast<const sockaddr*>(&sa), sizeof(sa));
  if (r < 0) {
    frames_send_failed_.fetch_add(1, std::memory_order_relaxed);
    note_send_failure(errno);
    return;
  }
  frames_sent_.fetch_add(1, std::memory_order_relaxed);
}

void RealRuntime::flush_sends() {
  if (send_queue_.empty()) return;
  // Scratch is thread_local (each loop is its own thread) so the header
  // stays free of socket types and the hot path free of allocs.
  static thread_local std::vector<mmsghdr> msgs;
  static thread_local std::vector<iovec> iovs;
  static thread_local std::vector<sockaddr_in> addrs;
  std::size_t i = 0;
  while (i < send_queue_.size()) {
    const std::size_t n = std::min(send_queue_.size() - i, kSendBatch);
    msgs.assign(n, mmsghdr{});
    iovs.resize(n);
    addrs.resize(n);
    for (std::size_t k = 0; k < n; ++k) {
      PendingSend& p = send_queue_[i + k];
      addrs[k] = unpack_addr(p.addr);
      iovs[k].iov_base = p.frame.data();
      iovs[k].iov_len = p.frame.size();
      msgs[k].msg_hdr.msg_name = &addrs[k];
      msgs[k].msg_hdr.msg_namelen = sizeof(sockaddr_in);
      msgs[k].msg_hdr.msg_iov = &iovs[k];
      msgs[k].msg_hdr.msg_iovlen = 1;
    }
    send_syscalls_.fetch_add(1, std::memory_order_relaxed);
    const int sent = ::sendmmsg(fd_, msgs.data(), static_cast<unsigned>(n), 0);
    if (sent <= 0) {
      // sendmmsg fails (-1) only when the FIRST datagram is rejected;
      // count that one, skip it, and keep flushing the rest. A mid-batch
      // rejection surfaces as a short count here and as the -1 of the
      // next iteration's first slot — so every loss is counted exactly
      // once, never attributed to frames_sent_.
      frames_send_failed_.fetch_add(1, std::memory_order_relaxed);
      note_send_failure(sent < 0 ? errno : EIO);
      ++i;
      continue;
    }
    frames_sent_.fetch_add(static_cast<std::uint64_t>(sent),
                           std::memory_order_relaxed);
    i += static_cast<std::size_t>(sent);
  }
  send_queue_.clear();
}

void RealRuntime::note_send_failure(int err) {
  std::lock_guard<std::mutex> lock(warn_mu_);
  if (warned_send_errno_.insert(err).second) {
    UNIDIR_WARN("RealRuntime: datagram send failed: "
                << std::strerror(err) << " (errno " << err
                << "); counting frames_send_failed, further occurrences "
                   "of this errno are silent");
  }
}

// ---- socket ----------------------------------------------------------------

void RealRuntime::open_socket() {
  const auto [host, port] = split_host_port(options_.listen);
  fd_ = ::socket(AF_INET, SOCK_DGRAM, 0);
  UNIDIR_REQUIRE_MSG(fd_ >= 0, "RealRuntime: socket() failed: " +
                                   std::string(std::strerror(errno)));
  sockaddr_in sa = unpack_addr(resolve_ipv4(host, port));
  UNIDIR_REQUIRE_MSG(
      ::bind(fd_, reinterpret_cast<const sockaddr*>(&sa), sizeof(sa)) == 0,
      "RealRuntime: bind(" + options_.listen +
          ") failed: " + std::string(std::strerror(errno)));
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  UNIDIR_CHECK(::getsockname(fd_, reinterpret_cast<sockaddr*>(&bound), &len) ==
               0);
  bound_port_ = ntohs(bound.sin_port);
  // Bounded receive timeout: the receiver thread wakes periodically to
  // check stop() — the portable way to unblock a UDP receive.
  timeval tv{};
  tv.tv_usec = static_cast<suseconds_t>(kMaxWaitSliceNs / 1000);
  (void)::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  // Saturation benchmarks overflow the default buffers long before the
  // loops fall behind; ask for more (best-effort — the kernel clamps to
  // net.core.{r,w}mem_max, and UDP stays lossy either way).
  const int bufsz = 4 * 1024 * 1024;
  (void)::setsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &bufsz, sizeof(bufsz));
  (void)::setsockopt(fd_, SOL_SOCKET, SO_SNDBUF, &bufsz, sizeof(bufsz));
}

void RealRuntime::receive_loop() {
  // One slab of kRecvBatch slots, left uninitialised: the kernel writes
  // msg_len bytes into a slot and decode_frame reads only those, so
  // zero-filling the whole 2 MiB would only cost time and resident pages.
  const std::unique_ptr<std::uint8_t[]> slab(
      new std::uint8_t[kRecvBatch * kRecvBufBytes]);
  auto slot = [&slab](std::size_t k) {
    return slab.get() + k * kRecvBufBytes;
  };
  std::array<mmsghdr, kRecvBatch> msgs{};
  std::array<iovec, kRecvBatch> iovs{};
  for (std::size_t k = 0; k < kRecvBatch; ++k) {
    iovs[k].iov_base = slot(k);
    iovs[k].iov_len = kRecvBufBytes;
    msgs[k].msg_hdr.msg_iov = &iovs[k];
    msgs[k].msg_hdr.msg_iovlen = 1;
  }
  std::vector<Incoming> burst;
  burst.reserve(kRecvBatch);
  while (!stopped()) {
    // Block (bounded by SO_RCVTIMEO) for the first datagram, then take
    // whatever else is already queued — one syscall per burst.
    const int got = ::recvmmsg(fd_, msgs.data(),
                               static_cast<unsigned>(kRecvBatch),
                               MSG_WAITFORONE, nullptr);
    if (got < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) {
        recv_timeouts_.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      if (stopped()) break;
      UNIDIR_WARN("RealRuntime: receive failed: "
                  << std::strerror(errno) << " (errno " << errno
                  << "); receiver thread exiting — this runtime is DEAF. "
                     "Poll stats().receiver_dead.");
      receiver_dead_.store(true, std::memory_order_relaxed);
      break;
    }
    if (got == 0) continue;
    recv_syscalls_.fetch_add(1, std::memory_order_relaxed);
    for (std::size_t k = 0; k < static_cast<std::size_t>(got); ++k) {
      auto frame = decode_frame(ByteSpan(slot(k), msgs[k].msg_len));
      if (!frame) {
        frames_malformed_.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      burst.push_back(Incoming{frame->from, frame->to, frame->channel,
                               Payload(std::move(frame->payload))});
    }
    if (burst.empty()) continue;
    frames_received_.fetch_add(burst.size(), std::memory_order_relaxed);
    scheduled_.fetch_add(burst.size(), std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (Incoming& in : burst) inbox_.push_back(std::move(in));
    }
    cv_.notify_one();
    burst.clear();
  }
}

// ---- event loop ------------------------------------------------------------

bool RealRuntime::step() {
  // Due timers first (they were armed strictly earlier than any message
  // that could race them), skipping cancel tombstones.
  const std::uint64_t now_ns = elapsed_ns();
  while (!timer_heap_.empty()) {
    const TimerEntry top = timer_heap_.front();
    const auto fn_it = timer_fns_.find(top.id);
    if (fn_it == timer_fns_.end()) {  // cancelled: drop silently
      std::pop_heap(timer_heap_.begin(), timer_heap_.end());
      timer_heap_.pop_back();
      continue;
    }
    if (top.deadline_ns > now_ns) break;
    std::pop_heap(timer_heap_.begin(), timer_heap_.end());
    timer_heap_.pop_back();
    std::function<void()> fn = std::move(fn_it->second);
    timer_fns_.erase(fn_it);
    executed_.fetch_add(1, std::memory_order_relaxed);
    fn();
    return true;
  }
  if (local_.empty()) {
    // Drain the whole inbox in one lock acquisition; the burst is then
    // consumed lock-free from the loop thread's own queue.
    std::lock_guard<std::mutex> lock(mu_);
    local_.swap(inbox_);
  }
  if (local_.empty()) return false;
  Incoming in = std::move(local_.front());
  local_.pop_front();
  executed_.fetch_add(1, std::memory_order_relaxed);
  if (deliver_) deliver_(in.from, in.to, in.channel, in.payload);
  return true;
}

void RealRuntime::wait_for_work() {
  std::uint64_t wait_ns = kMaxWaitSliceNs;
  if (!timer_heap_.empty()) {
    const std::uint64_t now_ns = elapsed_ns();
    const std::uint64_t deadline = timer_heap_.front().deadline_ns;
    wait_ns = deadline <= now_ns ? 0 : std::min(deadline - now_ns, wait_ns);
  }
  if (wait_ns == 0) return;
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait_for(lock, std::chrono::nanoseconds(wait_ns),
               [this] { return !inbox_.empty() || stopped(); });
}

std::pair<bool, std::size_t> RealRuntime::run_impl(
    const std::function<bool()>* pred, std::size_t max_events) {
  UNIDIR_REQUIRE_MSG(!running_.exchange(true),
                     "RealRuntime: nested or concurrent run");
  LoopScope scope(this);
  const auto t0 = std::chrono::steady_clock::now();
  bool held = false;
  std::size_t n = 0;
  for (;;) {
    if (pred && (held = (*pred)())) break;
    if (stopped() || n >= max_events) break;
    if (step()) {
      ++n;
      continue;
    }
    // Out of immediately-due events: a batch boundary. Flush staged sends
    // before any wait so coalescing never adds idle latency.
    flush_sends();
    if (fd_ < 0 && timer_fns_.empty()) {
      // Loopback-only, the drained queue and the inbox just came up empty,
      // and no timer is live — quiesced.
      if (pred) held = (*pred)();
      break;
    }
    wait_for_work();
  }
  flush_sends();
  run_wall_ns_.fetch_add(
      static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - t0)
              .count()),
      std::memory_order_relaxed);
  running_.store(false, std::memory_order_relaxed);
  return {held, n};
}

std::size_t RealRuntime::run(std::size_t max_events) {
  return run_impl(nullptr, max_events).second;
}

bool RealRuntime::run_until(const std::function<bool()>& pred,
                            std::size_t max_events) {
  UNIDIR_REQUIRE(pred != nullptr);
  return run_impl(&pred, max_events).first;
}

// ---- stats -----------------------------------------------------------------

RuntimeStats RealRuntime::stats() const {
  RuntimeStats out;
  out.scheduled = scheduled_.load(std::memory_order_relaxed);
  out.executed = executed_.load(std::memory_order_relaxed);
  out.run_wall_ns = run_wall_ns_.load(std::memory_order_relaxed);
  out.frames_send_failed =
      frames_send_failed_.load(std::memory_order_relaxed);
  out.frames_oversized = frames_oversized_.load(std::memory_order_relaxed);
  out.receiver_dead = receiver_dead_.load(std::memory_order_relaxed);
  return out;
}

UdpTransportStats RealRuntime::udp_stats() const {
  UdpTransportStats s;
  s.frames_sent = frames_sent_.load(std::memory_order_relaxed);
  s.frames_received = frames_received_.load(std::memory_order_relaxed);
  s.frames_malformed = frames_malformed_.load(std::memory_order_relaxed);
  s.frames_no_peer = frames_no_peer_.load(std::memory_order_relaxed);
  s.loopback_messages = loopback_messages_.load(std::memory_order_relaxed);
  s.frames_corrupt_tx = frames_corrupt_tx_.load(std::memory_order_relaxed);
  s.frames_send_failed = frames_send_failed_.load(std::memory_order_relaxed);
  s.frames_oversized = frames_oversized_.load(std::memory_order_relaxed);
  s.recv_syscalls = recv_syscalls_.load(std::memory_order_relaxed);
  s.recv_timeouts = recv_timeouts_.load(std::memory_order_relaxed);
  s.send_syscalls = send_syscalls_.load(std::memory_order_relaxed);
  s.receiver_dead = receiver_dead_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace unidir::runtime
