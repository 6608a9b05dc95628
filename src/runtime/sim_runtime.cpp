#include "runtime/sim_runtime.h"

#include <chrono>

namespace unidir::runtime {

namespace {

std::uint64_t elapsed_ns(std::chrono::steady_clock::time_point t0) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
}

}  // namespace

SimRuntime::SimRuntime(std::uint64_t seed,
                       std::unique_ptr<sim::Adversary> adversary)
    : network_(simulator_, sim::Rng(seed ^ 0xA5A5A5A5A5A5A5A5ULL),
               std::move(adversary)),
      clock_(simulator_),
      transport_(network_) {}

// ---- SimClock --------------------------------------------------------------

TimerId SimRuntime::SimClock::arm(Time delay, std::function<void()> fn) {
  const TimerId id = ++next_timer_;
  done_.push_back(false);
  // The wrapper (this + id + a std::function) fits InlineFn's 64-byte
  // inline storage, so the simulator's no-allocation scheduling fast path
  // is preserved; the event ORDER is exactly what a direct after() call
  // would produce, which is what keeps fingerprints stable.
  simulator_.after(delay, [this, id, fn = std::move(fn)]() {
    if (done_[id]) return;
    done_[id] = true;
    fn();
  });
  return id;
}

void SimRuntime::SimClock::cancel(TimerId id) {
  // The simulator has no queue removal (its slab recycles slots by fire
  // order); a cancelled timer stays queued and is swallowed when it fires.
  // A fired, cancelled or unknown id (kNoTimer included) changes nothing.
  if (id < done_.size()) done_[id] = true;
}

// ---- SimTransport ----------------------------------------------------------

void SimRuntime::SimTransport::set_deliver(DeliverFn fn) {
  network_.set_deliver([fn = std::move(fn)](const sim::Envelope& env) {
    fn(env.from, env.to, env.channel, env.payload);
  });
}

// ---- run loops -------------------------------------------------------------

std::size_t SimRuntime::run(std::size_t max_events) {
  const auto t0 = std::chrono::steady_clock::now();
  const std::size_t n = simulator_.run(max_events);
  run_wall_ns_ += elapsed_ns(t0);
  return n;
}

bool SimRuntime::run_until(const std::function<bool()>& pred,
                           std::size_t max_events) {
  const auto t0 = std::chrono::steady_clock::now();
  const bool held = simulator_.run_until(pred, max_events);
  run_wall_ns_ += elapsed_ns(t0);
  return held;
}

RuntimeStats SimRuntime::stats() const {
  RuntimeStats s;
  s.scheduled = simulator_.stats().scheduled;
  s.executed = simulator_.stats().executed;
  s.run_wall_ns = run_wall_ns_;
  return s;
}

}  // namespace unidir::runtime
