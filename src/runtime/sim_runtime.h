// SimRuntime: the deterministic discrete-event simulator behind the
// runtime::Runtime interface.
//
// This is a thin adapter, by design: the Simulator's slab-heap/time-wheel
// event queue and the adversary-scheduled Network are untouched, so every
// fingerprint, transcript and record/replay trace produced through this
// backend is byte-identical to what the pre-runtime World produced. The
// only work added here is (a) wrapping timer closures for the cancel()
// contract and (b) wall-time accounting around the run loops — which moved
// HERE from SimulatorStats precisely so the simulator's own counters stay
// deterministic (see runtime.h and DESIGN.md §13).
//
// Sim-only features (the adversary, held-message control, the decision
// observer, NetworkStats) are reached through simulator()/network(); code
// that uses them is by definition sim-only and may not run on RealRuntime.
#pragma once

#include <memory>
#include <utility>
#include <vector>

#include "runtime/runtime.h"
#include "sim/network.h"
#include "sim/rng.h"
#include "sim/simulator.h"

namespace unidir::runtime {

class SimRuntime final : public Runtime {
 public:
  /// `seed` feeds the network's scheduling Rng exactly as the pre-runtime
  /// World constructor did (seed ^ A5A5…), so worlds built over an
  /// explicit SimRuntime reproduce legacy executions bit-for-bit.
  SimRuntime(std::uint64_t seed, std::unique_ptr<sim::Adversary> adversary);

  sim::Simulator& simulator() { return simulator_; }
  const sim::Simulator& simulator() const { return simulator_; }
  sim::Network& network() { return network_; }
  const sim::Network& network() const { return network_; }

  Clock& clock() override { return clock_; }
  Transport& transport() override { return transport_; }

  std::size_t run(std::size_t max_events) override;
  bool run_until(const std::function<bool()>& pred,
                 std::size_t max_events) override;

  RuntimeStats stats() const override;
  bool real_time() const override { return false; }

 private:
  class SimClock final : public Clock {
   public:
    explicit SimClock(sim::Simulator& simulator) : simulator_(simulator) {}

    Time now() const override { return simulator_.now(); }
    TimerId arm(Time delay, std::function<void()> fn) override;
    void cancel(TimerId id) override;

   private:
    sim::Simulator& simulator_;
    TimerId next_timer_ = kNoTimer;
    /// done_[id]: timer `id` has fired or been cancelled. Slot 0 is
    /// kNoTimer, never armed. One bit per timer ever armed and never
    /// shrunk: about 12.5 KB for a scenario that arms 100k timers.
    std::vector<bool> done_{true};
  };

  class SimTransport final : public Transport {
   public:
    explicit SimTransport(sim::Network& network) : network_(network) {}

    void send(ProcessId from, ProcessId to, Channel channel,
              Payload payload) override {
      network_.send(from, to, channel, std::move(payload));
    }

    void set_deliver(DeliverFn fn) override;

   private:
    sim::Network& network_;
  };

  sim::Simulator simulator_;
  sim::Network network_;
  SimClock clock_;
  SimTransport transport_;
  std::uint64_t run_wall_ns_ = 0;
};

}  // namespace unidir::runtime
