// Transport-boundary fault injection: a deterministic adversary that wraps
// ANY runtime::Transport — the sim's in-memory network or the real UDP
// backend — and mangles traffic according to a serializable FaultPlan.
//
// This is deliberately a different animal from sim::Adversary. The sim
// adversary reorders *delivery* inside the discrete-event scheduler and
// only exists on that backend; FaultyTransport sits at the *send* boundary
// both backends share, so the identical plan exercises the identical
// protocol retry/timeout machinery over loopback UDP and in the simulator.
//
// Determinism: every per-message decision (drop? duplicate? delay by how
// much? which byte to corrupt?) is drawn from the plan's own seeded
// sim::Rng, never from wall time. Under SimRuntime the whole execution is
// therefore reproducible byte-for-byte from (world seed, plan). Under
// RealRuntime the *decisions* for the k-th send are still a pure function
// of (plan.seed, k), but which send IS k-th depends on OS scheduling —
// honest nondeterminism the chaos harness copes with by gating on
// eventual outcomes, not traces (DESIGN.md §14).
//
// Corruption note: FaultyTransport flips bytes in the payload it forwards,
// which exercises the wire::Router decode boundary. It is the one fault
// injector on both backends; the UDP frame decoder below it is held by a
// test that sends garbage datagrams to a live receiver
// (tests/realtime_test.cpp).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/bytes.h"
#include "common/payload.h"
#include "common/serde.h"
#include "common/types.h"
#include "runtime/runtime.h"
#include "sim/rng.h"

namespace unidir::runtime {

/// During ticks [start, end), processes listed in different groups cannot
/// exchange messages (both directions dropped). A process appearing in NO
/// group is unrestricted — it talks to everyone, modelling a partition
/// that isolates only part of the cluster.
struct PartitionEpoch {
  Time start = 0;
  Time end = 0;
  std::vector<std::vector<ProcessId>> groups;

  void encode(serde::Writer& w) const;
  static PartitionEpoch decode(serde::Reader& r);
  bool operator==(const PartitionEpoch&) const = default;
};

/// The full fault schedule. Rates are fixed-point per-million so plans are
/// integer-exact across machines; delays are in abstract clock ticks, so a
/// plan means "a few protocol timeouts' worth of delay" on either backend.
struct FaultPlan {
  std::uint64_t seed = 1;
  std::uint32_t drop_per_million = 0;
  std::uint32_t duplicate_per_million = 0;
  std::uint32_t delay_per_million = 0;
  std::uint32_t corrupt_per_million = 0;
  Time delay_min_ticks = 1;
  Time delay_max_ticks = 1;
  std::vector<PartitionEpoch> partitions;

  bool any_faults() const {
    return drop_per_million != 0 || duplicate_per_million != 0 ||
           delay_per_million != 0 || corrupt_per_million != 0 ||
           !partitions.empty();
  }

  void encode(serde::Writer& w) const;
  static FaultPlan decode(serde::Reader& r);
  bool operator==(const FaultPlan&) const = default;

  /// Text form, one `key=value` per line — writable from stdlib-only
  /// Python (the chaos harness) and diffable in a repro report:
  ///
  ///     seed=42
  ///     drop=20000            # per million sends
  ///     duplicate=10000
  ///     delay=50000
  ///     delay_min=200         # ticks
  ///     delay_max=2000
  ///     corrupt=5000
  ///     partition=1000:5000:0,1|2,3
  ///
  /// Unknown keys, blank lines and `#` comments are ignored; a malformed
  /// value makes the whole parse fail (nullopt) rather than silently
  /// running a different experiment than the file describes.
  std::string to_text() const;
  static std::optional<FaultPlan> parse_text(std::string_view text);
};

struct FaultyTransportStats {
  std::uint64_t forwarded = 0;    ///< sends passed through untouched
  std::uint64_t dropped = 0;      ///< lost to the drop rate
  std::uint64_t partitioned = 0;  ///< lost to a partition epoch
  std::uint64_t duplicated = 0;   ///< extra copies injected
  std::uint64_t delayed = 0;      ///< sends deferred via the clock
  std::uint64_t corrupted = 0;    ///< payload bytes flipped
};

/// Decorator over an inner Transport. Construction wires nothing; the
/// World (or any owner) routes sends through it and it forwards the
/// pass-through surface (set_deliver, set_local, peer_count) to the inner
/// transport unchanged.
class FaultyTransport final : public Transport {
 public:
  /// `inner` and `clock` must outlive this object. The clock schedules
  /// delayed re-sends; delay therefore also reorders, since later sends
  /// overtake a deferred one.
  FaultyTransport(Transport& inner, Clock& clock, FaultPlan plan);

  void send(ProcessId from, ProcessId to, Channel channel,
            Payload payload) override;
  void set_deliver(DeliverFn fn) override { inner_.set_deliver(std::move(fn)); }
  void set_local(std::function<bool(ProcessId)> is_local) override {
    inner_.set_local(std::move(is_local));
  }
  std::size_t peer_count() const override { return inner_.peer_count(); }

  const FaultPlan& plan() const { return plan_; }
  const FaultyTransportStats& stats() const { return stats_; }

 private:
  bool partitioned(ProcessId a, ProcessId b, Time at) const;

  Transport& inner_;
  Clock& clock_;
  FaultPlan plan_;
  sim::Rng rng_;
  FaultyTransportStats stats_;
};

}  // namespace unidir::runtime
