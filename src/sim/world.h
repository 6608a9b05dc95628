// World: wires a runtime, a key registry and a set of processes into one
// executable distributed system.
//
// A Process is an event-driven state machine: it reacts to on_start, to
// received messages, and to timers. Protocol implementations either derive
// from Process directly or are *components* that attach handlers to a host
// process's channels (see register_channel), which lets e.g. an SMR replica
// host a broadcast component and a round driver side by side.
//
// Execution backend: the World owns a runtime::Runtime (runtime/runtime.h)
// and speaks only its Clock/Transport/run interfaces, so the same protocol
// code runs on two substrates:
//
//  * SimRuntime (the default, and what the seed-and-adversary constructor
//    builds): the deterministic discrete-event simulator. All sim-only
//    machinery — the adversary, crash/restart, transcript fingerprints,
//    record/replay — lives behind simulator()/network(), which are only
//    available on this backend.
//  * RealRuntime: wall-clock ticks and a UDP transport. A World then hosts
//    the subset of the global ProcessId space that lives in this OS
//    process (see provision/spawn_at); sends to the rest leave through the
//    runtime's peer table.
//
// Fault model: a process is `correct` unless it was crashed (the network
// silently drops its traffic from the crash point on) or marked Byzantine
// (its implementation itself misbehaves; the mark tells property checkers
// which processes the paper's guarantees quantify over).
//
// Crash-RECOVERY extension: a crashed process can be brought back with
// World::restart. The Process object survives in memory (it stands in for
// the re-executed program binary), but the model treats everything in it as
// volatile: on_recover(DurableStore&) must rebuild state from what the
// process explicitly persisted. Timers armed before the crash never fire
// after a restart — each restart bumps the process's incarnation epoch and
// set_timer checks the epoch it captured at arm time. The epoch check
// lives HERE, above the Clock interface, so it holds identically on both
// backends.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/check.h"
#include "common/payload.h"
#include "common/types.h"
#include "crypto/signature.h"
#include "obs/metrics.h"
#include "obs/tracer.h"
#include "runtime/fault.h"
#include "runtime/runtime.h"
#include "runtime/sim_runtime.h"
#include "sim/durable.h"
#include "sim/network.h"
#include "sim/rng.h"
#include "sim/simulator.h"
#include "sim/transcript.h"
#include "wire/stats.h"

namespace unidir::sim {

class World;

class Process {
 public:
  virtual ~Process() = default;
  Process() = default;
  Process(const Process&) = delete;
  Process& operator=(const Process&) = delete;

  ProcessId id() const { return id_; }
  World& world() const {
    UNIDIR_CHECK_MSG(world_ != nullptr, "process not spawned in a world");
    return *world_;
  }

  using Handler =
      std::function<void(ProcessId from, const Bytes& payload)>;

  /// Routes messages on `channel` to `handler` instead of on_message.
  /// Components use this to claim their channels. A channel may have only
  /// one handler.
  void register_channel(Channel channel, Handler handler);

 protected:
  /// Called once when the world starts (virtual time 0).
  virtual void on_start() {}

  /// Called for messages on channels with no registered handler.
  virtual void on_message(ProcessId from, Channel channel,
                          const Bytes& payload) {
    (void)from;
    (void)channel;
    (void)payload;
  }

  /// Called by World::restart after a crash: reload durable state and
  /// re-arm whatever timers the protocol needs. Volatile members must be
  /// treated as garbage — reset them here. Default: nothing is durable.
  virtual void on_recover(DurableStore& durable) { (void)durable; }

 public:
  // -- actions (public so attached components can drive their host) --------

  void send(ProcessId to, Channel channel, Bytes payload);
  /// Sends to every process except self (unless include_self).
  void broadcast(Channel channel, const Bytes& payload,
                 bool include_self = false);
  /// Schedules `fn` after `delay` ticks; suppressed if crashed by then.
  /// Returns the id cancel_timer takes.
  runtime::TimerId set_timer(Time delay, std::function<void()> fn);
  /// Cancels a timer set_timer returned; a no-op once it has fired, and
  /// on runtime::kNoTimer (Clock::cancel's contract).
  void cancel_timer(runtime::TimerId id);
  /// Records a decision in the transcript (deliver/commit/...); a no-op
  /// off the simulator (see World::transcript).
  void output(std::string tag, Bytes payload);

  const crypto::Signer& signer() const { return signer_; }
  Rng& rng() { return rng_; }

 private:
  friend class World;
  void dispatch(ProcessId from, Channel channel, const Bytes& payload);

  World* world_ = nullptr;
  ProcessId id_ = kNoProcess;
  crypto::Signer signer_;
  Rng rng_{0};
  std::map<Channel, Handler> handlers_;
};

class World {
 public:
  /// The classic form: a fully simulated world. Equivalent to handing the
  /// runtime constructor a SimRuntime built from the same seed — and
  /// bit-compatible with every pre-runtime execution.
  World(std::uint64_t seed, std::unique_ptr<Adversary> adversary);

  /// Runs this world on an explicit backend. `seed` feeds the world's own
  /// Rng stream (process rngs, workload generators); the backend's
  /// scheduling randomness, if any, is its own.
  World(std::uint64_t seed, std::unique_ptr<runtime::Runtime> rt);

  World(const World&) = delete;
  World& operator=(const World&) = delete;

  /// Creates a process of type P. Processes get ids 0,1,2,... in spawn
  /// order. Must be called before start(). Mutually exclusive with
  /// provision()/spawn_at().
  template <typename P, typename... Args>
  P& spawn(Args&&... args) {
    UNIDIR_REQUIRE_MSG(!started_, "spawn after start()");
    UNIDIR_REQUIRE_MSG(!provisioned_, "spawn on a provisioned world");
    auto p = std::make_unique<P>(std::forward<Args>(args)...);
    P& ref = *p;
    adopt(std::move(p));
    return ref;
  }

  /// Declares the GLOBAL id space [0, total) without creating processes,
  /// generating every process's key and rng stream in id order. Because
  /// key generation is deterministic (crypto/signature.h), every OS
  /// process that provisions the same total from the same seed derives the
  /// SAME key registry — the simulated PKI doubles as the distributed
  /// trusted setup. Follow with spawn_at() for the ids hosted here;
  /// unfilled slots are remote (or absent), and sends to them go to the
  /// runtime's transport.
  void provision(std::size_t total);

  /// Creates the process for global id `id` in a provisioned world.
  template <typename P, typename... Args>
  P& spawn_at(ProcessId id, Args&&... args) {
    UNIDIR_REQUIRE_MSG(provisioned_, "spawn_at needs provision() first");
    UNIDIR_REQUIRE_MSG(!started_, "spawn after start()");
    UNIDIR_REQUIRE(id < processes_.size());
    UNIDIR_REQUIRE_MSG(processes_[id] == nullptr, "id already spawned");
    auto p = std::make_unique<P>(std::forward<Args>(args)...);
    P& ref = *p;
    place(std::move(p), id);
    return ref;
  }

  /// Schedules every local process's on_start at tick 0 (in id order).
  /// Processes marked via boot_recovering get on_recover instead.
  void start();

  /// Replaces process `id`'s durable store (default: the in-memory model)
  /// with `store` — e.g. a runtime::FileDurableStore, whose already-loaded
  /// image then feeds on_recover after a real-process restart. Must precede
  /// start().
  void install_durable(ProcessId id, std::unique_ptr<DurableStore> store);

  /// Marks `id` to boot through on_recover(durable) instead of on_start —
  /// the real-process analogue of restart(): the OS process died and this
  /// incarnation must rebuild from its durable store. Must precede start().
  void boot_recovering(ProcessId id);

  /// Interposes a runtime::FaultyTransport between every send and the
  /// backend transport. Works on both backends; must precede start() so no
  /// message bypasses it. Stats surface via publish_stats() ("fault.*")
  /// and fault_stats().
  void install_fault_plan(runtime::FaultPlan plan);
  const runtime::FaultyTransportStats* fault_stats() const {
    return fault_transport_ == nullptr ? nullptr : &fault_transport_->stats();
  }

  // -- execution ------------------------------------------------------------
  /// The execution backend. Most callers want the wrappers below; direct
  /// access is for arming raw (epoch-unfiltered) timers and reading
  /// RuntimeStats.
  runtime::Runtime& runtime() { return *runtime_; }
  const runtime::Runtime& runtime() const { return *runtime_; }
  /// True when this world runs on the deterministic simulator backend.
  bool simulated() const { return sim_rt_ != nullptr; }

  /// Sim-backend-only accessors (adversary control, held messages, virtual
  /// time internals, record/replay). Throw on a real-time backend — code
  /// that needs them is by definition sim-only.
  Simulator& simulator();
  const Simulator& simulator() const;
  Network& network();
  const Network& network() const;

  crypto::KeyRegistry& keys() { return keys_; }
  const crypto::KeyRegistry& keys() const { return keys_; }
  Rng& rng() { return rng_; }
  Time now() const { return runtime_->clock().now(); }

  /// Routes one message: in-memory via the sim network or loopback, or out
  /// a UDP socket — the runtime decides per destination. The single choke
  /// point every Process::send, broadcast and wire helper goes through.
  void send_message(ProcessId from, ProcessId to, Channel channel,
                    Payload payload);
  void send_message(ProcessId from, ProcessId to, Channel channel,
                    Bytes payload) {
    send_message(from, to, channel, Payload(std::move(payload)));
  }

  /// Per-channel / per-message-type wire counters, maintained by the typed
  /// routers (see wire/router.h). Lives next to the runtime and network
  /// stats so experiments read all observability from one place.
  wire::StatsHub& wire_stats() { return wire_stats_; }
  const wire::StatsHub& wire_stats() const { return wire_stats_; }

  // -- observability ----------------------------------------------------
  /// Unified registry: protocols record histograms/counters here directly;
  /// publish_stats() folds the layer stats structs in on demand.
  obs::MetricsRegistry& metrics() { return metrics_; }
  const obs::MetricsRegistry& metrics() const { return metrics_; }

  /// Virtual-time tracer, shared by the network and the protocols. Off by
  /// default; call tracer().enable() before start() to record.
  obs::Tracer& tracer() { return tracer_; }
  const obs::Tracer& tracer() const { return tracer_; }
  /// Publishes the backend / network / signature / wire counters into the
  /// registry (set-semantics, so it is safe to call repeatedly). Under the
  /// sim backend, wall-clock figures are deliberately excluded: a snapshot
  /// of one seed must be identical across runs. Under a real-time backend
  /// that guarantee is void anyway, so honest wall-clock rates (runtime.*)
  /// are published too.
  void publish_stats();

  /// Runs until the event queue drains (all messages delivered or held).
  /// Returns events executed. On a socket-bound real-time backend the
  /// queue never provably drains; use run_until or Runtime::stop there.
  std::size_t run_to_quiescence(
      std::size_t max_events = Simulator::kDefaultEventCap);
  bool run_until(const std::function<bool()>& pred,
                 std::size_t max_events = Simulator::kDefaultEventCap);

  // -- membership & faults ----------------------------------------------
  /// Size of the GLOBAL id space (provisioned total, or processes spawned).
  std::size_t size() const { return processes_.size(); }
  /// True iff `id` names a process hosted in this World (always, for a
  /// plain spawned world; the filled slots, for a provisioned one).
  bool is_local(ProcessId id) const {
    return id < processes_.size() && processes_[id] != nullptr;
  }
  Process& process(ProcessId id);
  crypto::KeyId key_of(ProcessId id) const;
  /// The process id owning a key, or kNoProcess.
  ProcessId owner_of(crypto::KeyId key) const;

  void crash(ProcessId id);
  bool crashed(ProcessId id) const;
  /// Brings a crashed process back: clears the crash flag, bumps the
  /// incarnation epoch (cancelling pre-crash timers) and synchronously runs
  /// the process's on_recover against its DurableStore.
  void restart(ProcessId id);
  /// The per-process persistent store; survives restart().
  DurableStore& durable(ProcessId id);
  /// Starts at 0 and increments on every restart().
  std::uint64_t incarnation(ProcessId id) const;
  /// Marks a process as Byzantine for property checkers. The process's own
  /// implementation is responsible for actually misbehaving.
  void mark_byzantine(ProcessId id);
  bool byzantine(ProcessId id) const;
  bool correct(ProcessId id) const { return !crashed(id) && !byzantine(id); }
  std::vector<ProcessId> correct_ids() const;
  std::size_t fault_count() const;

  /// What a process received and output, in order. Recorded on the
  /// simulator backend only: checkers, fingerprints and replay read it
  /// there, while a real-time process would grow it without bound.
  Transcript& transcript(ProcessId id);
  const Transcript& transcript(ProcessId id) const;

 private:
  friend class Process;
  void adopt(std::unique_ptr<Process> p);
  void place(std::unique_ptr<Process> p, ProcessId id);
  void deliver(ProcessId from, ProcessId to, Channel channel,
               const Payload& payload);

  Rng rng_;
  std::unique_ptr<runtime::Runtime> runtime_;
  runtime::SimRuntime* sim_rt_ = nullptr;  // non-null iff sim backend
  // Send path: the backend transport, or the fault decorator wrapping it.
  std::unique_ptr<runtime::FaultyTransport> fault_transport_;
  runtime::Transport* transport_ = nullptr;
  wire::StatsHub wire_stats_;
  obs::MetricsRegistry metrics_;
  obs::Tracer tracer_;
  crypto::KeyRegistry keys_;
  std::vector<std::unique_ptr<Process>> processes_;
  std::vector<Transcript> transcripts_;
  std::vector<crypto::KeyId> process_keys_;
  std::vector<std::unique_ptr<DurableStore>> durables_;
  std::vector<bool> boot_recovering_;
  std::vector<std::uint64_t> epochs_;
  std::vector<Time> crashed_at_;
  std::vector<bool> crashed_;
  std::vector<bool> byzantine_;
  // Credentials generated up front by provision(), consumed by spawn_at.
  std::vector<crypto::Signer> provisioned_signers_;
  std::vector<Rng> provisioned_rngs_;
  bool provisioned_ = false;
  bool started_ = false;
};

}  // namespace unidir::sim
