#include "sim/world.h"

#include <algorithm>

namespace unidir::sim {

// ---- Process ---------------------------------------------------------------

void Process::register_channel(Channel channel, Handler handler) {
  UNIDIR_REQUIRE(handler != nullptr);
  auto [it, inserted] = handlers_.emplace(channel, std::move(handler));
  (void)it;
  UNIDIR_REQUIRE_MSG(inserted, "channel already has a handler");
}

void Process::send(ProcessId to, Channel channel, Bytes payload) {
  world().send_message(id_, to, channel, std::move(payload));
}

void Process::broadcast(Channel channel, const Bytes& payload,
                        bool include_self) {
  World& w = world();
  // Wrap once; every per-link send below shares the same buffer.
  const Payload shared = Payload::copy_of(payload);
  for (ProcessId p = 0; p < w.size(); ++p) {
    if (p == id_ && !include_self) continue;
    w.send_message(id_, p, channel, shared);
  }
}

void Process::set_timer(Time delay, std::function<void()> fn) {
  World& w = world();
  const ProcessId self = id_;
  // Capture the incarnation at arm time: a timer armed before a crash must
  // not fire into the recovered incarnation (its closure references state
  // the model says was lost). The filter sits above the Clock interface so
  // the guarantee is backend-independent.
  //
  // arm_for, not clock().arm: it names the timer's owner process, which a
  // decorating runtime (perfbench's TracedRuntime) uses to attribute spans.
  const std::uint64_t epoch = w.incarnation(self);
  w.runtime().arm_for(self, delay, [&w, self, epoch, fn = std::move(fn)]() {
    if (!w.crashed(self) && w.incarnation(self) == epoch) fn();
  });
}

void Process::output(std::string tag, Bytes payload) {
  if (!world().simulated()) return;  // transcripts are sim-only
  world().transcript(id_).record_output(std::move(tag), std::move(payload));
}

void Process::dispatch(ProcessId from, Channel channel, const Bytes& payload) {
  auto it = handlers_.find(channel);
  if (it != handlers_.end()) {
    it->second(from, payload);
    return;
  }
  on_message(from, channel, payload);
}

// ---- World -----------------------------------------------------------------

World::World(std::uint64_t seed, std::unique_ptr<Adversary> adversary)
    : World(seed, std::make_unique<runtime::SimRuntime>(seed,
                                                        std::move(adversary))) {
}

World::World(std::uint64_t seed, std::unique_ptr<runtime::Runtime> rt)
    : rng_(seed), runtime_(std::move(rt)) {
  UNIDIR_REQUIRE(runtime_ != nullptr);
  sim_rt_ = dynamic_cast<runtime::SimRuntime*>(runtime_.get());
  transport_ = &runtime_->transport();
  runtime_->transport().set_deliver(
      [this](ProcessId from, ProcessId to, Channel channel,
             const Payload& payload) { deliver(from, to, channel, payload); });
  runtime_->transport().set_local([this](ProcessId p) { return is_local(p); });
  if (sim_rt_ != nullptr) {
    sim_rt_->network().set_tracer(&tracer_);
    // Tolerate out-of-range ids here (a Byzantine process can address
    // anyone); deliver() drops them.
    sim_rt_->network().set_crashed([this](ProcessId p) {
      return p < crashed_.size() && crashed_[p];
    });
  }
}

Simulator& World::simulator() {
  UNIDIR_CHECK_MSG(sim_rt_ != nullptr, "simulator(): not a sim-backed world");
  return sim_rt_->simulator();
}

const Simulator& World::simulator() const {
  UNIDIR_CHECK_MSG(sim_rt_ != nullptr, "simulator(): not a sim-backed world");
  return sim_rt_->simulator();
}

Network& World::network() {
  UNIDIR_CHECK_MSG(sim_rt_ != nullptr, "network(): not a sim-backed world");
  return sim_rt_->network();
}

const Network& World::network() const {
  UNIDIR_CHECK_MSG(sim_rt_ != nullptr, "network(): not a sim-backed world");
  return sim_rt_->network();
}

void World::adopt(std::unique_ptr<Process> p) {
  const auto id = static_cast<ProcessId>(processes_.size());
  p->world_ = this;
  p->id_ = id;
  p->signer_ = keys_.generate_key();
  p->rng_ = rng_.split();
  process_keys_.push_back(p->signer_.key());
  processes_.push_back(std::move(p));
  transcripts_.emplace_back();
  durables_.push_back(std::make_unique<DurableStore>());
  boot_recovering_.push_back(false);
  epochs_.push_back(0);
  crashed_at_.push_back(0);
  crashed_.push_back(false);
  byzantine_.push_back(false);
}

void World::provision(std::size_t total) {
  UNIDIR_REQUIRE_MSG(!started_, "provision after start()");
  UNIDIR_REQUIRE_MSG(!provisioned_, "provision called twice");
  UNIDIR_REQUIRE_MSG(processes_.empty(), "provision on a non-empty world");
  UNIDIR_REQUIRE(total > 0);
  provisioned_ = true;
  processes_.resize(total);  // null slots = not hosted here (yet)
  transcripts_.resize(total);
  durables_.clear();
  for (std::size_t i = 0; i < total; ++i)
    durables_.push_back(std::make_unique<DurableStore>());
  boot_recovering_.assign(total, false);
  epochs_.assign(total, 0);
  crashed_at_.assign(total, 0);
  crashed_.assign(total, false);
  byzantine_.assign(total, false);
  provisioned_signers_.reserve(total);
  provisioned_rngs_.reserve(total);
  process_keys_.reserve(total);
  // Key and rng derivation happen here, for EVERY id, in id order — this
  // is what makes the registry identical across OS processes that
  // provision the same (seed, total), regardless of which subset of ids
  // each one goes on to spawn_at.
  for (std::size_t i = 0; i < total; ++i) {
    provisioned_signers_.push_back(keys_.generate_key());
    process_keys_.push_back(provisioned_signers_.back().key());
    provisioned_rngs_.push_back(rng_.split());
  }
}

void World::place(std::unique_ptr<Process> p, ProcessId id) {
  p->world_ = this;
  p->id_ = id;
  p->signer_ = provisioned_signers_[id];
  p->rng_ = provisioned_rngs_[id];
  processes_[id] = std::move(p);
}

void World::install_durable(ProcessId id,
                            std::unique_ptr<DurableStore> store) {
  UNIDIR_REQUIRE_MSG(!started_, "install_durable after start()");
  UNIDIR_REQUIRE(id < durables_.size());
  UNIDIR_REQUIRE(store != nullptr);
  durables_[id] = std::move(store);
}

void World::boot_recovering(ProcessId id) {
  UNIDIR_REQUIRE_MSG(!started_, "boot_recovering after start()");
  UNIDIR_REQUIRE(id < boot_recovering_.size());
  boot_recovering_[id] = true;
}

void World::install_fault_plan(runtime::FaultPlan plan) {
  UNIDIR_REQUIRE_MSG(!started_, "install_fault_plan after start()");
  UNIDIR_REQUIRE_MSG(fault_transport_ == nullptr,
                     "install_fault_plan called twice");
  fault_transport_ = std::make_unique<runtime::FaultyTransport>(
      runtime_->transport(), runtime_->clock(), std::move(plan));
  transport_ = fault_transport_.get();
}

void World::start() {
  UNIDIR_REQUIRE_MSG(!started_, "start() called twice");
  started_ = true;
  for (auto& p : processes_) {
    if (p == nullptr) continue;
    Process* raw = p.get();
    if (boot_recovering_[raw->id()]) {
      // Real-process recovery boot: this incarnation rebuilds from disk the
      // way restart() rebuilds from the sim's NVRAM model, then never sees
      // on_start (the fresh-boot path would re-run trusted setup).
      runtime_->arm_for(raw->id(), 0, [this, raw]() {
        if (!crashed(raw->id())) raw->on_recover(*durables_[raw->id()]);
      });
      metrics_.add("fault.recovery_boots");
      continue;
    }
    // arm_for names each boot event's owner, like set_timer.
    runtime_->arm_for(raw->id(), 0, [this, raw]() {
      if (!crashed(raw->id())) raw->on_start();
    });
  }
}

std::size_t World::run_to_quiescence(std::size_t max_events) {
  return runtime_->run(max_events);
}

bool World::run_until(const std::function<bool()>& pred,
                      std::size_t max_events) {
  return runtime_->run_until(pred, max_events);
}

void World::send_message(ProcessId from, ProcessId to, Channel channel,
                         Payload payload) {
  // Both backends route through their Transport: the sim's (adversary
  // scheduling, crash drops) and the real one's (loopback or UDP) — via
  // the fault decorator when a plan is installed.
  transport_->send(from, to, channel, std::move(payload));
}

Process& World::process(ProcessId id) {
  UNIDIR_REQUIRE(is_local(id));
  return *processes_[id];
}

crypto::KeyId World::key_of(ProcessId id) const {
  UNIDIR_REQUIRE(id < process_keys_.size());
  return process_keys_[id];
}

ProcessId World::owner_of(crypto::KeyId key) const {
  for (ProcessId p = 0; p < process_keys_.size(); ++p)
    if (process_keys_[p] == key) return p;
  return kNoProcess;
}

void World::crash(ProcessId id) {
  UNIDIR_REQUIRE_MSG(is_local(id), "crash of a process not hosted here");
  if (!crashed_[id]) {
    crashed_at_[id] = now();
    tracer_.instant("crash", "fault", id, now());
  }
  crashed_[id] = true;
}

bool World::crashed(ProcessId id) const {
  UNIDIR_REQUIRE(id < crashed_.size());
  return crashed_[id];
}

void World::restart(ProcessId id) {
  UNIDIR_REQUIRE_MSG(is_local(id), "restart of a process not hosted here");
  UNIDIR_REQUIRE_MSG(crashed_[id], "restart of a process that is not down");
  crashed_[id] = false;
  ++epochs_[id];
  const Time down = now() - crashed_at_[id];
  tracer_.complete("down", "fault", id, crashed_at_[id], down);
  metrics_.histogram("fault.down_ticks").record(down);
  metrics_.add("fault.restarts");
  // Recovery runs synchronously: sends and timers it issues are scheduled
  // from `now`, exactly as if the process's recovery code ran at the instant
  // power came back.
  processes_[id]->on_recover(*durables_[id]);
}

DurableStore& World::durable(ProcessId id) {
  UNIDIR_REQUIRE(id < durables_.size());
  return *durables_[id];
}

std::uint64_t World::incarnation(ProcessId id) const {
  UNIDIR_REQUIRE(id < epochs_.size());
  return epochs_[id];
}

void World::mark_byzantine(ProcessId id) {
  UNIDIR_REQUIRE(id < byzantine_.size());
  byzantine_[id] = true;
}

bool World::byzantine(ProcessId id) const {
  UNIDIR_REQUIRE(id < byzantine_.size());
  return byzantine_[id];
}

std::vector<ProcessId> World::correct_ids() const {
  std::vector<ProcessId> out;
  for (ProcessId p = 0; p < processes_.size(); ++p)
    if (correct(p)) out.push_back(p);
  return out;
}

std::size_t World::fault_count() const {
  std::size_t n = 0;
  for (ProcessId p = 0; p < processes_.size(); ++p)
    if (!correct(p)) ++n;
  return n;
}

Transcript& World::transcript(ProcessId id) {
  UNIDIR_REQUIRE(id < transcripts_.size());
  return transcripts_[id];
}

const Transcript& World::transcript(ProcessId id) const {
  UNIDIR_REQUIRE(id < transcripts_.size());
  return transcripts_[id];
}

void World::publish_stats() {
  // set_counter (not add): publishing is idempotent, so callers may refresh
  // mid-run and again at the end.
  if (sim_rt_ != nullptr) {
    // Sim-backend counters. Wall-clock figures stay out of this section —
    // a snapshot of one seed must be identical across runs (they are
    // available programmatically via runtime().stats()).
    const SimulatorStats& sim = sim_rt_->simulator().stats();
    metrics_.set_counter("sim.scheduled", sim.scheduled);
    metrics_.set_counter("sim.executed", sim.executed);
    metrics_.set_counter("sim.ring_fast_path", sim.ring_fast_path);
    metrics_.set_counter("sim.heap_events", sim.heap_events);
    metrics_.set_gauge("sim.peak_pending",
                       static_cast<std::int64_t>(sim.peak_pending));

    const NetworkStats& net = sim_rt_->network().stats();
    metrics_.set_counter("net.messages_sent", net.messages_sent);
    metrics_.set_counter("net.messages_delivered", net.messages_delivered);
    metrics_.set_counter("net.messages_dropped", net.messages_dropped);
    metrics_.set_counter("net.dropped_crashed", net.dropped_crashed);
    metrics_.set_counter("net.dropped_held", net.dropped_held);
    metrics_.set_counter("net.messages_held", net.messages_held);
    metrics_.set_counter("net.messages_duplicated", net.messages_duplicated);
    metrics_.set_counter("net.messages_mutated", net.messages_mutated);
    metrics_.set_counter("net.bytes_sent", net.bytes_sent);
    metrics_.set_counter("net.bytes_delivered", net.bytes_delivered);
    metrics_.set_counter("net.bytes_dropped", net.bytes_dropped);
    metrics_.set_counter("net.bytes_held", net.bytes_held);
    metrics_.set_counter("net.bytes_duplicated", net.bytes_duplicated);
    metrics_.set_counter("net.bytes_mutation_added", net.bytes_mutation_added);
    metrics_.set_counter("net.bytes_mutation_removed",
                         net.bytes_mutation_removed);
  } else {
    // Real-time backend: determinism is off the table by construction, so
    // honest wall-clock throughput goes into the registry.
    const runtime::RuntimeStats rs = runtime_->stats();
    metrics_.set_counter("runtime.scheduled", rs.scheduled);
    metrics_.set_counter("runtime.executed", rs.executed);
    metrics_.set_counter("runtime.run_wall_ns", rs.run_wall_ns);
    metrics_.set_gauge("runtime.events_per_sec",
                       static_cast<std::int64_t>(rs.events_per_sec()));
    // Transport health. frames_send_failed counts kernel-rejected
    // datagrams (they are NOT in frames_sent); frames_oversized counts
    // frames refused at encode time; receiver_dead means the receive
    // thread hit an unexpected errno and this process is deaf — harnesses
    // must treat that as a failed replica, not a quiet one.
    metrics_.set_counter("runtime.frames_send_failed", rs.frames_send_failed);
    metrics_.set_counter("runtime.frames_oversized", rs.frames_oversized);
    metrics_.set_gauge("runtime.receiver_dead", rs.receiver_dead ? 1 : 0);
  }

  const crypto::VerifyStats& sig = keys_.verify_stats();
  metrics_.set_counter("sig.verifies", sig.verifies);
  metrics_.set_counter("sig.memo_hits", sig.memo_hits);
  metrics_.set_counter("sig.macs", sig.macs);

  if (fault_transport_ != nullptr) {
    const runtime::FaultyTransportStats& fs = fault_transport_->stats();
    metrics_.set_counter("fault.forwarded", fs.forwarded);
    metrics_.set_counter("fault.dropped", fs.dropped);
    metrics_.set_counter("fault.partitioned", fs.partitioned);
    metrics_.set_counter("fault.duplicated", fs.duplicated);
    metrics_.set_counter("fault.delayed", fs.delayed);
    metrics_.set_counter("fault.corrupted", fs.corrupted);
  }

  metrics_.set_counter("wire.received", wire_stats_.total_received());
  metrics_.set_counter("wire.dropped_malformed",
                       wire_stats_.total_dropped_malformed());
  metrics_.set_counter("wire.dropped_unknown_tag",
                       wire_stats_.total_dropped_unknown_tag());
  metrics_.set_counter("wire.dropped", wire_stats_.total_dropped());
}

void World::deliver(ProcessId from, ProcessId to, Channel channel,
                    const Payload& payload) {
  // Messages addressed to ids that don't exist (e.g. a Byzantine process
  // naming a bogus client) or aren't hosted here vanish, as on a real
  // network. The crashed check is what the sim network already enforced in
  // flight; on the real backend it is THE drop point for downed processes.
  if (to >= processes_.size() || processes_[to] == nullptr) return;
  if (crashed_[to]) return;
  if (simulated()) transcripts_[to].record_message(from, channel, payload);
  processes_[to]->dispatch(from, channel, payload.bytes());
}

}  // namespace unidir::sim
