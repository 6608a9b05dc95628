#include "explore/scenario.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "agreement/minbft.h"
#include "agreement/pbft.h"
#include "agreement/state_machines.h"
#include "explore/record_replay.h"
#include "sim/adversaries.h"

namespace unidir::explore {

std::string protocol_name(ProtocolKind p) {
  switch (p) {
    case ProtocolKind::MinBft:
      return "minbft";
    case ProtocolKind::Pbft:
      return "pbft";
  }
  return "?";
}

std::string adversary_name(AdversaryKind a) {
  switch (a) {
    case AdversaryKind::Immediate:
      return "immediate";
    case AdversaryKind::RandomDelay:
      return "random-delay";
    case AdversaryKind::Duplicating:
      return "duplicating";
    case AdversaryKind::Gst:
      return "gst";
    case AdversaryKind::Mutating:
      return "mutating";
  }
  return "?";
}

ScenarioSpec ScenarioSpec::materialize(ProtocolKind protocol,
                                       AdversaryKind adversary,
                                       std::uint64_t seed) {
  ScenarioSpec s;
  s.protocol = protocol;
  s.adversary = adversary;
  s.seed = seed;

  sim::Rng pick(seed ^ (protocol == ProtocolKind::Pbft ? 0xABCDEFULL : 0ULL));
  s.f = pick.range(1, 2);
  s.n = (protocol == ProtocolKind::MinBft ? 2 * s.f + 1 : 3 * s.f + 1);

  sim::Rng plan(seed * 0x9E3779B97F4A7C15ULL + 1);
  switch (adversary) {
    case AdversaryKind::Immediate:
      s.max_delay = 1;
      break;
    case AdversaryKind::RandomDelay:
      s.max_delay = plan.range(2, 20);
      break;
    case AdversaryKind::Duplicating:
      s.max_delay = plan.range(2, 10);
      s.max_copies = plan.range(2, 3);
      break;
    case AdversaryKind::Gst:
      s.gst = plan.range(50, 250);
      s.gst_delta = plan.range(1, 5);
      s.gst_pre_extra = plan.range(10, 150);
      break;
    case AdversaryKind::Mutating:
      s.max_delay = plan.range(2, 10);
      s.mutate_rate = plan.range(10, 40);
      break;
  }
  s.pipeline_depth = plan.range(1, 4);
  s.resend_timeout = 200;
  s.view_change_timeout = 150;

  const std::uint64_t requests = plan.range(4, 10);
  for (std::uint64_t k = 0; k < requests; ++k)
    s.requests.push_back(agreement::KvStateMachine::put_op(
        "key" + std::to_string(k % 3), "v" + std::to_string(k)));

  const std::uint64_t crashes = plan.range(0, s.f);
  std::vector<ProcessId> victims;
  for (std::uint64_t i = 0; i < s.n; ++i)
    victims.push_back(static_cast<ProcessId>(i));
  plan.shuffle(victims);
  for (std::uint64_t c = 0; c < crashes; ++c)
    s.crashes.push_back({victims[c], plan.range(1, 400)});
  return s;
}

ScenarioSpec ScenarioSpec::materialize_recovery(ProtocolKind protocol,
                                                AdversaryKind adversary,
                                                std::uint64_t seed) {
  // Same base draw as materialize() — the recovery schedule comes from a
  // separate stream so existing sweeps keep their per-seed scenarios.
  ScenarioSpec s = materialize(protocol, adversary, seed);
  s.crashes.clear();  // recovery events carry their own crash schedule
  sim::Rng rec(seed * 0xD1B54A32D192ED03ULL + 2);
  const std::uint64_t count = rec.range(1, s.f);
  std::vector<ProcessId> victims;
  for (std::uint64_t i = 0; i < s.n; ++i)
    victims.push_back(static_cast<ProcessId>(i));
  rec.shuffle(victims);
  for (std::uint64_t c = 0; c < count; ++c) {
    const Time crash_at = rec.range(1, 300);
    // Long enough to lose in-flight traffic, short enough that the run
    // still quiesces with everything executed.
    const Time restart_at = crash_at + rec.range(30, 500);
    s.recoveries.push_back({victims[c], crash_at, restart_at});
  }
  return s;
}

namespace {

/// The batched-mode knob draw shared by materialize_batched and
/// materialize_batched_recovery. Its own stream, so the base scenarios
/// (and every existing sweep seed) stay untouched.
void apply_batched_draw(ScenarioSpec& s, std::uint64_t seed) {
  sim::Rng b(seed * 0xA24BAED4963EE407ULL + 3);
  const std::uint64_t sizes[] = {2, 4, 8, 16};
  s.batch_size = sizes[b.below(4)];
  (void)b.range(0, 6);  // the retired batch-hold draw; keeps later draws put
  s.replica_pipeline = b.range(2, 6);
  s.workload.clients = b.range(2, 6);
  s.workload.requests_per_client = b.range(3, 8);
  s.workload.open_loop = b.chance(1, 2);
  s.workload.mean_interarrival = b.range(3, 15);
  s.workload.max_outstanding = b.range(1, 3);
  s.workload.key_space = b.range(4, 12);
  s.workload.hot_key_percent = b.chance(1, 2) ? b.range(50, 90) : 0;
  s.workload.hot_keys = b.range(1, 2);
  s.workload.seed = seed;
}

}  // namespace

ScenarioSpec ScenarioSpec::materialize_batched(ProtocolKind protocol,
                                               AdversaryKind adversary,
                                               std::uint64_t seed) {
  ScenarioSpec s = materialize(protocol, adversary, seed);
  apply_batched_draw(s, seed);
  return s;
}

ScenarioSpec ScenarioSpec::materialize_batched_recovery(
    ProtocolKind protocol, AdversaryKind adversary, std::uint64_t seed) {
  ScenarioSpec s = materialize_recovery(protocol, adversary, seed);
  apply_batched_draw(s, seed);
  return s;
}

std::string ScenarioSpec::describe() const {
  std::ostringstream os;
  os << protocol_name(protocol) << " n=" << n << " f=" << f << " seed=" << seed
     << " adversary=" << adversary_name(adversary);
  switch (adversary) {
    case AdversaryKind::Immediate:
      break;
    case AdversaryKind::RandomDelay:
      os << "(max=" << max_delay << ")";
      break;
    case AdversaryKind::Duplicating:
      os << "(max=" << max_delay << ", copies=" << max_copies << ")";
      break;
    case AdversaryKind::Gst:
      os << "(gst=" << gst << ", delta=" << gst_delta << ")";
      break;
    case AdversaryKind::Mutating:
      os << "(max=" << max_delay << ", rate=" << mutate_rate << "%)";
      break;
  }
  os << " requests=" << requests.size() << " pipeline=" << pipeline_depth
     << " crashes=[";
  for (std::size_t i = 0; i < crashes.size(); ++i) {
    if (i) os << ", ";
    os << crashes[i].victim << "@t" << crashes[i].when;
  }
  os << "] recoveries=[";
  for (std::size_t i = 0; i < recoveries.size(); ++i) {
    if (i) os << ", ";
    os << recoveries[i].victim << "@t" << recoveries[i].crash_at << "-t"
       << recoveries[i].restart_at;
  }
  os << "]";
  if (volatile_trusted_state) os << " volatile-trusted";
  if (client_max_attempts) os << " max-attempts=" << client_max_attempts;
  if (checkpoint_interval) os << " ckpt=" << checkpoint_interval;
  if (trace) os << " trace";
  if (batch_size > 1 || replica_pipeline > 1)
    os << " batch=" << batch_size << "/p" << replica_pipeline;
  if (workload.enabled()) os << " " << workload.describe();
  return os.str();
}

void ScenarioSpec::decoded() const {
  if (protocol > ProtocolKind::Pbft)
    throw serde::DecodeError("bad ProtocolKind");
  if (adversary > AdversaryKind::Mutating)
    throw serde::DecodeError("bad AdversaryKind");
  if (batch_size == 0) throw serde::DecodeError("batch_size must be >= 1");
  if (replica_pipeline == 0)
    throw serde::DecodeError("replica_pipeline must be >= 1");
}

std::string ScenarioSpec::to_hex() const {
  return unidir::to_hex(serde::encode(*this));
}

ScenarioSpec ScenarioSpec::from_hex(std::string_view hex) {
  return serde::decode<ScenarioSpec>(unidir::from_hex(hex));
}

std::unique_ptr<sim::Adversary> make_adversary(const ScenarioSpec& spec) {
  switch (spec.adversary) {
    case AdversaryKind::Immediate:
      return std::make_unique<sim::ImmediateAdversary>();
    case AdversaryKind::RandomDelay:
      return std::make_unique<sim::RandomDelayAdversary>(1, spec.max_delay);
    case AdversaryKind::Duplicating:
      return std::make_unique<sim::DuplicatingAdversary>(
          static_cast<unsigned>(spec.max_copies), spec.max_delay);
    case AdversaryKind::Gst:
      return std::make_unique<sim::GstAdversary>(spec.gst, spec.gst_delta,
                                                 spec.gst_pre_extra);
    case AdversaryKind::Mutating: {
      sim::MutatingAdversary::Options o;
      o.rate_percent = static_cast<std::uint32_t>(spec.mutate_rate);
      return std::make_unique<sim::MutatingAdversary>(
          std::make_unique<sim::RandomDelayAdversary>(1, spec.max_delay), o);
    }
  }
  throw std::invalid_argument("unknown AdversaryKind");
}

namespace {

/// Hashes the serde encoding of (completed, final_time, every transcript)
/// as a stream: each event's header goes through a small scratch writer
/// and its payload straight into the hash, so no copy of the transcripts
/// is ever built.
crypto::Digest fingerprint_of(const sim::World& world,
                              std::uint64_t completed, Time final_time) {
  crypto::Sha256 sha;
  serde::Writer head;
  head.uvarint(completed);
  head.uvarint(final_time);
  for (ProcessId p = 0; p < world.size(); ++p) {
    const std::vector<sim::ObservedEvent>& evs = world.transcript(p).events();
    head.uvarint(evs.size());
    for (const sim::ObservedEvent& ev : evs) {
      const ByteSpan payload = ev.payload.span();
      head.u8(static_cast<std::uint8_t>(ev.kind));
      head.uvarint(ev.from);
      head.uvarint(ev.channel);
      head.str(ev.tag);
      head.uvarint(payload.size());
      sha.update(head.buffer());
      head.clear();
      sha.update(payload);
    }
  }
  sha.update(head.buffer());
  return sha.finish();
}

}  // namespace

RunOutcome run_scenario(const ScenarioSpec& spec,
                        const InvariantRegistry& registry, RunMode mode,
                        const ScheduleTrace* trace) {
  UNIDIR_REQUIRE_MSG(mode != RunMode::Replay || trace != nullptr,
                     "Replay mode needs a trace");
  UNIDIR_REQUIRE(spec.n >= 1 &&
                 (!spec.requests.empty() || spec.workload.enabled()));
  UNIDIR_REQUIRE(spec.batch_size >= 1 && spec.replica_pipeline >= 1);

  RecordingAdversary* recorder = nullptr;
  ReplayAdversary* replayer = nullptr;
  std::unique_ptr<sim::Adversary> adversary;
  switch (mode) {
    case RunMode::Direct:
      adversary = make_adversary(spec);
      break;
    case RunMode::Record: {
      auto rec = std::make_unique<RecordingAdversary>(make_adversary(spec));
      recorder = rec.get();
      adversary = std::move(rec);
      break;
    }
    case RunMode::Replay: {
      auto rep = std::make_unique<ReplayAdversary>(*trace);
      replayer = rep.get();
      adversary = std::move(rep);
      break;
    }
  }

  // The USIG directory must outlive the world whose replicas reference it.
  std::unique_ptr<agreement::SgxUsigDirectory> usigs;
  sim::World world(spec.seed, std::move(adversary));

  RunOutcome out;
  world.network().set_observer(
      [&out](const sim::Envelope&, sim::DecisionPoint,
             const std::optional<Time>&) { ++out.decisions; });

  std::vector<ProcessId> ids;
  for (std::uint64_t i = 0; i < spec.n; ++i)
    ids.push_back(static_cast<ProcessId>(i));

  agreement::ReplicaCore::Options ropt;
  ropt.replicas = ids;
  ropt.f = static_cast<std::size_t>(spec.f);
  ropt.view_change_timeout = spec.view_change_timeout;
  if (spec.checkpoint_interval != 0)
    ropt.checkpoint_interval = spec.checkpoint_interval;
  ropt.batch_size = static_cast<std::size_t>(spec.batch_size);
  ropt.pipeline_depth = static_cast<std::size_t>(spec.replica_pipeline);
  std::vector<const agreement::ReplicaCore*> replicas;
  if (spec.protocol == ProtocolKind::MinBft) {
    usigs = std::make_unique<agreement::SgxUsigDirectory>(world.keys());
    agreement::MinBftReplica::Options o;
    static_cast<agreement::ReplicaCore::Options&>(o) = ropt;
    o.commit_quorum = static_cast<std::size_t>(spec.commit_quorum);
    for (std::uint64_t i = 0; i < spec.n; ++i)
      replicas.push_back(&world.spawn<agreement::MinBftReplica>(
          o, *usigs, std::make_unique<agreement::KvStateMachine>()));
  } else {
    for (std::uint64_t i = 0; i < spec.n; ++i)
      replicas.push_back(&world.spawn<agreement::PbftReplica>(
          ropt, std::make_unique<agreement::KvStateMachine>()));
  }

  agreement::SmrClient::Options copt;
  copt.replicas = ids;
  copt.f = static_cast<std::size_t>(spec.f);
  copt.resend_timeout = spec.resend_timeout;
  copt.max_attempts = static_cast<std::size_t>(spec.client_max_attempts);
  copt.max_outstanding = static_cast<std::size_t>(spec.pipeline_depth);

  // Every client in the run — the legacy spec.requests client (if any)
  // plus the workload fleet; completion is aggregated across all of them.
  std::vector<agreement::SmrClient*> fleet;
  if (!spec.requests.empty()) {
    auto& client = world.spawn<agreement::SmrClient>(copt);
    for (const Bytes& op : spec.requests) client.submit(op);
    fleet.push_back(&client);
  }
  if (spec.workload.enabled()) {
    const std::vector<sim::WorkloadSpec::ClientPlan> plans =
        spec.workload.plan();
    for (std::size_t c = 0; c < plans.size(); ++c) {
      agreement::SmrClient::Options wopt = copt;
      // Closed-loop clients are throttled by their outstanding window;
      // open-loop clients must never queue behind it — arrivals fire
      // regardless of completions.
      wopt.max_outstanding = spec.workload.open_loop
                                 ? static_cast<std::size_t>(
                                       spec.workload.requests_per_client)
                                 : static_cast<std::size_t>(std::max<
                                       std::uint64_t>(
                                       1, spec.workload.max_outstanding));
      auto& wc = world.spawn<agreement::SmrClient>(wopt);
      fleet.push_back(&wc);
      for (std::size_t k = 0; k < plans[c].arrivals.size(); ++k) {
        const sim::WorkloadSpec::Arrival& a = plans[c].arrivals[k];
        Bytes op = agreement::KvStateMachine::put_op(
            "wk" + std::to_string(a.key),
            "c" + std::to_string(c) + "." + std::to_string(k));
        if (spec.workload.open_loop)
          world.simulator().at(a.at, [&wc, op = std::move(op)] {
            wc.submit(op);
          });
        else
          wc.submit(std::move(op));
      }
    }
  }

  for (const CrashEvent& ev : spec.crashes)
    world.simulator().at(ev.when,
                         [&world, v = ev.victim] { world.crash(v); });

  for (const RecoveryEvent& ev : spec.recoveries) {
    world.simulator().at(ev.crash_at,
                         [&world, v = ev.victim] { world.crash(v); });
    // Restart the trusted device first: on_recover talks to it.
    world.simulator().at(
        ev.restart_at,
        [&world, dir = usigs.get(), v = ev.victim,
         durable = !spec.volatile_trusted_state] {
          if (!world.crashed(v)) return;  // hand-built spec double-scheduled
          if (dir) dir->restart_device(v, durable);
          world.restart(v);
        });
  }

  if (spec.trace) world.tracer().enable();
  world.start();
  out.events = world.run_to_quiescence(
      static_cast<std::size_t>(spec.max_events));

  out.completed = 0;
  out.gave_up = 0;
  for (const agreement::SmrClient* c : fleet) {
    out.completed += c->completed();
    out.gave_up += c->gave_up();
  }
  out.expected = spec.requests.size() + spec.workload.total_requests();
  out.final_time = world.now();
  out.net = world.network().stats();
  out.sim = world.simulator().stats();
  out.sig = world.keys().verify_stats();
  out.wire = world.wire_stats();
  world.publish_stats();
  out.metrics = world.metrics().snapshot();
  if (spec.trace) out.trace_json = world.tracer().to_chrome_json();
  out.fingerprint = fingerprint_of(world, out.completed, out.final_time);

  ExplorationContext ctx;
  ctx.world = &world;
  for (const agreement::ReplicaCore* r : replicas)
    if (world.correct(r->id()))
      ctx.smr.push_back({r->id(), &r->execution_log(), r->executed_count(),
                         r->state_digest()});
  ctx.completed = out.completed;
  ctx.expected = out.expected;
  for (ProcessId p = 0; p < world.size(); ++p)
    if (world.correct(p)) ctx.transcripts.emplace_back(p, &world.transcript(p));
  out.violation = registry.check(ctx);

  if (recorder) out.trace = recorder->take_trace();
  if (replayer) {
    out.trace = replayer->consumed_trace();
    out.replay_missed = replayer->missed();
  }
  return out;
}

}  // namespace unidir::explore
