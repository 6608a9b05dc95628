#include "sim_workload.h"

#include <algorithm>
#include <numeric>
#include <random>
#include <sstream>

#include "common/bytes.h"
#include "common/check.h"
#include "crypto/sha256.h"
#include "explore/invariants.h"
#include "explore/scenario.h"
#include "report.h"
#include "spans.h"

namespace perfbench {

namespace {

using namespace unidir;
using explore::AdversaryKind;
using explore::ProtocolKind;
using explore::ScenarioSpec;

constexpr std::uint64_t kMaxEvents = 100'000;
constexpr std::uint64_t kSeeds = 64;  // 1152 scenarios: enough for p99

std::vector<ScenarioSpec> materialize_pass() {
  using Draw = ScenarioSpec (*)(ProtocolKind, AdversaryKind, std::uint64_t);
  const Draw draws[] = {&ScenarioSpec::materialize,
                        &ScenarioSpec::materialize_batched,
                        &ScenarioSpec::materialize_recovery};
  const ProtocolKind protocols[] = {ProtocolKind::MinBft, ProtocolKind::Pbft};
  // Mutating is left out: under standard_smr() its draws stall and churn
  // (README.md, "Left out"), which would turn the sweep into a handful of
  // multi-second, memory-bound runs.
  const AdversaryKind adversaries[] = {AdversaryKind::RandomDelay,
                                       AdversaryKind::Duplicating,
                                       AdversaryKind::Gst};
  std::vector<ScenarioSpec> specs;
  for (std::uint64_t s = 1; s <= kSeeds; ++s)
    for (const Draw draw : draws)
      for (const ProtocolKind p : protocols)
        for (const AdversaryKind a : adversaries) {
          ScenarioSpec spec = draw(p, a, s);
          // Some recovery draws never quiesce after committing everything
          // (README.md, "Known defects"); they run to the cap, which the
          // repository's own sweeps also lower ("a stalled run is a pass").
          spec.max_events = kMaxEvents;
          specs.push_back(std::move(spec));
        }
  return specs;
}

}  // namespace

void sim_bring_up(const std::function<void()>& ready) {
  const std::vector<ScenarioSpec> specs = materialize_pass();
  const explore::InvariantRegistry registry =
      explore::InvariantRegistry::standard_smr();
  UNIDIR_CHECK(!specs.empty() && !registry.invariants().empty());
  ready();
}

SimResult run_sim(const SimOptions& o) {
  SimResult r;
  const std::vector<ScenarioSpec> specs = materialize_pass();
  const explore::InvariantRegistry standard =
      explore::InvariantRegistry::standard_smr();
  const explore::InvariantRegistry empty;

  std::ostringstream errors;
  const std::uint64_t t_begin = now_ns();
  const std::uint64_t t_end =
      t_begin + static_cast<std::uint64_t>(o.seconds * 1e9);
  std::uint64_t standard_ns = 0, empty_ns = 0;
  std::vector<std::vector<double>> spec_us(specs.size());
  std::vector<std::size_t> order(specs.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::mt19937_64 shuffle_rng(o.seed);
  std::uint64_t paused_ns = 0;  // spent in after_pass, not in the sweep
  while (r.passes < 2 || now_ns() < t_end + paused_ns) {
    // The seed picks each pass's order; the fingerprint combines outcomes
    // in spec order, so it does not depend on it.
    std::shuffle(order.begin(), order.end(), shuffle_rng);
    std::vector<crypto::Digest> fingerprints(specs.size());
    const bool first = r.passes == 0;
    for (const std::size_t i : order) {
      const ScenarioSpec& spec = specs[i];
      // Paired runs alternate which registry goes first, so neither side
      // always runs on warmer caches.
      if (o.rec != nullptr && (i + r.passes) % 2 == 0) {
        const std::uint64_t t = now_ns();
        {
          SpanRecorder::Scope span(o.rec, "explore.run_scenario_empty", i);
          (void)explore::run_scenario(spec, empty);
        }
        empty_ns += now_ns() - t;
      }
      const std::uint64_t t = now_ns();
      explore::RunOutcome out;
      try {
        SpanRecorder::Scope span(o.rec, "explore.run_scenario", i);
        out = explore::run_scenario(spec, standard);
      } catch (const std::exception& e) {
        // A scenario that throws is a failed operation, not a crash of the
        // benchmark: count it and name it.
        ++r.violations;
        if (first)
          errors << "scenario " << spec.describe() << " threw: " << e.what()
                 << "; ";
        continue;
      }
      const std::uint64_t dt = now_ns() - t;
      standard_ns += dt;
      if (o.rec != nullptr && (i + r.passes) % 2 == 1) {
        const std::uint64_t te = now_ns();
        {
          SpanRecorder::Scope span(o.rec, "explore.run_scenario_empty", i);
          (void)explore::run_scenario(spec, empty);
        }
        empty_ns += now_ns() - te;
      }
      spec_us[i].push_back(static_cast<double>(dt) / 1e3);
      ++r.scenarios;
      r.requests += out.completed;
      fingerprints[i] = out.fingerprint;
      if (out.violation) {
        ++r.violations;
        if (first)
          errors << "violation in " << spec.describe() << ": "
                 << out.violation->invariant << "; ";
      }
      if (!first) continue;
      ++r.pass_scenarios;
      if (out.events >= kMaxEvents) ++r.capped;
      r.pass_requests += out.completed;
      r.events += out.events;
      r.ring_events += out.sim.ring_fast_path;
      r.heap_events += out.sim.heap_events;
      r.sig.verifies += out.sig.verifies;
      r.sig.memo_hits += out.sig.memo_hits;
      r.sig.macs += out.sig.macs;
      for (const auto& [ch, cs] : out.wire.channels()) {
        (void)ch;
        r.wire_msgs += cs.sent;
        r.wire_bytes += cs.bytes_sent;
      }
      r.wire_dropped += out.wire.total_dropped();
      if (const obs::HistogramData* h =
              out.metrics.find_histogram("client.latency_ticks")) {
        if (r.latency_ticks.count == 0)
          r.latency_ticks = *h;
        else
          r.latency_ticks.merge(*h);
      }
    }
    crypto::Sha256 pass_fp;
    for (const crypto::Digest& d : fingerprints)
      pass_fp.update(ByteSpan(d.data(), d.size()));
    const crypto::Digest pass_digest = pass_fp.finish();
    const std::string fp =
        to_hex(ByteSpan(pass_digest.data(), pass_digest.size()));
    if (first) {
      r.fingerprint = fp;
      r.fingerprint_stable = true;
    } else if (fp != r.fingerprint) {
      r.fingerprint_stable = false;
      errors << "pass " << r.passes << " fingerprint " << fp
             << " differs from pass 0 " << r.fingerprint << "; ";
    }
    ++r.passes;
    if (o.after_pass) {
      const std::uint64_t t = now_ns();
      o.after_pass();
      paused_ns += now_ns() - t;
    }
  }
  r.sweep_s = static_cast<double>(now_ns() - t_begin - paused_ns) / 1e9;
  for (std::vector<double>& v : spec_us) {
    if (v.empty()) continue;  // threw in every pass
    std::sort(v.begin(), v.end());
    r.scenario_us.push_back(nearest_rank(v, 0.5));
  }
  r.standard_s = static_cast<double>(standard_ns) / 1e9;
  r.empty_s = static_cast<double>(empty_ns) / 1e9;
  r.errors = errors.str();
  return r;
}

}  // namespace perfbench
