// Hot-path benchmark: end-to-end events/sec through the simulator's
// message-delivery path, compared against the committed baseline
// (bench/baseline_hotpath.json).
//
// Wall-clock rates are gated only relative to a calibration workload:
// portable SHA-256 over a fixed buffer, which shares no code with the
// simulator. Each timed round runs right after one calibration pass, and
// the round's rate times the calibration's seconds is a machine-relative
// figure (work done per calibration pass). The gates read the median of
// those per-round ratios, so a slower box or a loaded neighbour moves both
// sides of each pair, while a slower simulator moves only one. The
// baseline therefore holds no absolute rates.
//
// Four phases, all written into BENCH_hotpath.json:
//
//  1. Throughput — the MinBFT n=4 f=1 scenario (random-delay adversary,
//     64 pipelined KV puts, seeds 1-8) run repeatedly on one thread. This
//     is the exact workload the baseline file records; the report carries
//     both the calibrated figure and its ratio to the baseline, plus the
//     queue/crypto counters that explain the difference (ring fast-path
//     share, verify-memo hits, SHA-NI availability).
//  2. Parallel sweep — a {protocol × adversary × seed} grid of 72
//     scenarios run serially and then through ParallelRunner with one
//     worker per core. Per-scenario fingerprints must match byte-for-byte:
//     parallelism is wall-clock only, never results. A mismatch fails the
//     benchmark regardless of flags.
//  3. Recovery catch-up — a backup crashes early in the n=4 workload and
//     restarts after the cluster has finished; the figure is virtual
//     ticks from restart until its execution log matches the peers'
//     (durable image replay + state transfer, DESIGN.md §9). A replica
//     that never catches up fails the benchmark regardless of flags.
//  4. Batch x offered-load sweep — MinBFT n=4 under a closed-loop client
//     fleet (16 clients), batch sizes {1, 4, 16, 32} crossed with three
//     outstanding-window levels. Each cell reports requests/sec (wall
//     clock) and client latency percentiles (virtual ticks); the full
//     curve lands in BENCH_batch_curve.json and the high-load row's
//     figures in the flat report. Any invariant violation fails the
//     benchmark regardless of flags; under --check the high-load client
//     p50 (virtual ticks) at batch 16 and at batch 32 must each be
//     kBatchSpeedupFloor times below batch 1's, and the calibrated
//     requests/sec at batch 1 and 16 must stay within kRegressionTolerance
//     of the baseline.
//
// The throughput phase also aggregates the obs-layer virtual-tick latency
// histograms (per-slot commit latency at the replicas, end-to-end request
// latency at the client) across its seeds. Percentiles of virtual ticks
// are deterministic — the same on every machine — so under --check they
// are gated hard: a >25% percentile regression vs the baseline fails.
//
// Flags:
//   --smoke          fewer throughput rounds and sweep seeds (CI-sized)
//   --check          exit 1 if a calibrated rate < (1 - 0.20) * baseline,
//                    or a latency percentile > (1 + 0.25) * baseline; exits
//                    1 before phase 1 if the baseline cannot be read or
//                    lacks a gated key
//   --baseline PATH  baseline JSON (default: bench/baseline_hotpath.json
//                    in the source tree, so any working directory works)
//   --out PATH       report path (default BENCH_hotpath.json)
//   --trace-out PATH Chrome-trace JSON of one traced seed-1 run
//                    (default BENCH_trace.json)
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "agreement/client.h"
#include "agreement/minbft.h"
#include "agreement/state_machines.h"
#include "agreement/usig_directory.h"
#include "crypto/sha256.h"
#include "explore/parallel.h"
#include "explore/scenario.h"
#include "obs/metrics.h"
#include "sim/adversaries.h"
#include "sim/world.h"

using namespace unidir;
using namespace unidir::explore;

namespace {

constexpr double kRegressionTolerance = 0.20;
/// Batching must buy at least this much at batch 16 and at batch 32 on the
/// high-load row — the whole point of amortizing one USIG/signature pair
/// over a batch. The figure is the client p50 in virtual ticks, batch 1
/// over batch b: deterministic, so the gate holds on any machine (wall-clock
/// req/s ratios swung 2.2-2.9x between runs on a loaded 4-vCPU box).
/// Measured: 256 -> 32 ticks at batch 16 and 256 -> 16 at batch 32.
constexpr double kBatchSpeedupFloor = 3.0;
/// Latency percentiles are virtual-tick figures — deterministic per seed —
/// so the gate has no machine noise to absorb; 25% still leaves room for
/// intentional protocol tuning without a baseline bump.
constexpr double kLatencyTolerance = 0.25;

/// The baseline keys --check gates on: calibrated rates (a drop is a
/// regression) and virtual-tick latency percentiles (a rise is one).
/// --check refuses to start unless the baseline holds each with a positive
/// value, so no gate can pass by having nothing to compare against.
constexpr const char* kRateGateKeys[] = {
    "events_per_calib", "batch_req_per_calib_b1", "batch_req_per_calib_b16"};
constexpr const char* kLatencyGateKeys[] = {
    "commit_latency_p50_ticks", "commit_latency_p95_ticks",
    "commit_latency_p99_ticks", "client_latency_p50_ticks",
    "client_latency_p95_ticks", "client_latency_p99_ticks"};

ScenarioSpec hotpath_spec(std::uint64_t seed) {
  ScenarioSpec s;
  s.protocol = ProtocolKind::MinBft;
  s.adversary = AdversaryKind::RandomDelay;
  s.seed = seed;
  s.n = 4;
  s.f = 1;
  s.max_delay = 5;
  s.pipeline_depth = 4;
  for (int k = 0; k < 64; ++k)
    s.requests.push_back(agreement::KvStateMachine::put_op(
        "key" + std::to_string(k % 7), "value" + std::to_string(k)));
  return s;
}

/// Minimal extraction of `"key": <number>` from a flat JSON object — the
/// baseline file is ours and flat, so no parser dependency is warranted.
double json_number(const std::string& text, const std::string& key,
                   double fallback) {
  const std::string needle = "\"" + key + "\"";
  std::size_t pos = text.find(needle);
  if (pos == std::string::npos) return fallback;
  pos = text.find(':', pos + needle.size());
  if (pos == std::string::npos) return fallback;
  return std::strtod(text.c_str() + pos + 1, nullptr);
}

/// Wall seconds of one calibration pass: portable SHA-256 over 4 MiB,
/// about as long as one timed round on a 4-vCPU box. It runs the portable
/// backend on every host, so SHA-NI presence cannot shift it.
double calibration_secs() {
  static const Bytes buf = [] {
    Bytes b(64 * 1024);
    for (std::size_t i = 0; i < b.size(); ++i)
      b[i] = static_cast<std::uint8_t>(i * 37);
    return b;
  }();
  volatile std::uint8_t sink = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (int rep = 0; rep < 64; ++rep)
    sink = static_cast<std::uint8_t>(
        sink + crypto::detail::hash_portable(ByteSpan(buf))[0]);
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

std::string hex_of(const crypto::Digest& d) {
  static const char* kHex = "0123456789abcdef";
  std::string out;
  out.reserve(d.size() * 2);
  for (std::uint8_t b : d) {
    out.push_back(kHex[b >> 4]);
    out.push_back(kHex[b & 0xF]);
  }
  return out;
}

struct ThroughputResult {
  double events_per_sec = 0;
  double events_per_calib = 0;  // median over rounds of events/sec x calib s
  std::uint64_t events = 0;
  std::uint64_t runs = 0;
  sim::SimulatorStats sim{};
  crypto::VerifyStats sig{};
  /// Virtual-tick latency histograms merged across the measured seeds
  /// (identical every round, so merged from the first round only).
  obs::HistogramData commit_latency;
  obs::HistogramData client_latency;
};

ThroughputResult measure_throughput(int rounds) {
  const InvariantRegistry reg = InvariantRegistry::standard_smr();
  (void)run_scenario(hotpath_spec(1), reg);  // warmup

  // Each round runs seeds 1-8 right after a calibration pass and gets its
  // own rate and calibrated ratio; the reported figures are the medians,
  // which shrug off transient load on shared builders far better than one
  // aggregate stopwatch.
  ThroughputResult r;
  std::vector<double> per_round;
  std::vector<double> per_calib;
  for (int round = 0; round < rounds; ++round) {
    const double calib = calibration_secs();
    std::uint64_t round_events = 0;
    const auto t0 = std::chrono::steady_clock::now();
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
      const RunOutcome out = run_scenario(hotpath_spec(seed), reg);
      round_events += out.events;
      ++r.runs;
      if (round == 0) {
        if (const obs::HistogramData* h =
                out.metrics.find_histogram("smr.commit_latency_ticks"))
          r.commit_latency.merge(*h);
        if (const obs::HistogramData* h =
                out.metrics.find_histogram("client.latency_ticks"))
          r.client_latency.merge(*h);
      }
      r.sim.ring_fast_path += out.sim.ring_fast_path;
      r.sim.heap_events += out.sim.heap_events;
      r.sim.scheduled += out.sim.scheduled;
      r.sim.executed += out.sim.executed;
      r.sim.peak_pending = std::max(r.sim.peak_pending, out.sim.peak_pending);
      r.sig.verifies += out.sig.verifies;
      r.sig.memo_hits += out.sig.memo_hits;
      r.sig.macs += out.sig.macs;
    }
    const double secs = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
    r.events += round_events;
    if (secs > 0) {
      per_round.push_back(static_cast<double>(round_events) / secs);
      per_calib.push_back(per_round.back() * calib);
    }
  }
  r.events_per_sec = median(per_round);
  r.events_per_calib = median(per_calib);
  return r;
}

struct SweepResult {
  std::size_t scenarios = 0;
  std::size_t threads = 0;
  double serial_secs = 0;
  double parallel_secs = 0;
  bool fingerprints_identical = false;
  std::string combined_fingerprint;  // hash over all per-scenario prints
};

SweepResult measure_sweep() {
  // 2 protocols x 3 adversaries x 12 seeds = 72 scenarios.
  std::vector<ScenarioSpec> specs;
  for (ProtocolKind p : {ProtocolKind::MinBft, ProtocolKind::Pbft})
    for (AdversaryKind a : {AdversaryKind::RandomDelay,
                            AdversaryKind::Duplicating, AdversaryKind::Gst})
      for (std::uint64_t seed = 1; seed <= 12; ++seed)
        specs.push_back(ScenarioSpec::materialize(p, a, seed));

  const InvariantRegistry reg = InvariantRegistry::standard_smr();

  const ParallelRunner serial(1);
  const std::vector<RunOutcome> serial_out =
      serial.run_scenarios(specs, reg);

  const ParallelRunner parallel(0);
  const std::vector<RunOutcome> parallel_out =
      parallel.run_scenarios(specs, reg);

  SweepResult r;
  r.scenarios = specs.size();
  r.threads = parallel.threads();
  r.serial_secs =
      static_cast<double>(serial.last_stats().wall_ns) / 1e9;
  r.parallel_secs =
      static_cast<double>(parallel.last_stats().wall_ns) / 1e9;

  r.fingerprints_identical = true;
  crypto::Sha256 combined;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    if (serial_out[i].fingerprint != parallel_out[i].fingerprint)
      r.fingerprints_identical = false;
    combined.update(ByteSpan(serial_out[i].fingerprint.data(),
                             serial_out[i].fingerprint.size()));
  }
  r.combined_fingerprint = hex_of(combined.finish());
  return r;
}

struct RecoveryResult {
  std::uint64_t seeds = 0;
  std::uint64_t catchup_ticks_median = 0;  // restart -> log parity
  std::uint64_t entries_recovered = 0;     // total across seeds
  bool all_caught_up = false;
};

/// Ticks-to-catch-up: replica 3 crashes at t=40 (a handful of executions
/// into the 64-put workload), the remaining three finish without it, and
/// at t=2000 it restarts from its durable image. The clock runs from the
/// restart until its executed count reaches the peers' frontier — that
/// window is exactly one image load plus one StateRequest/StateReply
/// round plus replaying the transferred suffix.
RecoveryResult measure_recovery(std::uint64_t seeds) {
  RecoveryResult res;
  res.all_caught_up = true;
  std::vector<std::uint64_t> ticks;
  for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
    sim::World world(seed,
                     std::make_unique<sim::RandomDelayAdversary>(1, 3));
    agreement::SgxUsigDirectory usigs(world.keys());
    agreement::MinBftReplica::Options opt;
    opt.f = 1;
    opt.checkpoint_interval = 8;
    for (ProcessId i = 0; i < 4; ++i) opt.replicas.push_back(i);
    std::vector<agreement::MinBftReplica*> rs;
    for (ProcessId i = 0; i < 4; ++i)
      rs.push_back(&world.spawn<agreement::MinBftReplica>(
          opt, usigs, std::make_unique<agreement::KvStateMachine>()));
    agreement::SmrClient::Options copt;
    copt.replicas = opt.replicas;
    copt.f = 1;
    copt.resend_timeout = 200;
    copt.max_outstanding = 4;
    auto& client = world.spawn<agreement::SmrClient>(copt);
    for (int k = 0; k < 64; ++k)
      client.submit(agreement::KvStateMachine::put_op(
          "key" + std::to_string(k % 7), "value" + std::to_string(k)));

    constexpr Time kCrashAt = 40;
    constexpr Time kRestartAt = 2'000;
    std::uint64_t frontier = 0;
    std::uint64_t resumed_from = 0;
    world.simulator().at(kCrashAt, [&] { world.crash(3); });
    world.simulator().at(kRestartAt, [&] {
      for (std::size_t i = 0; i < 3; ++i)
        frontier = std::max(frontier, rs[i]->executed_count());
      usigs.restart_device(3, /*durable=*/true);
      world.restart(3);
      resumed_from = rs[3]->executed_count();
    });
    world.start();
    const bool caught = world.run_until(
        [&] {
          return world.now() > kRestartAt &&
                 rs[3]->executed_count() >= frontier && frontier > 0;
        },
        2'000'000);
    res.all_caught_up = res.all_caught_up && caught;
    ++res.seeds;
    if (caught) {
      ticks.push_back(world.now() - kRestartAt);
      res.entries_recovered += frontier - resumed_from;
    }
    (void)client;
  }
  if (!ticks.empty()) {
    std::sort(ticks.begin(), ticks.end());
    res.catchup_ticks_median = ticks[ticks.size() / 2];
  }
  return res;
}

// ---- phase 4: batch x offered-load sweep ---------------------------------

ScenarioSpec batch_spec(std::uint64_t batch, std::uint64_t window,
                        std::uint64_t requests_per_client,
                        std::uint64_t seed) {
  ScenarioSpec s;
  s.protocol = ProtocolKind::MinBft;
  s.adversary = AdversaryKind::RandomDelay;
  s.seed = seed;
  s.n = 4;
  s.f = 1;
  s.max_delay = 5;
  s.batch_size = batch;
  s.replica_pipeline = 4;
  s.workload.clients = 16;
  s.workload.requests_per_client = requests_per_client;
  s.workload.open_loop = false;
  s.workload.max_outstanding = window;
  s.workload.key_space = 7;
  s.workload.seed = seed;
  return s;
}

struct BatchCell {
  std::uint64_t batch = 0;
  std::uint64_t window = 0;
  double rps = 0;
  double req_per_calib = 0;  // median over rounds of req/s x calib s
  double speedup_vs_b1 = 0;  // same window, batch 1
  std::uint64_t completed = 0;
  std::uint64_t client_p50 = 0;
  std::uint64_t client_p95 = 0;
};

struct BatchSweepResult {
  std::vector<BatchCell> cells;
  std::uint64_t violations = 0;
  std::uint64_t gate_window = 0;  // the high-load row the gates read
  double rps_b1 = 0;
  double rps_b16 = 0;
  double rps_b32 = 0;
  double req_per_calib_b1 = 0;
  double req_per_calib_b16 = 0;
  double speedup_16v1 = 0;
  double speedup_32v1 = 0;
  std::uint64_t p50_b1 = 0;  // client p50 ticks on the high-load row
  std::uint64_t p50_b16 = 0;
  std::uint64_t p50_b32 = 0;
};

/// Requests/sec is completed requests over wall seconds — the client-fleet
/// analogue of phase 1's events/sec. Each cell runs its seeds in several
/// rounds, each right after a calibration pass, and reports the median
/// round's rate and calibrated ratio. Latency percentiles come from the
/// virtual-tick client histogram of the first seed, so they are
/// deterministic while the rates absorb machine noise. Smoke and full runs
/// give each scenario the same load, so one baseline fits both modes.
BatchSweepResult measure_batching(bool smoke) {
  constexpr std::uint64_t kRequestsPerClient = 16;
  const std::uint64_t seeds = smoke ? 3 : 6;
  constexpr int kRounds = 5;
  const std::uint64_t windows[] = {2, 8, 16};
  const std::uint64_t batches[] = {1, 4, 16, 32};

  const InvariantRegistry reg = InvariantRegistry::standard_smr();
  (void)run_scenario(batch_spec(1, 8, kRequestsPerClient, 1), reg);

  BatchSweepResult res;
  res.gate_window = 16;
  for (std::uint64_t window : windows) {
    double rps_b1 = 0;
    for (std::uint64_t batch : batches) {
      BatchCell cell;
      cell.batch = batch;
      cell.window = window;
      obs::HistogramData latency;
      std::vector<double> per_round;
      std::vector<double> per_calib;
      for (int round = 0; round < kRounds; ++round) {
        const double calib = calibration_secs();
        std::uint64_t completed = 0;
        const auto t0 = std::chrono::steady_clock::now();
        for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
          const RunOutcome out = run_scenario(
              batch_spec(batch, window, kRequestsPerClient, seed), reg);
          completed += out.completed;
          if (round > 0) continue;  // later rounds repeat the same runs
          cell.completed += out.completed;
          if (out.violation) ++res.violations;
          if (seed == 1)
            if (const obs::HistogramData* h =
                    out.metrics.find_histogram("client.latency_ticks"))
              latency.merge(*h);
        }
        const double secs = std::chrono::duration<double>(
                                std::chrono::steady_clock::now() - t0)
                                .count();
        if (secs > 0) {
          per_round.push_back(static_cast<double>(completed) / secs);
          per_calib.push_back(per_round.back() * calib);
        }
      }
      cell.rps = median(per_round);
      cell.req_per_calib = median(per_calib);
      if (batch == 1) rps_b1 = cell.rps;
      cell.speedup_vs_b1 = rps_b1 > 0 ? cell.rps / rps_b1 : 0;
      cell.client_p50 = latency.quantile(0.50);
      cell.client_p95 = latency.quantile(0.95);
      res.cells.push_back(cell);
      if (window == res.gate_window) {
        if (batch == 1) {
          res.rps_b1 = cell.rps;
          res.req_per_calib_b1 = cell.req_per_calib;
          res.p50_b1 = cell.client_p50;
        }
        if (batch == 16) {
          res.rps_b16 = cell.rps;
          res.req_per_calib_b16 = cell.req_per_calib;
          res.speedup_16v1 = cell.speedup_vs_b1;
          res.p50_b16 = cell.client_p50;
        }
        if (batch == 32) {
          res.rps_b32 = cell.rps;
          res.speedup_32v1 = cell.speedup_vs_b1;
          res.p50_b32 = cell.client_p50;
        }
      }
    }
  }
  return res;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  bool check = false;
  std::string baseline_path = UNIDIR_HOTPATH_BASELINE;
  std::string out_path = "BENCH_hotpath.json";
  std::string trace_out_path = "BENCH_trace.json";
  std::string curve_out_path = "BENCH_batch_curve.json";

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--smoke")
      smoke = true;
    else if (arg == "--check")
      check = true;
    else if (arg == "--baseline")
      baseline_path = value();
    else if (arg == "--out")
      out_path = value();
    else if (arg == "--trace-out")
      trace_out_path = value();
    else if (arg == "--curve-out")
      curve_out_path = value();
    else {
      std::fprintf(stderr,
                   "usage: %s [--smoke] [--check] [--baseline PATH] "
                   "[--out PATH] [--trace-out PATH] [--curve-out PATH]\n",
                   argv[0]);
      return 2;
    }
  }

  double baseline_epc = 0;
  std::string baseline_text;
  {
    std::ifstream in(baseline_path);
    if (in) {
      std::ostringstream ss;
      ss << in.rdbuf();
      baseline_text = ss.str();
      baseline_epc = json_number(baseline_text, "events_per_calib", 0);
    } else if (check) {
      std::fprintf(stderr, "FAIL: --check needs the baseline, and %s "
                   "cannot be read\n", baseline_path.c_str());
      return 1;
    } else {
      std::fprintf(stderr, "note: baseline %s not found; speedup omitted\n",
                   baseline_path.c_str());
    }
  }
  if (check) {
    using Keys = std::span<const char* const>;
    for (const Keys keys : {Keys(kRateGateKeys), Keys(kLatencyGateKeys)}) {
      for (const char* key : keys) {
        if (json_number(baseline_text, key, 0) > 0) continue;
        std::fprintf(stderr, "FAIL: baseline %s lacks a positive \"%s\"; "
                     "--check cannot gate on it\n", baseline_path.c_str(), key);
        return 1;
      }
    }
  }

  std::printf("phase 1: throughput (%s)\n", smoke ? "smoke" : "full");
  const ThroughputResult tp = measure_throughput(smoke ? 11 : 21);
  const double speedup =
      baseline_epc > 0 ? tp.events_per_calib / baseline_epc : 0.0;
  std::printf(
      "  %.0f events/sec, %.0f events per calibration pass, over %llu "
      "events (%llu runs)\n",
      tp.events_per_sec, tp.events_per_calib,
      static_cast<unsigned long long>(tp.events),
      static_cast<unsigned long long>(tp.runs));
  if (baseline_epc > 0)
    std::printf("  baseline %.0f events per calibration pass -> %.2fx\n",
                baseline_epc, speedup);
  const double ring_share =
      tp.sim.executed > 0 ? static_cast<double>(tp.sim.ring_fast_path) /
                                static_cast<double>(tp.sim.scheduled)
                          : 0.0;
  const double memo_rate =
      tp.sig.verifies > 0 ? static_cast<double>(tp.sig.memo_hits) /
                                static_cast<double>(tp.sig.verifies)
                          : 0.0;
  std::printf(
      "  ring fast-path %.1f%%, peak queue %zu, verify memo %.1f%%, "
      "sha-ni %s\n",
      100.0 * ring_share, tp.sim.peak_pending, 100.0 * memo_rate,
      crypto::Sha256::hardware_accelerated() ? "yes" : "no");
  std::printf(
      "  commit latency (virtual ticks): p50 %llu, p95 %llu, p99 %llu, "
      "max %llu over %llu slots\n",
      static_cast<unsigned long long>(tp.commit_latency.quantile(0.50)),
      static_cast<unsigned long long>(tp.commit_latency.quantile(0.95)),
      static_cast<unsigned long long>(tp.commit_latency.quantile(0.99)),
      static_cast<unsigned long long>(tp.commit_latency.max),
      static_cast<unsigned long long>(tp.commit_latency.count));
  std::printf(
      "  client latency (virtual ticks): p50 %llu, p95 %llu, p99 %llu, "
      "max %llu over %llu requests\n",
      static_cast<unsigned long long>(tp.client_latency.quantile(0.50)),
      static_cast<unsigned long long>(tp.client_latency.quantile(0.95)),
      static_cast<unsigned long long>(tp.client_latency.quantile(0.99)),
      static_cast<unsigned long long>(tp.client_latency.max),
      static_cast<unsigned long long>(tp.client_latency.count));

  std::printf("phase 2: parallel sweep\n");
  const SweepResult sw = measure_sweep();
  std::printf(
      "  %zu scenarios: serial %.3fs, parallel %.3fs on %zu threads "
      "(%.2fx), fingerprints %s\n",
      sw.scenarios, sw.serial_secs, sw.parallel_secs, sw.threads,
      sw.parallel_secs > 0 ? sw.serial_secs / sw.parallel_secs : 0.0,
      sw.fingerprints_identical ? "identical" : "MISMATCH");

  std::printf("phase 3: recovery catch-up\n");
  const RecoveryResult rec = measure_recovery(8);
  std::printf(
      "  %llu seeds: median %llu ticks restart->parity, %llu entries "
      "recovered, %s\n",
      static_cast<unsigned long long>(rec.seeds),
      static_cast<unsigned long long>(rec.catchup_ticks_median),
      static_cast<unsigned long long>(rec.entries_recovered),
      rec.all_caught_up ? "all caught up" : "CATCH-UP FAILED");

  std::printf("phase 4: batch x offered-load sweep\n");
  const BatchSweepResult bt = measure_batching(smoke);
  for (const BatchCell& c : bt.cells)
    std::printf(
        "  window=%2llu batch=%2llu: %8.0f req/s (%.2fx vs batch 1, "
        "%.0f per calibration pass), client p50 %llu p95 %llu ticks, %llu "
        "completed\n",
        static_cast<unsigned long long>(c.window),
        static_cast<unsigned long long>(c.batch), c.rps, c.speedup_vs_b1,
        c.req_per_calib,
        static_cast<unsigned long long>(c.client_p50),
        static_cast<unsigned long long>(c.client_p95),
        static_cast<unsigned long long>(c.completed));
  if (bt.violations > 0)
    std::printf("  INVARIANT VIOLATIONS: %llu\n",
                static_cast<unsigned long long>(bt.violations));

  {
    std::ofstream curve(curve_out_path);
    curve << "{\n"
          << "  \"scenario\": \"minbft-4replica-batch-curve\",\n"
          << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n"
          << "  \"gate_window\": " << bt.gate_window << ",\n"
          << "  \"cells\": [\n";
    for (std::size_t i = 0; i < bt.cells.size(); ++i) {
      const BatchCell& c = bt.cells[i];
      curve << "    {\"batch\": " << c.batch << ", \"window\": " << c.window
            << ", \"requests_per_sec\": " << c.rps
            << ", \"requests_per_calib\": " << c.req_per_calib
            << ", \"speedup_vs_b1\": " << c.speedup_vs_b1
            << ", \"client_p50_ticks\": " << c.client_p50
            << ", \"client_p95_ticks\": " << c.client_p95
            << ", \"completed\": " << c.completed << "}"
            << (i + 1 < bt.cells.size() ? "," : "") << "\n";
    }
    curve << "  ]\n}\n";
    std::printf("wrote %s\n", curve_out_path.c_str());
  }

  // One traced seed-1 run for the artifact: under UNIDIR_OBS_TRACING=OFF
  // this writes the empty-but-valid trace skeleton, which still validates.
  {
    ScenarioSpec traced = hotpath_spec(1);
    traced.trace = true;
    const RunOutcome rt =
        run_scenario(traced, InvariantRegistry::standard_smr());
    std::ofstream tout(trace_out_path, std::ios::binary);
    tout << rt.trace_json;
    std::printf("wrote %s (%zu bytes)\n", trace_out_path.c_str(),
                rt.trace_json.size());
  }

  {
    std::ofstream out(out_path);
    out << "{\n"
        << "  \"scenario\": \"minbft-4replica-hotpath\",\n"
        << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n"
        << "  \"events_per_sec\": " << tp.events_per_sec << ",\n"
        << "  \"events_per_calib\": " << tp.events_per_calib << ",\n"
        << "  \"baseline_events_per_calib\": " << baseline_epc << ",\n"
        << "  \"speedup_vs_baseline\": " << speedup << ",\n"
        << "  \"events\": " << tp.events << ",\n"
        << "  \"runs\": " << tp.runs << ",\n"
        << "  \"ring_fast_path_share\": " << ring_share << ",\n"
        << "  \"peak_pending\": " << tp.sim.peak_pending << ",\n"
        << "  \"verify_memo_hit_rate\": " << memo_rate << ",\n"
        << "  \"sha_ni\": "
        << (crypto::Sha256::hardware_accelerated() ? "true" : "false")
        << ",\n"
        << "  \"commit_latency_p50_ticks\": "
        << tp.commit_latency.quantile(0.50) << ",\n"
        << "  \"commit_latency_p95_ticks\": "
        << tp.commit_latency.quantile(0.95) << ",\n"
        << "  \"commit_latency_p99_ticks\": "
        << tp.commit_latency.quantile(0.99) << ",\n"
        << "  \"commit_latency_max_ticks\": " << tp.commit_latency.max
        << ",\n"
        << "  \"commit_latency_samples\": " << tp.commit_latency.count
        << ",\n"
        << "  \"client_latency_p50_ticks\": "
        << tp.client_latency.quantile(0.50) << ",\n"
        << "  \"client_latency_p95_ticks\": "
        << tp.client_latency.quantile(0.95) << ",\n"
        << "  \"client_latency_p99_ticks\": "
        << tp.client_latency.quantile(0.99) << ",\n"
        << "  \"client_latency_max_ticks\": " << tp.client_latency.max
        << ",\n"
        << "  \"client_latency_samples\": " << tp.client_latency.count
        << ",\n"
        << "  \"sweep_scenarios\": " << sw.scenarios << ",\n"
        << "  \"sweep_threads\": " << sw.threads << ",\n"
        << "  \"sweep_serial_secs\": " << sw.serial_secs << ",\n"
        << "  \"sweep_parallel_secs\": " << sw.parallel_secs << ",\n"
        << "  \"sweep_fingerprints_identical\": "
        << (sw.fingerprints_identical ? "true" : "false") << ",\n"
        << "  \"sweep_combined_fingerprint\": \"" << sw.combined_fingerprint
        << "\",\n"
        << "  \"recovery_seeds\": " << rec.seeds << ",\n"
        << "  \"recovery_catchup_ticks_median\": "
        << rec.catchup_ticks_median << ",\n"
        << "  \"recovery_entries_recovered\": " << rec.entries_recovered
        << ",\n"
        << "  \"recovery_all_caught_up\": "
        << (rec.all_caught_up ? "true" : "false") << ",\n"
        << "  \"batch_gate_window\": " << bt.gate_window << ",\n"
        << "  \"batch_rps_b1\": " << bt.rps_b1 << ",\n"
        << "  \"batch_rps_b16\": " << bt.rps_b16 << ",\n"
        << "  \"batch_rps_b32\": " << bt.rps_b32 << ",\n"
        << "  \"batch_req_per_calib_b1\": " << bt.req_per_calib_b1 << ",\n"
        << "  \"batch_req_per_calib_b16\": " << bt.req_per_calib_b16
        << ",\n"
        << "  \"batch_speedup_16v1\": " << bt.speedup_16v1 << ",\n"
        << "  \"batch_speedup_32v1\": " << bt.speedup_32v1 << ",\n"
        << "  \"batch_p50_ticks_b1\": " << bt.p50_b1 << ",\n"
        << "  \"batch_p50_ticks_b16\": " << bt.p50_b16 << ",\n"
        << "  \"batch_p50_ticks_b32\": " << bt.p50_b32 << ",\n"
        << "  \"batch_violations\": " << bt.violations << "\n"
        << "}\n";
    std::printf("wrote %s\n", out_path.c_str());
  }

  if (!sw.fingerprints_identical) {
    std::fprintf(stderr,
                 "FAIL: parallel sweep fingerprints diverge from serial\n");
    return 1;
  }
  if (!rec.all_caught_up) {
    std::fprintf(stderr,
                 "FAIL: restarted replica never reached its peers' "
                 "execution frontier\n");
    return 1;
  }
  if (bt.violations > 0) {
    std::fprintf(stderr,
                 "FAIL: %llu invariant violations in the batching sweep\n",
                 static_cast<unsigned long long>(bt.violations));
    return 1;
  }
  if (check) {
    // Client latency must fall with the batch, at batch 16 and at 32.
    for (const std::uint64_t p50 : {bt.p50_b16, bt.p50_b32}) {
      const double cut =
          static_cast<double>(bt.p50_b1) /
          static_cast<double>(std::max<std::uint64_t>(p50, 1));
      if (cut < kBatchSpeedupFloor) {
        std::fprintf(stderr,
                     "FAIL: batching cuts the window-%llu client p50 only "
                     "%.2fx (%llu -> %llu ticks), below the %.1fx floor\n",
                     static_cast<unsigned long long>(bt.gate_window), cut,
                     static_cast<unsigned long long>(bt.p50_b1),
                     static_cast<unsigned long long>(p50),
                     kBatchSpeedupFloor);
        return 1;
      }
    }
    // Wall-clock rates, each per calibration pass (see the header), in
    // kRateGateKeys order.
    const double rates[] = {tp.events_per_calib, bt.req_per_calib_b1,
                            bt.req_per_calib_b16};
    static_assert(std::size(rates) == std::size(kRateGateKeys));
    for (std::size_t k = 0; k < std::size(rates); ++k) {
      const double base = json_number(baseline_text, kRateGateKeys[k], 0);
      if (rates[k] < (1.0 - kRegressionTolerance) * base) {
        std::fprintf(stderr,
                     "FAIL: %s regressed >%.0f%% vs baseline "
                     "(%.0f < %.0f)\n",
                     kRateGateKeys[k], 100.0 * kRegressionTolerance, rates[k],
                     (1.0 - kRegressionTolerance) * base);
        return 1;
      }
    }
    // Virtual-tick latency percentiles, in kLatencyGateKeys order.
    const std::uint64_t latencies[] = {
        tp.commit_latency.quantile(0.50), tp.commit_latency.quantile(0.95),
        tp.commit_latency.quantile(0.99), tp.client_latency.quantile(0.50),
        tp.client_latency.quantile(0.95), tp.client_latency.quantile(0.99)};
    static_assert(std::size(latencies) == std::size(kLatencyGateKeys));
    for (std::size_t k = 0; k < std::size(latencies); ++k) {
      const double base = json_number(baseline_text, kLatencyGateKeys[k], 0);
      if (static_cast<double>(latencies[k]) >
          (1.0 + kLatencyTolerance) * base) {
        std::fprintf(stderr,
                     "FAIL: %s regressed >%.0f%% vs baseline "
                     "(%llu > %.0f)\n",
                     kLatencyGateKeys[k], 100.0 * kLatencyTolerance,
                     static_cast<unsigned long long>(latencies[k]),
                     (1.0 + kLatencyTolerance) * base);
        return 1;
      }
    }
  }
  return 0;
}
