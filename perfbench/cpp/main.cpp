// perfbench: the repository benchmark program.
//
//   perfbench --workload udp-saturate|udp-paced|sim-sweep --seed N
//             --seconds S --trace 0|1 [--spans FILE] [--probe 0|1]
//
// --trace 0 measures the end-to-end metrics with no decorator installed.
// --trace 1 measures the per-layer metrics: an untraced run for the public
// counters, then a run with every forwarding decorator installed
// (decorators.h), whose spans are written to --spans as Chrome-trace JSON
// and reduced to per-layer self time.
//
// setup_s is timed from outside: the program spawns itself with --probe 1,
// which sets the workload up, prints "ready" and tears it down again.
//
// Human-readable lines go to stdout first; the last stdout line is the
// JSON result (report.h). Exit status 1 when a correctness check failed,
// 2 on bad arguments.
#include <fcntl.h>
#include <malloc.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "report.h"
#include "sim_workload.h"
#include "spans.h"
#include "udp_workload.h"

namespace {

using perfbench::Metric;
using Metrics = std::map<std::string, Metric>;

/// Set-up probes run a few at a time, spread over the run, so that one busy
/// stretch of the host does not decide the median.
constexpr int kProbesPerRound = 8;
/// Longest traced udp window. Its spans (about 150 per request) must fit
/// the recorder, warm-up and drain included; a run that drops spans fails.
constexpr double kTracedWindowS = 4;
constexpr std::size_t kMaxSpans = 4'000'000;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans;
  bool probe = false;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "udp-saturate|udp-paced|sim-sweep --seed N --seconds S "
               "--trace 0|1 [--spans FILE] [--probe 0|1]\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value");
    const std::string v = argv[++i];
    try {
      if (flag == "--workload") a.workload = v;
      else if (flag == "--seed") a.seed = std::stoull(v);
      else if (flag == "--seconds") a.seconds = std::stod(v);
      else if (flag == "--trace") a.trace = std::stoi(v) != 0;
      else if (flag == "--spans") a.spans = v;
      else if (flag == "--probe") a.probe = std::stoi(v) != 0;
      else usage("unknown flag");
    } catch (const std::exception&) {
      usage("bad value");
    }
  }
  if (a.workload != "udp-saturate" && a.workload != "udp-paced" &&
      a.workload != "sim-sweep")
    usage("unknown workload");
  if (a.seconds <= 0) usage("--seconds must be positive");
  return a;
}

/// Seconds from spawning this program with --probe 1 until the child
/// reports its workload ready: process start and loading plus the
/// workload's own set-up.
double probe_setup_once(const Args& a) {
  char exe[4096];
  const ssize_t len = readlink("/proc/self/exe", exe, sizeof exe - 1);
  if (len <= 0) throw std::runtime_error("cannot find own executable");
  exe[len] = '\0';
  int fds[2];
  if (pipe2(fds, O_CLOEXEC) != 0) throw std::runtime_error("pipe failed");
  posix_spawn_file_actions_t fa;
  posix_spawn_file_actions_init(&fa);
  posix_spawn_file_actions_adddup2(&fa, fds[1], STDOUT_FILENO);
  std::vector<std::string> args = {exe,         "--workload", a.workload,
                                   "--seed",    std::to_string(a.seed),
                                   "--seconds", "1",
                                   "--trace",   "0",
                                   "--probe",   "1"};
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  argv.push_back(nullptr);
  pid_t pid = 0;
  const std::uint64_t t = perfbench::now_ns();
  const int rc = posix_spawn(&pid, exe, &fa, nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&fa);
  close(fds[1]);
  std::string got;
  char buf[16];
  for (ssize_t n; rc == 0 && got.find('\n') == std::string::npos;) {
    n = read(fds[0], buf, sizeof buf);
    if (n > 0) got.append(buf, static_cast<std::size_t>(n));
    else if (n == 0 || errno != EINTR) break;
  }
  const std::uint64_t ready = perfbench::now_ns();
  close(fds[0]);
  if (rc != 0) throw std::runtime_error("cannot spawn the set-up probe");
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (got != "ready\n" || !WIFEXITED(status) || WEXITSTATUS(status) != 0)
    throw std::runtime_error("set-up probe failed");
  return static_cast<double>(ready - t) / 1e9;
}

/// One round of set-up probes, appended to `v`.
void add_probes(const Args& a, std::vector<double>& v) {
  for (int i = 0; i < kProbesPerRound; ++i) v.push_back(probe_setup_once(a));
}

/// Prints the set-up samples' spread and returns their median.
double setup_median(const std::string& label, std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const double med = v[v.size() / 2];
  std::printf("%s: set-up n=%zu min=%.6f median=%.6f max=%.6f s\n",
              label.c_str(), v.size(), v.front(), med, v.back());
  return med;
}

double ratio(double num, double den) { return den == 0 ? 0 : num / den; }

/// Share of MAC lookups (signing and verifying) the registry's memo
/// answered; VerifyStats counts a lookup as either a hit or a MAC.
double memo_hit_rate(const unidir::crypto::VerifyStats& v) {
  return ratio(static_cast<double>(v.memo_hits),
               static_cast<double>(v.memo_hits + v.macs));
}

/// Every per-layer metric, zero where the workload has no such layer.
Metrics per_layer_defaults() {
  const char* counts[] = {
      "runtime.frames_oversized", "runtime.frames_send_failed",
      "agreement.view_changes", "agreement.replica_lag", "client.gave_up",
      "wire.dropped", "explore.capped_scenarios", "obs.spans",
      "obs.spans_dropped"};
  const char* ratios[] = {
      "runtime.recv_spd", "runtime.send_spd", "runtime.frames_per_op",
      "agreement.primary_busy", "agreement.persists_per_op",
      "client.rps_tail_ratio", "trusted.create_ui_per_op",
      "trusted.verify_per_op", "crypto.macs_per_op", "crypto.memo_hit_rate",
      "wire.msgs_per_op", "sim.events_per_scenario", "sim.ring_share",
      "explore.invariant_share", "obs.trace_overhead"};
  const char* nanos[] = {
      "runtime.send_ns", "agreement.deliver_ns_p50",
      "agreement.deliver_ns_p99", "agreement.exec_ns",
      "agreement.snapshot_ns", "trusted.create_ui_ns", "trusted.verify_ns",
      "sim.ns_per_event", "runtime.self_ns_per_op",
      "agreement.self_ns_per_op", "trusted.self_ns_per_op"};
  Metrics m;
  for (const char* n : counts) m[n] = {0, "count"};
  for (const char* n : ratios) m[n] = {0, "ratio"};
  for (const char* n : nanos) m[n] = {0, "ns"};
  m["agreement.persist_bytes"] = {0, "B"};
  m["wire.bytes_per_op"] = {0, "B"};
  m["sim.scenarios_per_s"] = {0, "1/s"};
  m["sim.p50_ticks"] = {0, "ticks"};
  m["sim.p99_ticks"] = {0, "ticks"};
  return m;
}

// ---- udp-* -----------------------------------------------------------------

perfbench::UdpOptions udp_options(const Args& a) {
  perfbench::UdpOptions o;
  o.seed = a.seed;
  o.seconds = a.seconds;
  if (a.workload == "udp-paced") {
    o.open_loop = true;
    o.clients = 4;
  }
  return o;
}

void print_udp(const std::string& label, const perfbench::UdpResult& r,
               const perfbench::Summary& s) {
  std::printf(
      "%s: window %.3f s, %llu committed in window = %.1f req/s; attempted "
      "%llu, failed %llu, gave up %llu; tail ratio %.3f\n",
      label.c_str(), r.window_s,
      static_cast<unsigned long long>(r.committed_in_window), r.rps,
      static_cast<unsigned long long>(r.attempted),
      static_cast<unsigned long long>(r.failed),
      static_cast<unsigned long long>(r.gave_up), r.tail_ratio);
  std::printf("%s: latency n=%zu p50=%.1f us p99=%.1f us p%.1f=%.1f us "
              "(highest percentile with >= 10 samples beyond it)\n",
              label.c_str(), s.n, s.p50, s.p99, s.tail_q * 100, s.tail);
  if (!r.lag_us.empty()) {
    const perfbench::Summary lag = perfbench::summarize(r.lag_us);
    std::printf("%s: load-generator lag n=%zu p50=%.1f us p99=%.1f us\n",
                label.c_str(), lag.n, lag.p50, lag.p99);
  }
  std::printf(
      "%s: frames sent %llu received %llu malformed %llu oversized %llu "
      "send-failed %llu no-peer %llu; replica executed",
      label.c_str(), static_cast<unsigned long long>(r.udp.frames_sent),
      static_cast<unsigned long long>(r.udp.frames_received),
      static_cast<unsigned long long>(r.udp.frames_malformed),
      static_cast<unsigned long long>(r.udp.frames_oversized),
      static_cast<unsigned long long>(r.udp.frames_send_failed),
      static_cast<unsigned long long>(r.udp.frames_no_peer));
  for (const std::uint64_t e : r.replica_executed)
    std::printf(" %llu", static_cast<unsigned long long>(e));
  std::printf("; digest %s\n", r.replica_digests.empty()
                                   ? "-"
                                   : r.replica_digests[0].substr(0, 16).c_str());
}

/// Checks shared by every udp-* cluster; returns the failures.
std::string udp_check(const Args& a, const perfbench::UdpResult& r) {
  std::string e = r.errors;
  if (!r.digests_agree && e.empty()) e += "replica state disagrees; ";
  if (a.workload == "udp-paced" && !r.conservation_exact)
    e += "frame conservation violated on the paced run; ";
  return e;
}

/// A reported p99 needs at least ten samples beyond it.
std::string p99_check(const perfbench::Summary& s) {
  return s.tail_q < 0.99 ? "too few samples to support p99; " : "";
}

struct LayerSpans {
  std::uint64_t send_n = 0, send_ns = 0;
  std::vector<double> deliver_self;
  std::uint64_t primary_busy_ns = 0;
  std::uint64_t exec_n = 0, exec_ns = 0, snap_n = 0, snap_ns = 0;
  std::uint64_t create_n = 0, create_ns = 0, verify_ns = 0;
  std::uint64_t self_runtime = 0, self_agreement = 0, self_trusted = 0;
};

LayerSpans reduce_spans(const perfbench::SpanRecorder& rec,
                        std::size_t replicas, std::uint64_t from,
                        std::uint64_t to) {
  LayerSpans l;
  for (const std::vector<perfbench::Span>& spans : rec.threads()) {
    const std::vector<std::uint64_t> self = perfbench::self_times(spans);
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const perfbench::Span& s = spans[i];
      if (s.end_ns == 0 || s.async) continue;
      const std::uint64_t dur = s.end_ns - s.start_ns;
      const std::string name = s.name;
      if (name.rfind("runtime.", 0) == 0) l.self_runtime += self[i];
      if (name.rfind("agreement.", 0) == 0) l.self_agreement += self[i];
      if (name.rfind("trusted.", 0) == 0) l.self_trusted += self[i];
      if (name == "runtime.send") {
        ++l.send_n;
        l.send_ns += dur;
      } else if (name == "agreement.deliver") {
        if (s.key < replicas)
          l.deliver_self.push_back(static_cast<double>(self[i]));
        if (s.key == 0 && s.parent < 0 && s.start_ns >= from &&
            s.start_ns < to)
          l.primary_busy_ns += std::min(s.end_ns, to) - s.start_ns;
      } else if (name == "agreement.exec") {
        ++l.exec_n;
        l.exec_ns += dur;
      } else if (name == "agreement.snapshot") {
        ++l.snap_n;
        l.snap_ns += dur;
      } else if (name == "trusted.create_ui") {
        ++l.create_n;
        l.create_ns += dur;
      } else if (name == "trusted.verify" || name == "trusted.verify_batch") {
        l.verify_ns += dur;
      }
    }
  }
  return l;
}

int run_udp_workload(const Args& a) {
  perfbench::UdpOptions o = udp_options(a);
  if (!a.trace) {
    // Fresh clusters, each measured for an equal share of the run;
    // latencies and counts are pooled across them. The paced clusters are
    // shorter so that state growth (README.md) moves their latency less.
    const int repeats = o.open_loop ? 8 : 5;
    o.seconds = a.seconds / repeats;
    std::vector<double> latency_us, setups;
    std::uint64_t attempted = 0, failed = 0, committed = 0;
    double window_s = 0;
    std::string errors;
    for (int rep = 0; rep < repeats; ++rep) {
      o.seed = a.seed * 100 + static_cast<std::uint64_t>(rep);
      add_probes(a, setups);
      const perfbench::UdpResult r = perfbench::run_udp(o);
      // Hand the torn-down cluster's memory back, so each cluster grows
      // from the same heap and peak_rss_mb is one cluster's footprint.
      malloc_trim(0);
      const perfbench::Summary s = perfbench::summarize(r.latency_us);
      const std::string label = a.workload + " #" + std::to_string(rep);
      print_udp(label, r, s);
      errors += udp_check(a, r);
      latency_us.insert(latency_us.end(), r.latency_us.begin(),
                        r.latency_us.end());
      attempted += r.attempted;
      failed += r.failed;
      committed += r.committed_in_window;
      window_s += r.window_s;
    }
    const perfbench::Summary s = perfbench::summarize(latency_us);
    errors += p99_check(s);
    std::printf("%s: pooled latency n=%zu p50=%.1f us p99=%.1f us p%.1f=%.1f "
                "us; %.1f req/s\n",
                a.workload.c_str(), s.n, s.p50, s.p99, s.tail_q * 100, s.tail,
                static_cast<double>(committed) / window_s);
    if (!errors.empty())
      std::printf("%s: CHECK FAILED: %s\n", a.workload.c_str(), errors.c_str());
    Metrics m;
    m["rps"] = {static_cast<double>(committed) / window_s, "1/s"};
    m["p50_us"] = {s.p50, "us"};
    m["p99_us"] = {s.p99, "us"};
    m["setup_s"] = {setup_median(a.workload, setups), "s"};
    m["peak_rss_mb"] = {perfbench::peak_rss_mb(), "MB"};
    std::cout << perfbench::result_json(errors.empty(), attempted, failed, m)
              << std::endl;
    return errors.empty() ? 0 : 1;
  }

  // Traced. The public counters come from one untraced cluster over the
  // whole run, so that defects which need many served requests (oversized
  // state transfers, README.md) can show. The spans come from a second,
  // shorter cluster whose spans fit the recorder.
  o.seconds = a.seconds;
  const perfbench::UdpResult plain = perfbench::run_udp(o);
  malloc_trim(0);
  perfbench::SpanRecorder rec(kMaxSpans);
  perfbench::UdpOptions traced_opts = o;
  traced_opts.seconds = std::min(a.seconds / 4, kTracedWindowS);
  traced_opts.rec = &rec;
  const perfbench::UdpResult traced = perfbench::run_udp(traced_opts);
  const perfbench::Summary ps = perfbench::summarize(plain.latency_us);
  const perfbench::Summary ts = perfbench::summarize(traced.latency_us);
  print_udp(a.workload + " (untraced)", plain, ps);
  print_udp(a.workload + " (traced)", traced, ts);
  std::string errors = udp_check(a, plain) + udp_check(a, traced);
  if (rec.dropped() != 0)
    errors += "the span recorder dropped " + std::to_string(rec.dropped()) +
              " spans, so span-derived ratios would undercount; ";
  // The untraced cluster's rate over the traced window's length from its
  // own start, so state growth weighs on both sides alike.
  const std::uint64_t prefix_end =
      plain.window_from_ns + (traced.window_to_ns - traced.window_from_ns);
  const double plain_prefix_rps =
      static_cast<double>(std::count_if(
          plain.completions.begin(), plain.completions.end(),
          [&](std::uint64_t t) {
            return t >= plain.window_from_ns && t < prefix_end;
          })) /
      traced.window_s;

  const double ops = static_cast<double>(plain.committed_total);
  const double tops = static_cast<double>(traced.committed_total);
  const LayerSpans l = reduce_spans(rec, perfbench::kReplicas,
                                    traced.window_from_ns, traced.window_to_ns);
  const perfbench::Summary deliver = perfbench::summarize(l.deliver_self);

  Metrics m = per_layer_defaults();
  const auto& u = plain.udp;
  m["runtime.recv_spd"].value = u.recv_syscalls_per_datagram();
  m["runtime.send_spd"].value = u.send_syscalls_per_datagram();
  m["runtime.frames_per_op"].value =
      ratio(static_cast<double>(u.frames_sent), ops);
  m["runtime.frames_oversized"].value = static_cast<double>(u.frames_oversized);
  m["runtime.frames_send_failed"].value =
      static_cast<double>(u.frames_send_failed);
  m["runtime.send_ns"].value =
      ratio(static_cast<double>(l.send_ns), static_cast<double>(l.send_n));
  m["agreement.deliver_ns_p50"].value = deliver.p50;
  m["agreement.deliver_ns_p99"].value = deliver.p99;
  m["agreement.primary_busy"].value =
      ratio(static_cast<double>(l.primary_busy_ns),
            static_cast<double>(traced.window_to_ns - traced.window_from_ns));
  m["agreement.exec_ns"].value =
      ratio(static_cast<double>(l.exec_ns), static_cast<double>(l.exec_n));
  m["agreement.snapshot_ns"].value =
      ratio(static_cast<double>(l.snap_ns), static_cast<double>(l.snap_n));
  m["agreement.persist_bytes"].value =
      ratio(static_cast<double>(traced.persist_bytes),
            static_cast<double>(traced.persist_puts));
  m["agreement.persists_per_op"].value =
      ratio(static_cast<double>(traced.persist_puts), tops);
  m["agreement.view_changes"].value =
      static_cast<double>(plain.view_changes + traced.view_changes);
  m["agreement.replica_lag"].value = static_cast<double>(plain.replica_lag);
  m["client.gave_up"].value = static_cast<double>(plain.gave_up);
  m["client.rps_tail_ratio"].value = plain.tail_ratio;
  m["trusted.create_ui_per_op"].value =
      ratio(static_cast<double>(l.create_n), tops);
  m["trusted.create_ui_ns"].value =
      ratio(static_cast<double>(l.create_ns), static_cast<double>(l.create_n));
  m["trusted.verify_per_op"].value =
      ratio(static_cast<double>(traced.usig_verifications), tops);
  m["trusted.verify_ns"].value =
      ratio(static_cast<double>(l.verify_ns),
            static_cast<double>(traced.usig_verifications));
  m["crypto.macs_per_op"].value = ratio(static_cast<double>(plain.sig.macs), ops);
  m["crypto.memo_hit_rate"].value = memo_hit_rate(plain.sig);
  m["wire.msgs_per_op"].value = ratio(static_cast<double>(plain.wire_msgs), ops);
  m["wire.bytes_per_op"].value =
      ratio(static_cast<double>(plain.wire_bytes), ops);
  m["wire.dropped"].value = static_cast<double>(plain.wire_dropped);
  m["runtime.self_ns_per_op"].value =
      ratio(static_cast<double>(l.self_runtime), tops);
  m["agreement.self_ns_per_op"].value =
      ratio(static_cast<double>(l.self_agreement), tops);
  m["trusted.self_ns_per_op"].value =
      ratio(static_cast<double>(l.self_trusted), tops);
  m["obs.trace_overhead"].value = ratio(traced.rps, plain_prefix_rps);
  m["obs.spans"].value = 0;
  for (const auto& t : rec.threads())
    m["obs.spans"].value += static_cast<double>(t.size());

  if (!a.spans.empty() && !rec.write_chrome_trace(a.spans))
    errors += "could not write " + a.spans + "; ";
  m["obs.spans_dropped"].value = static_cast<double>(rec.dropped());
  for (const auto& [name, t] : rec.totals())
    std::printf("span %-22s count %9llu  total %12.3f ms  self %12.3f ms\n",
                name.c_str(), static_cast<unsigned long long>(t.count),
                static_cast<double>(t.total_ns) / 1e6,
                static_cast<double>(t.self_ns) / 1e6);
  if (!errors.empty())
    std::printf("%s: CHECK FAILED: %s\n", a.workload.c_str(), errors.c_str());
  std::cout << perfbench::result_json(errors.empty(),
                                      plain.attempted + traced.attempted,
                                      plain.failed + traced.failed, m)
            << std::endl;
  return errors.empty() ? 0 : 1;
}

// ---- sim-sweep -------------------------------------------------------------

void print_sim(const std::string& label, const perfbench::SimResult& r,
               const perfbench::Summary& s) {
  std::printf(
      "%s: %llu passes x %llu scenarios in %.3f s = %.2f scenarios/s, %.1f "
      "committed req/s; violations %llu; %llu per pass ran into the event "
      "cap; fingerprint %s (%s)\n",
      label.c_str(), static_cast<unsigned long long>(r.passes),
      static_cast<unsigned long long>(r.pass_scenarios), r.sweep_s,
      static_cast<double>(r.scenarios) / r.sweep_s,
      static_cast<double>(r.requests) / r.sweep_s,
      static_cast<unsigned long long>(r.violations),
      static_cast<unsigned long long>(r.capped), r.fingerprint.c_str(),
      r.fingerprint_stable ? "identical in every pass" : "UNSTABLE");
  std::printf("%s: scenario wall time (median over passes) n=%zu p50=%.1f us "
              "p99=%.1f us "
              "p%.1f=%.1f us; client latency p50<=%llu p99<=%llu ticks\n",
              label.c_str(), s.n, s.p50, s.p99, s.tail_q * 100, s.tail,
              static_cast<unsigned long long>(r.latency_ticks.quantile(0.5)),
              static_cast<unsigned long long>(r.latency_ticks.quantile(0.99)));
}

std::string sim_check(const perfbench::SimResult& r,
                      const perfbench::Summary& s) {
  std::string e = r.errors;
  if (r.violations != 0 && e.empty()) e += "invariant violations; ";
  if (!r.fingerprint_stable && e.empty()) e += "fingerprint unstable; ";
  if (s.tail_q < 0.99) e += "too few scenarios to support p99; ";
  return e;
}

int run_sim_workload(const Args& a) {
  perfbench::SimOptions o;
  o.seed = a.seed;
  o.seconds = a.seconds;

  if (!a.trace) {
    std::vector<double> setups;
    add_probes(a, setups);
    o.after_pass = [&] { add_probes(a, setups); };
    const perfbench::SimResult r = perfbench::run_sim(o);
    const perfbench::Summary s = perfbench::summarize(r.scenario_us);
    print_sim(a.workload, r, s);
    const std::string errors = sim_check(r, s);
    if (!errors.empty())
      std::printf("%s: CHECK FAILED: %s\n", a.workload.c_str(), errors.c_str());
    Metrics m;
    m["rps"] = {static_cast<double>(r.requests) / r.sweep_s, "1/s"};
    m["p50_us"] = {s.p50, "us"};
    m["p99_us"] = {s.p99, "us"};
    m["setup_s"] = {setup_median(a.workload, setups), "s"};
    m["peak_rss_mb"] = {perfbench::peak_rss_mb(), "MB"};
    std::cout << perfbench::result_json(errors.empty(), r.scenarios,
                                        r.violations, m)
              << std::endl;
    return errors.empty() ? 0 : 1;
  }

  o.seconds = a.seconds / 2;
  const perfbench::SimResult plain = perfbench::run_sim(o);
  perfbench::SpanRecorder rec;
  perfbench::SimOptions paired = o;
  paired.rec = &rec;
  const perfbench::SimResult pr = perfbench::run_sim(paired);
  const perfbench::Summary s = perfbench::summarize(plain.scenario_us);
  print_sim(a.workload + " (untraced half)", plain, s);
  print_sim(a.workload + " (paired half)", pr, perfbench::summarize(pr.scenario_us));
  std::string errors = sim_check(plain, s);
  if (pr.fingerprint != plain.fingerprint)
    errors += "paired run fingerprint differs; ";

  const double ops = static_cast<double>(plain.pass_requests);
  Metrics m = per_layer_defaults();
  m["crypto.macs_per_op"].value = ratio(static_cast<double>(plain.sig.macs), ops);
  m["crypto.memo_hit_rate"].value = memo_hit_rate(plain.sig);
  m["wire.msgs_per_op"].value = ratio(static_cast<double>(plain.wire_msgs), ops);
  m["wire.bytes_per_op"].value =
      ratio(static_cast<double>(plain.wire_bytes), ops);
  m["wire.dropped"].value = static_cast<double>(plain.wire_dropped);
  m["sim.events_per_scenario"].value =
      ratio(static_cast<double>(plain.events),
            static_cast<double>(plain.pass_scenarios));
  m["sim.ns_per_event"].value =
      ratio(plain.sweep_s * 1e9,
            static_cast<double>(plain.events * plain.passes));
  m["sim.ring_share"].value =
      ratio(static_cast<double>(plain.ring_events),
            static_cast<double>(plain.ring_events + plain.heap_events));
  m["sim.scenarios_per_s"].value =
      static_cast<double>(plain.scenarios) / plain.sweep_s;
  m["sim.p50_ticks"].value =
      static_cast<double>(plain.latency_ticks.quantile(0.5));
  m["sim.p99_ticks"].value =
      static_cast<double>(plain.latency_ticks.quantile(0.99));
  m["explore.capped_scenarios"].value = static_cast<double>(plain.capped);
  m["explore.invariant_share"].value =
      ratio(pr.standard_s - pr.empty_s, pr.standard_s);
  m["obs.trace_overhead"].value =
      ratio(static_cast<double>(pr.requests) / pr.standard_s,
            static_cast<double>(plain.requests) / plain.sweep_s);
  m["obs.spans"].value = static_cast<double>(pr.scenarios * 2);
  if (!a.spans.empty() && !rec.write_chrome_trace(a.spans))
    errors += "could not write " + a.spans + "; ";
  if (!errors.empty())
    std::printf("%s: CHECK FAILED: %s\n", a.workload.c_str(), errors.c_str());
  std::cout << perfbench::result_json(errors.empty(),
                                      plain.scenarios + pr.scenarios,
                                      plain.violations + pr.violations, m)
            << std::endl;
  return errors.empty() ? 0 : 1;
}

/// Probe mode: set the workload up, report it ready, tear it down.
int run_probe(const Args& a) {
  const auto ready = [] {
    std::fputs("ready\n", stdout);
    std::fflush(stdout);
  };
  if (a.workload == "sim-sweep")
    perfbench::sim_bring_up(ready);
  else
    perfbench::udp_bring_up(udp_options(a), ready);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse(argc, argv);
  try {
    if (a.probe) return run_probe(a);
    return a.workload == "sim-sweep" ? run_sim_workload(a)
                                     : run_udp_workload(a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
