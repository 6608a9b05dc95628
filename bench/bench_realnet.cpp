// bench_realnet: drive a LIVE MinBFT UDP cluster to saturation and report
// the throughput/latency curve plus the socket-path economics.
//
// Everything else in bench/ measures the simulator; this binary measures
// the real backend (DESIGN.md §13/§15): four replica Worlds, each on its
// own RealRuntime with its own UDP socket and OS thread, plus one client
// World whose RealRuntime hosts an SmrClient fleet on one loop — the dsnet
// bench-client shape, in-process so CI can run it. Workloads come from
// sim/workload.h specs: the curve points are closed-loop fleets of
// increasing concurrency (offered load collapses when latency grows, so
// the knee is honest), and the frame-conservation run is a paced open-loop
// fleet (no overload, so loopback UDP loses nothing and the send/receive
// counters must balance EXACTLY).
//
// Emits BENCH_realnet.json (schema: bench/realnet_schema.json, validated
// in CI by tools/validate_trace.py). Two figures of merit beyond the
// curve itself:
//
//   * syscalls-per-datagram at the saturation point — < 1.0 iff
//     recvmmsg/sendmmsg actually batch (each productive recvmmsg returning
//     k datagrams costs 1/k syscalls each); gated under --check on the
//     mmsg path in full runs;
//   * the frame-conservation identity on the paced run — every frame a
//     handler tried to send is accounted as kernel-accepted, send-failed,
//     or refused-oversized, and every kernel-accepted frame shows up
//     received or rejected-malformed on the far side:
//         sent == received + malformed   (and failed == oversized == 0)
//     This is the regression gate for the silent send-path loss this
//     PR's bugfixes closed: before, kernel rejections vanished without a
//     counter and the identity was uncheckable.
//
// Usage:
//   bench_realnet [--smoke] [--check] [--out FILE] [--portable] [--seed S]
//   --smoke     tiny workload (CI): 2 curve points' worth of requests
//   --check     enforce gates (conservation exact, syscall ratios) and
//               exit 1 on violation
//   --portable  force the one-datagram recvfrom/sendto path everywhere
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "agreement/client.h"
#include "agreement/minbft.h"
#include "agreement/state_machines.h"
#include "agreement/usig_directory.h"
#include "runtime/real_runtime.h"
#include "sim/workload.h"
#include "sim/world.h"

using namespace unidir;
using namespace unidir::agreement;

namespace {

using SteadyClock = std::chrono::steady_clock;

struct ClusterConfig {
  std::size_t replicas = 4;
  std::size_t clients = 2;
  std::size_t outstanding = 1;
  std::uint64_t requests_per_client = 8;
  bool open_loop = false;
  Time mean_interarrival = 10;   // open-loop pacing, in ticks
  std::uint64_t tick_us = 200;
  std::uint64_t seed = 7;
  std::uint64_t timeout_s = 60;
  bool use_mmsg = true;
  bool settle = false;  // poll counters to stability before reading them
};

struct ClusterResult {
  std::uint64_t offered = 0;
  std::uint64_t completed = 0;
  std::uint64_t gave_up = 0;
  double wall_secs = 0;
  std::vector<Time> latencies;  // ticks, all clients, completion order
  runtime::UdpTransportStats totals{};  // summed over every runtime
  bool receiver_dead = false;
  bool timed_out = false;
};

/// One replica's whole stack: its World (owning the runtime), the USIG
/// directory backing its enclave, and the thread its loop runs on.
struct ReplicaNode {
  std::unique_ptr<sim::World> world;
  std::unique_ptr<SgxUsigDirectory> usigs;
  runtime::RealRuntime* rt = nullptr;
  std::thread thread;
};

void accumulate(runtime::UdpTransportStats& t,
                const runtime::UdpTransportStats& u) {
  t.frames_sent += u.frames_sent;
  t.frames_received += u.frames_received;
  t.frames_malformed += u.frames_malformed;
  t.frames_no_peer += u.frames_no_peer;
  t.loopback_messages += u.loopback_messages;
  t.frames_corrupt_tx += u.frames_corrupt_tx;
  t.frames_send_failed += u.frames_send_failed;
  t.frames_oversized += u.frames_oversized;
  t.recv_syscalls += u.recv_syscalls;
  t.recv_timeouts += u.recv_timeouts;
  t.send_syscalls += u.send_syscalls;
  t.receiver_dead = t.receiver_dead || u.receiver_dead;
}

/// Builds a full cluster (fresh sockets, fresh counters), runs the given
/// workload to completion, and tears it down. One call per data point so
/// every point's socket counters are its own.
ClusterResult run_cluster(const ClusterConfig& cfg) {
  const std::size_t total = cfg.replicas + cfg.clients;
  const std::size_t f = (cfg.replicas - 1) / 2;

  // Bind every runtime to an ephemeral loopback port first, then
  // cross-wire the peer tables once all ports are known. Runtime index i
  // < replicas serves replica i; the last one serves the whole client
  // fleet (all client ids share its socket — frames carry the destination
  // id, and the loop dispatches each to its owner).
  std::vector<std::unique_ptr<runtime::RealRuntime>> rts;
  for (std::size_t i = 0; i <= cfg.replicas; ++i) {
    runtime::RealRuntimeOptions ropt;
    ropt.tick_ns = cfg.tick_us * 1000;
    ropt.listen = "127.0.0.1:0";
    ropt.use_recvmmsg = cfg.use_mmsg;
    ropt.use_sendmmsg = cfg.use_mmsg;
    rts.push_back(std::make_unique<runtime::RealRuntime>(ropt));
  }
  std::vector<std::uint16_t> ports;
  for (auto& rt : rts) ports.push_back(rt->bound_port());
  for (std::size_t i = 0; i < rts.size(); ++i)
    for (ProcessId p = 0; p < total; ++p) {
      const std::size_t owner = p < cfg.replicas ? p : cfg.replicas;
      if (owner == i) continue;  // hosted here: loopback, not the socket
      rts[i]->add_peer(p, "127.0.0.1", ports[owner]);
    }

  MinBftReplica::Options opt;
  opt.f = f;
  for (ProcessId p = 0; p < cfg.replicas; ++p) opt.replicas.push_back(p);
  // Commit latency at the saturation knee can cross the default timeout;
  // a spurious view change mid-measurement would poison the curve.
  opt.view_change_timeout = 2500;

  std::vector<std::unique_ptr<ReplicaNode>> nodes;
  for (std::size_t i = 0; i < cfg.replicas; ++i) {
    auto node = std::make_unique<ReplicaNode>();
    node->rt = rts[i].get();
    node->world = std::make_unique<sim::World>(cfg.seed, std::move(rts[i]));
    node->usigs = std::make_unique<SgxUsigDirectory>(node->world->keys());
    node->world->provision(total);
    // Materialize enclaves in id order in EVERY world so all key
    // registries derive identically (DESIGN.md §13).
    for (ProcessId p = 0; p < cfg.replicas; ++p) node->usigs->enclave_for(p);
    node->world->spawn_at<MinBftReplica>(static_cast<ProcessId>(i), opt,
                                         *node->usigs,
                                         std::make_unique<KvStateMachine>());
    nodes.push_back(std::move(node));
  }

  runtime::RealRuntime* client_rt = rts[cfg.replicas].get();
  sim::World cworld(cfg.seed, std::move(rts[cfg.replicas]));
  SgxUsigDirectory cusigs(cworld.keys());
  cworld.provision(total);
  for (ProcessId p = 0; p < cfg.replicas; ++p) cusigs.enclave_for(p);

  SmrClient::Options copt;
  copt.replicas = opt.replicas;
  copt.f = f;
  copt.max_attempts = 10;
  copt.resend_jitter = 64;
  // Open loop must not self-throttle: arrivals are timer-driven, so the
  // pipeline window just needs to be out of the way.
  copt.max_outstanding =
      cfg.open_loop ? cfg.requests_per_client : cfg.outstanding;
  std::vector<SmrClient*> fleet;
  for (std::size_t c = 0; c < cfg.clients; ++c)
    fleet.push_back(&cworld.spawn_at<SmrClient>(
        static_cast<ProcessId>(cfg.replicas + c), copt));

  sim::WorkloadSpec spec;
  spec.clients = cfg.clients;
  spec.requests_per_client = cfg.requests_per_client;
  spec.open_loop = cfg.open_loop;
  spec.mean_interarrival = cfg.mean_interarrival;
  spec.max_outstanding = copt.max_outstanding;
  spec.key_space = 16;
  spec.seed = cfg.seed + 1;
  const auto plans = spec.plan();

  auto op_for = [](std::uint64_t key, std::uint64_t i) {
    const std::string k = "k" + std::to_string(key);
    return i % 3 == 2 ? KvStateMachine::get_op(k)
                      : KvStateMachine::put_op(k, "v" + std::to_string(i));
  };
  for (std::size_t c = 0; c < fleet.size(); ++c) {
    const auto& arrivals = plans[c].arrivals;
    for (std::size_t i = 0; i < arrivals.size(); ++i) {
      Bytes op = op_for(arrivals[i].key, i);
      if (cfg.open_loop) {
        // Pre-run arm: the submission fires at its planned arrival tick,
        // completions notwithstanding.
        SmrClient* cl = fleet[c];
        cworld.runtime().arm_for(
            static_cast<ProcessId>(cfg.replicas + c), arrivals[i].at,
            [cl, op = std::move(op)]() mutable { cl->submit(std::move(op)); });
      } else {
        fleet[c]->submit(std::move(op));
      }
    }
  }

  // Launch: replicas first (each loop on its own thread), then the client
  // fleet on the calling thread. All Worlds exist before any loop runs,
  // so every receiver thread has its deliver hook installed.
  std::atomic<bool> stop_replicas{false};
  for (auto& node : nodes) node->world->start();
  for (auto& node : nodes) {
    ReplicaNode* n = node.get();
    n->thread = std::thread([n, &stop_replicas] {
      n->world->run_until(
          [n, &stop_replicas] {
            return stop_replicas.load(std::memory_order_relaxed) ||
                   n->rt->stats().receiver_dead;
          },
          SIZE_MAX);
    });
  }

  ClusterResult res;
  res.offered = spec.total_requests();
  cworld.start();
  const auto deadline =
      SteadyClock::now() + std::chrono::seconds(cfg.timeout_s);
  // The predicate runs on the client loop, between its handlers, so it
  // reads the fleet's counters directly.
  auto completed = [&fleet] {
    std::uint64_t n = 0;
    for (const SmrClient* cl : fleet) n += cl->completed();
    return n;
  };
  const auto t0 = SteadyClock::now();
  cworld.run_until(
      [&] {
        return completed() >= res.offered ||
               client_rt->stats().receiver_dead ||
               SteadyClock::now() >= deadline;
      },
      SIZE_MAX);
  res.wall_secs =
      std::chrono::duration<double>(SteadyClock::now() - t0).count();
  res.timed_out =
      SteadyClock::now() >= deadline && completed() < res.offered;

  // run_until ran the client loop on this thread and has returned, so
  // fleet state is safe to read from here.
  for (SmrClient* cl : fleet) {
    res.completed += cl->completed();
    res.gave_up += cl->gave_up();
    res.latencies.insert(res.latencies.end(), cl->latencies().begin(),
                         cl->latencies().end());
  }

  auto totals_now = [&] {
    runtime::UdpTransportStats t{};
    for (auto& node : nodes) accumulate(t, node->rt->udp_stats());
    accumulate(t, client_rt->udp_stats());
    return t;
  };
  if (cfg.settle) {
    // Conservation needs a quiesced cluster: replicas may still be
    // exchanging commit/checkpoint traffic when the last reply lands.
    // Poll until two consecutive reads agree (bounded, ~2s worst case).
    runtime::UdpTransportStats prev = totals_now();
    for (int i = 0; i < 40; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      const runtime::UdpTransportStats cur = totals_now();
      if (cur.frames_sent == prev.frames_sent &&
          cur.frames_received == prev.frames_received &&
          cur.frames_sent == cur.frames_received + cur.frames_malformed)
        break;
      prev = cur;
    }
  }
  res.totals = totals_now();
  res.receiver_dead = res.totals.receiver_dead;

  stop_replicas.store(true, std::memory_order_relaxed);
  for (auto& node : nodes) node->rt->stop();
  for (auto& node : nodes)
    if (node->thread.joinable()) node->thread.join();
  return res;
}

std::uint64_t pct_us(std::vector<Time> lat, double q, std::uint64_t tick_us) {
  if (lat.empty()) return 0;
  std::sort(lat.begin(), lat.end());
  const auto idx = static_cast<std::size_t>(
      q * static_cast<double>(lat.size() - 1) + 0.5);
  return lat[std::min(idx, lat.size() - 1)] * tick_us;
}

struct CurvePoint {
  ClusterConfig cfg;
  ClusterResult res;
  double rps = 0;
  std::uint64_t p50_us = 0, p99_us = 0;
};

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false, check = false, portable = false;
  std::string out = "BENCH_realnet.json";
  std::uint64_t seed = 7;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") smoke = true;
    else if (flag == "--check") check = true;
    else if (flag == "--portable") portable = true;
    else if (flag == "--out" && i + 1 < argc) out = argv[++i];
    else if (flag == "--seed" && i + 1 < argc)
      seed = std::strtoull(argv[++i], nullptr, 10);
    else {
      std::fprintf(stderr,
                   "usage: %s [--smoke] [--check] [--portable] "
                   "[--out FILE] [--seed S]\n",
                   argv[0]);
      return 2;
    }
  }
#if defined(__linux__)
  const bool mmsg_compiled = !portable;
#else
  const bool mmsg_compiled = false;
#endif

  ClusterConfig base;
  base.seed = seed;
  base.use_mmsg = !portable;
  base.timeout_s = smoke ? 30 : 60;

  // Closed-loop curve: concurrency (clients x outstanding window) doubles
  // per point; the knee where rps flattens and p99 grows is saturation.
  struct Load {
    std::size_t clients, outstanding;
    std::uint64_t per_client;
  };
  std::vector<Load> loads;
  if (smoke) {
    loads = {{2, 2, 6}, {4, 4, 6}};
  } else {
    loads = {{1, 1, 100}, {4, 4, 100}, {8, 8, 100}, {16, 16, 75}};
  }

  std::vector<CurvePoint> curve;
  bool ok = true;
  for (const Load& l : loads) {
    CurvePoint pt;
    pt.cfg = base;
    pt.cfg.clients = l.clients;
    pt.cfg.outstanding = l.outstanding;
    pt.cfg.requests_per_client = l.per_client;
    std::printf("curve: clients=%zu outstanding=%zu requests=%llu ...\n",
                l.clients, l.outstanding,
                static_cast<unsigned long long>(l.clients * l.per_client));
    std::fflush(stdout);
    pt.res = run_cluster(pt.cfg);
    pt.rps = pt.res.wall_secs > 0
                 ? static_cast<double>(pt.res.completed) / pt.res.wall_secs
                 : 0;
    pt.p50_us = pct_us(pt.res.latencies, 0.50, pt.cfg.tick_us);
    pt.p99_us = pct_us(pt.res.latencies, 0.99, pt.cfg.tick_us);
    std::printf(
        "  -> %llu/%llu committed in %.2fs (%.0f req/s, p50=%lluus "
        "p99=%lluus, recv spd=%.3f send spd=%.3f)\n",
        static_cast<unsigned long long>(pt.res.completed),
        static_cast<unsigned long long>(pt.res.offered), pt.res.wall_secs,
        pt.rps, static_cast<unsigned long long>(pt.p50_us),
        static_cast<unsigned long long>(pt.p99_us),
        pt.res.totals.recv_syscalls_per_datagram(),
        pt.res.totals.send_syscalls_per_datagram());
    if (pt.res.completed < pt.res.offered || pt.res.gave_up > 0 ||
        pt.res.receiver_dead || pt.res.timed_out) {
      std::fprintf(stderr,
                   "FAIL: point clients=%zu outstanding=%zu: "
                   "completed=%llu/%llu gave_up=%llu receiver_dead=%d "
                   "timed_out=%d\n",
                   l.clients, l.outstanding,
                   static_cast<unsigned long long>(pt.res.completed),
                   static_cast<unsigned long long>(pt.res.offered),
                   static_cast<unsigned long long>(pt.res.gave_up),
                   pt.res.receiver_dead ? 1 : 0, pt.res.timed_out ? 1 : 0);
      ok = false;
    }
    curve.push_back(std::move(pt));
  }

  // Saturation = the measured-best point; its socket economics are the
  // headline (batching only matters when there is something to batch).
  const CurvePoint* sat = &curve.front();
  for (const CurvePoint& pt : curve)
    if (pt.rps > sat->rps) sat = &pt;

  // Frame conservation on a PACED open-loop run: arrival gaps of
  // mean_interarrival ticks keep the cluster far from overload, so
  // loopback UDP drops nothing and the identity must hold exactly.
  ClusterConfig ccons = base;
  ccons.clients = 2;
  ccons.open_loop = true;
  ccons.mean_interarrival = smoke ? 10 : 25;
  ccons.requests_per_client = smoke ? 4 : 20;
  ccons.settle = true;
  std::printf("conservation: paced open-loop, %llu requests ...\n",
              static_cast<unsigned long long>(ccons.clients *
                                              ccons.requests_per_client));
  std::fflush(stdout);
  const ClusterResult cons = run_cluster(ccons);
  const auto& ct = cons.totals;
  const std::int64_t cons_delta =
      static_cast<std::int64_t>(ct.frames_sent) -
      static_cast<std::int64_t>(ct.frames_received + ct.frames_malformed);
  const bool cons_ok = cons_delta == 0 && ct.frames_send_failed == 0 &&
                       ct.frames_oversized == 0 && ct.frames_malformed == 0 &&
                       ct.frames_no_peer == 0;
  std::printf(
      "  -> sent=%llu received=%llu malformed=%llu failed=%llu "
      "oversized=%llu delta=%lld %s\n",
      static_cast<unsigned long long>(ct.frames_sent),
      static_cast<unsigned long long>(ct.frames_received),
      static_cast<unsigned long long>(ct.frames_malformed),
      static_cast<unsigned long long>(ct.frames_send_failed),
      static_cast<unsigned long long>(ct.frames_oversized),
      static_cast<long long>(cons_delta), cons_ok ? "(conserved)" : "");
  if (cons.completed < cons.offered || cons.receiver_dead || cons.timed_out) {
    std::fprintf(stderr, "FAIL: conservation run incomplete: %llu/%llu\n",
                 static_cast<unsigned long long>(cons.completed),
                 static_cast<unsigned long long>(cons.offered));
    ok = false;
  }

  // ---- report ---------------------------------------------------------------
  FILE* fp = std::fopen(out.c_str(), "w");
  if (fp == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out.c_str());
    return 1;
  }
  std::fprintf(fp, "{\n");
  std::fprintf(fp, "  \"scenario\": \"minbft-4replica-realnet-udp\",\n");
  std::fprintf(fp, "  \"smoke\": %s,\n", smoke ? "true" : "false");
  std::fprintf(fp, "  \"tick_us\": %llu,\n",
               static_cast<unsigned long long>(base.tick_us));
  std::fprintf(fp, "  \"replicas\": %zu,\n", base.replicas);
  std::fprintf(fp, "  \"recv_batch\": %zu,\n",
               runtime::RealRuntime::kRecvBatch);
  std::fprintf(fp, "  \"send_batch\": %zu,\n",
               runtime::RealRuntime::kSendBatch);
  std::fprintf(fp, "  \"mmsg_compiled\": %s,\n",
               mmsg_compiled ? "true" : "false");
  std::fprintf(fp, "  \"curve\": [\n");
  for (std::size_t i = 0; i < curve.size(); ++i) {
    const CurvePoint& pt = curve[i];
    std::fprintf(
        fp,
        "    {\"clients\": %zu, \"outstanding\": %zu, \"offered\": %llu, "
        "\"completed\": %llu, \"gave_up\": %llu, \"wall_secs\": %.6f, "
        "\"rps\": %.3f, \"p50_us\": %llu, \"p99_us\": %llu, "
        "\"recv_spd\": %.6f, \"send_spd\": %.6f}%s\n",
        pt.cfg.clients, pt.cfg.outstanding,
        static_cast<unsigned long long>(pt.res.offered),
        static_cast<unsigned long long>(pt.res.completed),
        static_cast<unsigned long long>(pt.res.gave_up), pt.res.wall_secs,
        pt.rps, static_cast<unsigned long long>(pt.p50_us),
        static_cast<unsigned long long>(pt.p99_us),
        pt.res.totals.recv_syscalls_per_datagram(),
        pt.res.totals.send_syscalls_per_datagram(),
        i + 1 < curve.size() ? "," : "");
  }
  std::fprintf(fp, "  ],\n");
  std::fprintf(fp, "  \"sat_clients\": %zu,\n", sat->cfg.clients);
  std::fprintf(fp, "  \"sat_outstanding\": %zu,\n", sat->cfg.outstanding);
  std::fprintf(fp, "  \"sat_rps\": %.3f,\n", sat->rps);
  std::fprintf(fp, "  \"sat_recv_syscalls_per_datagram\": %.6f,\n",
               sat->res.totals.recv_syscalls_per_datagram());
  std::fprintf(fp, "  \"sat_send_syscalls_per_datagram\": %.6f,\n",
               sat->res.totals.send_syscalls_per_datagram());
  std::fprintf(fp, "  \"sat_frames_sent\": %llu,\n",
               static_cast<unsigned long long>(sat->res.totals.frames_sent));
  std::fprintf(
      fp, "  \"sat_frames_received\": %llu,\n",
      static_cast<unsigned long long>(sat->res.totals.frames_received));
  std::fprintf(
      fp, "  \"sat_frames_send_failed\": %llu,\n",
      static_cast<unsigned long long>(sat->res.totals.frames_send_failed));
  std::fprintf(
      fp, "  \"sat_frames_oversized\": %llu,\n",
      static_cast<unsigned long long>(sat->res.totals.frames_oversized));
  std::fprintf(
      fp, "  \"sat_frames_malformed\": %llu,\n",
      static_cast<unsigned long long>(sat->res.totals.frames_malformed));
  std::fprintf(fp, "  \"receiver_dead\": %s,\n",
               (sat->res.receiver_dead || cons.receiver_dead) ? "true"
                                                              : "false");
  std::fprintf(fp, "  \"cons_offered\": %llu,\n",
               static_cast<unsigned long long>(cons.offered));
  std::fprintf(fp, "  \"cons_completed\": %llu,\n",
               static_cast<unsigned long long>(cons.completed));
  std::fprintf(fp, "  \"cons_frames_sent\": %llu,\n",
               static_cast<unsigned long long>(ct.frames_sent));
  std::fprintf(fp, "  \"cons_frames_received\": %llu,\n",
               static_cast<unsigned long long>(ct.frames_received));
  std::fprintf(fp, "  \"cons_frames_malformed\": %llu,\n",
               static_cast<unsigned long long>(ct.frames_malformed));
  std::fprintf(fp, "  \"cons_frames_send_failed\": %llu,\n",
               static_cast<unsigned long long>(ct.frames_send_failed));
  std::fprintf(fp, "  \"cons_frames_oversized\": %llu,\n",
               static_cast<unsigned long long>(ct.frames_oversized));
  std::fprintf(fp, "  \"cons_frames_no_peer\": %llu,\n",
               static_cast<unsigned long long>(ct.frames_no_peer));
  std::fprintf(fp, "  \"cons_delta\": %lld,\n",
               static_cast<long long>(cons_delta));
  std::fprintf(fp, "  \"cons_ok\": %s\n", cons_ok ? "true" : "false");
  std::fprintf(fp, "}\n");
  std::fclose(fp);
  std::printf("wrote %s\n", out.c_str());

  // ---- gates ----------------------------------------------------------------
  if (check) {
    if (!cons_ok) {
      std::fprintf(stderr,
                   "CHECK FAIL: frame conservation violated "
                   "(delta=%lld failed=%llu oversized=%llu malformed=%llu "
                   "no_peer=%llu)\n",
                   static_cast<long long>(cons_delta),
                   static_cast<unsigned long long>(ct.frames_send_failed),
                   static_cast<unsigned long long>(ct.frames_oversized),
                   static_cast<unsigned long long>(ct.frames_malformed),
                   static_cast<unsigned long long>(ct.frames_no_peer));
      ok = false;
    }
    const double spd = sat->res.totals.recv_syscalls_per_datagram();
    // Productive receive syscalls each return >= 1 datagram, so the ratio
    // can never exceed 1; strictly below 1 (real batching) is demanded of
    // full runs on the mmsg path — smoke workloads are too small to
    // guarantee concurrent arrivals.
    if (spd > 1.0 + 1e-9) {
      std::fprintf(stderr, "CHECK FAIL: recv syscalls/datagram %.4f > 1\n",
                   spd);
      ok = false;
    }
    if (!smoke && mmsg_compiled && spd >= 1.0) {
      std::fprintf(stderr,
                   "CHECK FAIL: recv syscalls/datagram %.4f at saturation "
                   "(recvmmsg is not batching)\n",
                   spd);
      ok = false;
    }
  }
  return ok ? 0 : 1;
}
