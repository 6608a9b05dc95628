#include "udp_workload.h"

#include <sys/prctl.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <functional>
#include <memory>
#include <random>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "agreement/client.h"
#include "agreement/minbft.h"
#include "agreement/state_machines.h"
#include "agreement/usig_directory.h"
#include "common/bytes.h"
#include "decorators.h"
#include "report.h"
#include "sim/world.h"

namespace perfbench {

namespace {

using namespace unidir;
using agreement::KvStateMachine;
using agreement::MinBftReplica;
using agreement::SgxUsigDirectory;
using agreement::SmrClient;

/// Loopback channel from the load-generator thread to the Submitter.
constexpr Channel kLoadCh = 900;
constexpr std::size_t kWindow = 16;  // closed loop: in flight per client
constexpr double kPacedRate = 400;   // open loop: arrivals/s, whole fleet
constexpr std::size_t kKeySpace = 16;
constexpr double kWarmupS = 0.5;
constexpr double kDrainS = 5;

std::uint64_t secs_to_ns(double s) {
  return static_cast<std::uint64_t>(s * 1e9);
}

/// Lives on the client loop and turns load-generator messages into
/// SmrClient submissions, so every submission happens on the loop that
/// owns the clients.
class Submitter final : public sim::Process {
 public:
  using Fn = std::function<void(const Bytes& payload)>;
  Submitter() {
    register_channel(kLoadCh, [this](ProcessId, const Bytes& payload) {
      if (fn_) fn_(payload);
    });
  }
  void set_fn(Fn fn) { fn_ = std::move(fn); }

 private:
  Fn fn_;
};

struct ReplicaNode {
  std::unique_ptr<sim::World> world;
  std::unique_ptr<SgxUsigDirectory> usigs;
  std::unique_ptr<TracedUsigDirectory> traced_usigs;
  runtime::RealRuntime* rt = nullptr;
  MinBftReplica* replica = nullptr;
  TracedDurableStore* durable = nullptr;
  std::atomic<std::uint64_t> executed{0};  // published by the loop thread
  std::thread thread;
};

std::unique_ptr<runtime::Runtime> maybe_traced(
    std::unique_ptr<runtime::RealRuntime> rt, SpanRecorder* rec) {
  if (rec == nullptr) return rt;
  return std::make_unique<TracedRuntime>(std::move(rt), rec);
}

/// A bound, provisioned, started cluster that has served one request.
/// Destruction stops and joins every replica loop.
class Cluster {
 public:
  explicit Cluster(const UdpOptions& o);
  ~Cluster() { stop(); }
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  void stop() {
    stop_.store(true, std::memory_order_relaxed);
    for (auto& n : nodes) n->rt->stop();
    for (auto& n : nodes)
      if (n->thread.joinable()) n->thread.join();
  }

  std::size_t replicas = 0;
  std::size_t total = 0;
  ProcessId submitter_id = kNoProcess;
  std::vector<std::unique_ptr<ReplicaNode>> nodes;
  runtime::RealRuntime* client_rt = nullptr;
  std::unique_ptr<sim::World> cworld;
  std::unique_ptr<SgxUsigDirectory> cusigs;
  std::vector<SmrClient*> fleet;
  Submitter* submitter = nullptr;

 private:
  std::atomic<bool> stop_{false};
};

Cluster::Cluster(const UdpOptions& o) {
  replicas = kReplicas;
  submitter_id = static_cast<ProcessId>(replicas + o.clients);
  total = replicas + o.clients + 1;

  // Bind every runtime to an ephemeral loopback port, then cross-wire the
  // peer tables. Runtime i < replicas serves replica i; the last serves
  // every client id and the submitter on one socket.
  std::vector<std::unique_ptr<runtime::RealRuntime>> rts;
  for (std::size_t i = 0; i <= replicas; ++i) {
    runtime::RealRuntimeOptions ropt;
    ropt.listen = "127.0.0.1:0";
    rts.push_back(std::make_unique<runtime::RealRuntime>(ropt));
  }
  std::vector<std::uint16_t> ports;
  for (auto& rt : rts) ports.push_back(rt->bound_port());
  for (std::size_t i = 0; i < rts.size(); ++i)
    for (ProcessId p = 0; p < total; ++p) {
      const std::size_t owner = p < replicas ? p : replicas;
      if (owner != i) rts[i]->add_peer(p, "127.0.0.1", ports[owner]);
    }

  MinBftReplica::Options ropt;
  ropt.f = kF;
  for (ProcessId p = 0; p < replicas; ++p) ropt.replicas.push_back(p);
  // Longer than any run: a view change would void the window.
  ropt.view_change_timeout = 600'000;

  for (std::size_t i = 0; i < replicas; ++i) {
    auto node = std::make_unique<ReplicaNode>();
    node->rt = rts[i].get();
    node->world = std::make_unique<sim::World>(
        o.seed, maybe_traced(std::move(rts[i]), o.rec));
    node->usigs = std::make_unique<SgxUsigDirectory>(node->world->keys());
    node->world->provision(total);
    // Materialize enclaves in id order in every World so all key
    // registries derive identically.
    for (ProcessId p = 0; p < replicas; ++p) node->usigs->enclave_for(p);
    agreement::UsigDirectory* usigs = node->usigs.get();
    std::unique_ptr<agreement::StateMachine> machine =
        std::make_unique<KvStateMachine>();
    if (o.rec != nullptr) {
      node->traced_usigs =
          std::make_unique<TracedUsigDirectory>(*node->usigs, o.rec);
      usigs = node->traced_usigs.get();
      machine = std::make_unique<TracedStateMachine>(std::move(machine), o.rec);
      auto durable = std::make_unique<TracedDurableStore>(o.rec);
      node->durable = durable.get();
      node->world->install_durable(static_cast<ProcessId>(i),
                                   std::move(durable));
    }
    node->replica = &node->world->spawn_at<MinBftReplica>(
        static_cast<ProcessId>(i), ropt, *usigs, std::move(machine));
    nodes.push_back(std::move(node));
  }

  client_rt = rts[replicas].get();
  cworld = std::make_unique<sim::World>(
      o.seed, maybe_traced(std::move(rts[replicas]), o.rec));
  cusigs = std::make_unique<SgxUsigDirectory>(cworld->keys());
  cworld->provision(total);
  for (ProcessId p = 0; p < replicas; ++p) cusigs->enclave_for(p);

  SmrClient::Options copt;
  copt.replicas = ropt.replicas;
  copt.f = kF;
  copt.max_attempts = 10;
  copt.resend_jitter = 64;
  // With 256 requests in flight, commit latency on udp-saturate sits near
  // the default 400-tick (400 ms) resend timeout. Spurious resends would
  // then add load exactly when the cluster is slowest, and the run would
  // measure that retry storm instead of the cluster.
  copt.resend_timeout = 2'000;
  // Open loop must not self-throttle: the schedule sets the load.
  copt.max_outstanding = o.open_loop ? 4096 : kWindow;
  for (std::size_t c = 0; c < o.clients; ++c)
    fleet.push_back(&cworld->spawn_at<SmrClient>(
        static_cast<ProcessId>(replicas + c), copt));
  submitter = &cworld->spawn_at<Submitter>(submitter_id);

  for (auto& n : nodes) n->world->start();
  for (auto& n : nodes) {
    ReplicaNode* node = n.get();
    node->thread = std::thread([this, node] {
      node->world->run_until(
          [this, node] {
            node->executed.store(node->replica->executed_count(),
                                 std::memory_order_relaxed);
            return stop_.load(std::memory_order_relaxed) ||
                   node->rt->stats().receiver_dead;
          },
          SIZE_MAX);
    });
  }
  // Ready means serving: one request round trip, which also waits out
  // every receiver thread's start-up, not only the calls that spawn them.
  bool served = false;
  cworld->start();
  fleet[0]->submit(KvStateMachine::get_op("ready"),
                   [&served](const Bytes&) { served = true; });
  const std::uint64_t give_up = now_ns() + 10'000'000'000ULL;
  cworld->run_until([&] { return served || now_ns() >= give_up; }, SIZE_MAX);
  if (!served) {
    stop();  // no destructor runs for a constructor that throws
    throw std::runtime_error("cluster did not serve a request");
  }
}

void accumulate(runtime::UdpTransportStats& t,
                const runtime::UdpTransportStats& u) {
  t.frames_sent += u.frames_sent;
  t.frames_received += u.frames_received;
  t.frames_malformed += u.frames_malformed;
  t.frames_no_peer += u.frames_no_peer;
  t.loopback_messages += u.loopback_messages;
  t.frames_send_failed += u.frames_send_failed;
  t.frames_oversized += u.frames_oversized;
  t.recv_syscalls += u.recv_syscalls;
  t.recv_timeouts += u.recv_timeouts;
  t.send_syscalls += u.send_syscalls;
  t.receiver_dead = t.receiver_dead || u.receiver_dead;
}

runtime::UdpTransportStats udp_totals(const Cluster& c) {
  runtime::UdpTransportStats t{};
  for (const auto& n : c.nodes) accumulate(t, n->rt->udp_stats());
  accumulate(t, c.client_rt->udp_stats());
  return t;
}

void add_world_counters(UdpResult& r, const sim::World& w) {
  for (const auto& [ch, cs] : w.wire_stats().channels()) {
    (void)ch;
    r.wire_msgs += cs.sent;
    r.wire_bytes += cs.bytes_sent;
  }
  r.wire_dropped += w.wire_stats().total_dropped();
  const crypto::VerifyStats& v = w.keys().verify_stats();
  r.sig.verifies += v.verifies;
  r.sig.memo_hits += v.memo_hits;
  r.sig.macs += v.macs;
  r.sig.batches += v.batches;
  r.sig.batch_jobs += v.batch_jobs;
}

/// One request as the benchmark sees it.
struct RequestRec {
  std::uint64_t start_ns = 0;  // submit (closed loop) or due time (open)
  std::uint64_t done_ns = 0;   // 0: never committed
  std::uint32_t client = 0;
  bool in_window = false;
};

Bytes make_op(std::mt19937_64& rng, std::uint64_t i) {
  const std::string key = "k" + std::to_string(rng() % kKeySpace);
  return i % 3 == 2 ? KvStateMachine::get_op(key)
                    : KvStateMachine::put_op(key, "v" + std::to_string(i));
}

}  // namespace

void udp_bring_up(const UdpOptions& opts, const std::function<void()>& ready) {
  Cluster c(opts);
  ready();
}

UdpResult run_udp(const UdpOptions& o) {
  UdpResult r;
  Cluster c(o);

  std::vector<RequestRec> recs;
  std::vector<std::uint64_t>& completions = r.completions;
  std::vector<std::mt19937_64> rngs;
  for (std::size_t i = 0; i < o.clients; ++i)
    rngs.emplace_back(o.seed * 1'000'003 + i);
  std::uint64_t t_start = 0, t0 = 0, t1 = 0, deadline = 0;
  std::uint64_t submitted = 0, completed = 0;
  bool submitting = true;

  auto on_done = [&](std::size_t idx) {
    RequestRec& rec = recs[idx];
    rec.done_ns = now_ns();
    ++completed;
    completions.push_back(rec.done_ns);
    if (o.rec != nullptr)
      o.rec->add_async("client.request",
                       (std::uint64_t{rec.client} << 32) | idx, rec.start_ns,
                       rec.done_ns);
  };
  // Submits the next request of client `cl`, stamped `start` (due time in
  // the open loop, now in the closed loop).
  std::function<void(std::size_t, std::uint64_t)> submit =
      [&](std::size_t cl, std::uint64_t start) {
        const std::size_t idx = recs.size();
        RequestRec rec;
        rec.start_ns = start;
        rec.client = static_cast<std::uint32_t>(cl);
        rec.in_window = start >= t0 && start < t1;
        recs.push_back(rec);
        ++submitted;
        c.fleet[cl]->submit(make_op(rngs[cl], idx),
                            [&, cl, idx](const Bytes&) {
                              on_done(idx);
                              if (!o.open_loop && submitting)
                                submit(cl, now_ns());
                            });
      };

  // Open loop: the whole schedule is drawn before the run from the seed.
  struct Arrival {
    std::uint64_t offset_ns;
    std::uint32_t client;
  };
  std::vector<Arrival> arrivals;
  if (o.open_loop) {
    std::mt19937_64 rng(o.seed * 7919 + 17);
    std::exponential_distribution<double> gap(kPacedRate);
    const double horizon = kWarmupS + o.seconds;
    double t = gap(rng);
    for (std::uint32_t i = 0; t < horizon; ++i, t += gap(rng))
      arrivals.push_back({secs_to_ns(t), static_cast<std::uint32_t>(
                                             i % o.clients)});
  }
  std::atomic<std::uint64_t> sent{0};
  std::atomic<bool> gen_done{!o.open_loop};
  std::atomic<bool> gen_stop{false};
  std::uint64_t delivered = 0;
  c.submitter->set_fn([&](const Bytes& payload) {
    std::uint64_t i = 0;
    for (int b = 0; b < 8; ++b) i |= std::uint64_t{payload[b]} << (8 * b);
    const std::uint64_t due = t_start + arrivals[i].offset_ns;
    if (due >= t0)
      r.lag_us.push_back(static_cast<double>(now_ns() - due) / 1e3);
    ++delivered;
    submit(arrivals[i].client, due);
  });

  t_start = now_ns();
  t0 = t_start + secs_to_ns(kWarmupS);
  t1 = t0 + secs_to_ns(o.seconds);
  deadline = t1 + secs_to_ns(kDrainS);
  if (!o.open_loop)
    for (std::size_t cl = 0; cl < o.clients; ++cl)
      for (std::size_t k = 0; k < kWindow; ++k) submit(cl, t_start);

  std::thread gen;
  // Stops and joins the generator on every way out of this scope.
  struct GenJoin {
    std::atomic<bool>& stop;
    std::thread& thread;
    ~GenJoin() {
      stop.store(true);
      if (thread.joinable()) thread.join();
    }
  } gen_join{gen_stop, gen};
  if (o.open_loop) {
    gen = std::thread([&] {
      // 1us timer slack instead of the default 50us: the schedule's
      // resolution is what loadgen.lag measures.
      prctl(PR_SET_TIMERSLACK, 1000UL, 0UL, 0UL, 0UL);
      for (std::size_t i = 0; i < arrivals.size(); ++i) {
        if (gen_stop.load(std::memory_order_relaxed)) break;
        const std::uint64_t due = t_start + arrivals[i].offset_ns;
        const std::uint64_t now = now_ns();
        if (due > now)
          std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
        Bytes payload(8);
        for (int b = 0; b < 8; ++b)
          payload[b] = static_cast<std::uint8_t>(i >> (8 * b));
        c.client_rt->transport().send(c.submitter_id, c.submitter_id, kLoadCh,
                                      Payload(std::move(payload)));
        sent.fetch_add(1, std::memory_order_relaxed);
      }
      gen_done.store(true);
    });
  }

  std::vector<std::uint64_t> seen_gave_up(o.clients, 0);
  c.cworld->run_until(
      [&] {
        const std::uint64_t now = now_ns();
        if (submitting && now >= t1) submitting = false;
        std::uint64_t gave_up = 0;
        for (std::size_t cl = 0; cl < o.clients; ++cl) {
          const std::uint64_t g = c.fleet[cl]->gave_up();
          // A closed-loop slot whose request was abandoned gets a fresh one.
          for (; seen_gave_up[cl] < g; ++seen_gave_up[cl])
            if (!o.open_loop && submitting) submit(cl, now);
          gave_up += g;
        }
        if (c.client_rt->stats().receiver_dead || now >= deadline) return true;
        if (submitting) return false;
        return gen_done.load() &&
               delivered == sent.load(std::memory_order_relaxed) &&
               submitted == completed + gave_up;
      },
      SIZE_MAX);
  gen_stop.store(true);
  if (gen.joinable()) gen.join();  // before reading lag_us and recs

  // Let the replicas converge on one executed count (a replica behind a
  // refused state transfer may never), then let in-flight frames land.
  auto executed_now = [&] {
    std::vector<std::uint64_t> v;
    for (auto& n : c.nodes)
      v.push_back(n->executed.load(std::memory_order_relaxed));
    return v;
  };
  {
    const std::uint64_t settle_until = now_ns() + secs_to_ns(3);
    std::vector<std::uint64_t> prev = executed_now();
    while (now_ns() < settle_until) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      const std::vector<std::uint64_t> cur = executed_now();
      const bool equal =
          std::adjacent_find(cur.begin(), cur.end(), std::not_equal_to<>()) ==
          cur.end();
      if (equal && cur == prev) break;
      prev = cur;
    }
    runtime::UdpTransportStats p = udp_totals(c);
    for (int i = 0; i < 40; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      const runtime::UdpTransportStats q = udp_totals(c);
      if (q.frames_sent == p.frames_sent &&
          q.frames_received == p.frames_received &&
          q.frames_sent == q.frames_received + q.frames_malformed)
        break;
      p = q;
    }
  }
  r.udp = udp_totals(c);
  c.stop();

  // -- read back (every loop has stopped) -----------------------------------
  r.window_s = static_cast<double>(t1 - t0) / 1e9;
  for (const std::uint64_t t : completions)
    if (t >= t0 && t < t1) ++r.committed_in_window;
  r.committed_total = completed;
  r.rps = static_cast<double>(r.committed_in_window) / r.window_s;
  r.tail_ratio = perfbench::tail_ratio(completions, t0, t1);
  for (const RequestRec& rec : recs) {
    if (!rec.in_window) continue;
    ++r.attempted;
    if (rec.done_ns != 0) {
      r.latency_us.push_back(static_cast<double>(rec.done_ns - rec.start_ns) /
                             1e3);
    } else {
      ++r.failed;
      r.latency_us.push_back(static_cast<double>(deadline - rec.start_ns) /
                             1e3);
    }
  }
  for (SmrClient* cl : c.fleet) r.gave_up += cl->gave_up();

  std::ostringstream errors;
  std::vector<std::pair<ProcessId, const agreement::ExecutionLog*>> logs;
  for (auto& n : c.nodes) {
    add_world_counters(r, *n->world);
    r.view_changes += n->replica->view_changes_seen();
    r.replica_executed.push_back(n->replica->executed_count());
    const crypto::Digest d = n->replica->state_digest();
    r.replica_digests.push_back(to_hex(ByteSpan(d.data(), d.size())));
    logs.emplace_back(n->replica->id(), &n->replica->execution_log());
    if (n->durable != nullptr) {
      r.persist_puts += n->durable->puts();
      r.persist_bytes += n->durable->bytes();
    }
    if (n->traced_usigs != nullptr)
      r.usig_verifications += n->traced_usigs->verifications();
  }
  add_world_counters(r, *c.cworld);
  const auto [lo, hi] = std::minmax_element(r.replica_executed.begin(),
                                            r.replica_executed.end());
  r.replica_lag = *hi - *lo;

  r.digests_agree = true;
  for (std::size_t i = 0; i < c.nodes.size(); ++i)
    for (std::size_t j = i + 1; j < c.nodes.size(); ++j)
      if (r.replica_executed[i] == r.replica_executed[j] &&
          r.replica_digests[i] != r.replica_digests[j]) {
        r.digests_agree = false;
        errors << "replicas " << i << " and " << j << " differ at "
               << r.replica_executed[i] << " executed; ";
      }
  if (const auto div = agreement::check_execution_consistency(logs)) {
    r.digests_agree = false;
    errors << "execution logs diverge: " << *div << "; ";
  }
  if (*hi < completed) {
    r.digests_agree = false;
    errors << "clients saw " << completed << " commits but no replica "
           << "executed more than " << *hi << "; ";
  }
  const runtime::UdpTransportStats& u = r.udp;
  r.conservation_exact = u.frames_sent == u.frames_received + u.frames_malformed &&
                         u.frames_send_failed == 0 && u.frames_oversized == 0 &&
                         u.frames_no_peer == 0;
  if (u.receiver_dead) errors << "a receiver thread died; ";
  if (r.view_changes != 0)
    errors << r.view_changes << " view changes voided the window; ";
  r.window_from_ns = t0;
  r.window_to_ns = t1;
  r.errors = errors.str();
  return r;
}

}  // namespace perfbench
