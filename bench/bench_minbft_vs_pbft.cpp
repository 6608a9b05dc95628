// Experiment E9 — the headline comparison the trusted-hardware literature
// motivates: MinBFT-style SMR on trusted counters (n = 2f+1, two phases)
// vs PBFT (n = 3f+1, three phases), at equal fault budget f.
//
// Expected shape (Veronese et al., reproduced here on the simulator):
//   * replicas:      MinBFT 2f+1  <  PBFT 3f+1
//   * protocol msgs: MinBFT ~ (n−1) + (n−1)² commits over n=2f+1, versus
//                    PBFT's pre-prepare + prepare + commit over n=3f+1 —
//                    fewer messages per request at every f;
//   * latency:       one fewer phase → fewer virtual ticks per request;
//   * the trade:     every MinBFT message costs a USIG (enclave) call,
//                    visible in wall time per simulated request.
//
// Counters are per-request averages over a closed-loop client workload.
#include <benchmark/benchmark.h>

#include "agreement/minbft.h"
#include "agreement/pbft.h"
#include "agreement/state_machines.h"
#include "sim/adversaries.h"

namespace {

using namespace unidir;
using namespace unidir::agreement;

constexpr int kRequests = 20;
constexpr Time kMaxDelay = 5;

struct Stats {
  double replicas = 0;
  double ticks_per_req = 0;
  double msgs_per_req = 0;
  double bytes_per_req = 0;
  double completed = 0;
  double total_ticks = 0;  // makespan (throughput = completed / this)
};

void report(benchmark::State& state, const Stats& s) {
  state.counters["replicas"] = s.replicas;
  state.counters["virtual_ticks/req"] = s.ticks_per_req;
  state.counters["net_msgs/req"] = s.msgs_per_req;
  state.counters["bytes/req"] = s.bytes_per_req;
  if (s.completed != kRequests) state.SkipWithError("requests incomplete");
}

enum class UsigBackend { Sgx, Trinc };

template <typename Replica, typename MakeReplica>
Stats run_smr(std::size_t n, std::size_t f, MakeReplica make_replica,
              bool crash_primary_midway,
              UsigBackend backend = UsigBackend::Sgx,
              std::size_t pipeline_depth = 1) {
  sim::World w(17, std::make_unique<sim::RandomDelayAdversary>(1, kMaxDelay));
  std::unique_ptr<UsigDirectory> usigs_owner;
  if (backend == UsigBackend::Sgx) {
    usigs_owner = std::make_unique<SgxUsigDirectory>(w.keys());
  } else {
    usigs_owner = std::make_unique<TrincUsigDirectory>(w.keys());
  }
  UsigDirectory& usigs = *usigs_owner;
  std::vector<ProcessId> ids;
  for (std::size_t i = 0; i < n; ++i) ids.push_back(static_cast<ProcessId>(i));
  std::vector<Replica*> replicas;
  for (std::size_t i = 0; i < n; ++i)
    replicas.push_back(make_replica(w, usigs, ids, f));
  SmrClient::Options copt;
  copt.replicas = ids;
  copt.f = f;
  copt.max_outstanding = pipeline_depth;
  auto& client = w.spawn<SmrClient>(copt);
  for (int k = 0; k < kRequests; ++k)
    client.submit(KvStateMachine::put_op("key" + std::to_string(k % 4),
                                         "value" + std::to_string(k)));
  w.start();
  if (crash_primary_midway) {
    w.run_until([&] { return client.completed() >= kRequests / 2; });
    w.crash(0);
  }
  w.run_to_quiescence();

  Stats s;
  s.replicas = static_cast<double>(n);
  s.completed = static_cast<double>(client.completed());
  s.total_ticks = static_cast<double>(w.now());
  s.ticks_per_req = static_cast<double>(client.latency_sum()) /
                    static_cast<double>(client.completed());
  s.msgs_per_req = static_cast<double>(w.network().stats().messages_sent) /
                   static_cast<double>(client.completed());
  s.bytes_per_req = static_cast<double>(w.network().stats().bytes_sent) /
                    static_cast<double>(client.completed());
  return s;
}

MinBftReplica* make_minbft(sim::World& w, UsigDirectory& usigs,
                           const std::vector<ProcessId>& ids, std::size_t f) {
  MinBftReplica::Options o;
  o.replicas = ids;
  o.f = f;
  return &w.spawn<MinBftReplica>(o, usigs,
                                 std::make_unique<KvStateMachine>());
}

PbftReplica* make_pbft(sim::World& w, UsigDirectory&,
                       const std::vector<ProcessId>& ids, std::size_t f) {
  PbftReplica::Options o;
  o.replicas = ids;
  o.f = f;
  return &w.spawn<PbftReplica>(o, std::make_unique<KvStateMachine>());
}

void BM_MinBft(benchmark::State& state) {
  const auto f = static_cast<std::size_t>(state.range(0));
  Stats s;
  for (auto _ : state)
    s = run_smr<MinBftReplica>(2 * f + 1, f, make_minbft, false);
  report(state, s);
}
BENCHMARK(BM_MinBft)->Arg(1)->Arg(2)->Arg(3)->Arg(4)->Arg(5);

void BM_Pbft(benchmark::State& state) {
  const auto f = static_cast<std::size_t>(state.range(0));
  Stats s;
  for (auto _ : state)
    s = run_smr<PbftReplica>(3 * f + 1, f, make_pbft, false);
  report(state, s);
}
BENCHMARK(BM_Pbft)->Arg(1)->Arg(2)->Arg(3)->Arg(4)->Arg(5);

// Failover: the view-0 primary crashes halfway through the workload; the
// counters then include the view-change cost amortized over the run.
void BM_MinBftPrimaryFailover(benchmark::State& state) {
  const auto f = static_cast<std::size_t>(state.range(0));
  Stats s;
  for (auto _ : state)
    s = run_smr<MinBftReplica>(2 * f + 1, f, make_minbft, true);
  report(state, s);
}
BENCHMARK(BM_MinBftPrimaryFailover)->Arg(1)->Arg(2);

void BM_PbftPrimaryFailover(benchmark::State& state) {
  const auto f = static_cast<std::size_t>(state.range(0));
  Stats s;
  for (auto _ : state)
    s = run_smr<PbftReplica>(3 * f + 1, f, make_pbft, true);
  report(state, s);
}
BENCHMARK(BM_PbftPrimaryFailover)->Arg(1)->Arg(2);

// Throughput: pipeline depth sweep — requests per virtual tick rises with
// outstanding requests until ordering serializes it.
void BM_MinBftPipelineDepth(benchmark::State& state) {
  const auto depth = static_cast<std::size_t>(state.range(0));
  Stats s;
  for (auto _ : state)
    s = run_smr<MinBftReplica>(3, 1, make_minbft, false, UsigBackend::Sgx,
                               depth);
  report(state, s);
  state.counters["req_per_ktick"] =
      1000.0 * s.completed / std::max(1.0, s.total_ticks);
}
BENCHMARK(BM_MinBftPipelineDepth)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Arg(16);

// Ablation: the conservative commit quorum (f+1 default vs all n).
void BM_MinBftConservativeQuorum(benchmark::State& state) {
  const auto quorum = static_cast<std::size_t>(state.range(0));
  Stats s;
  for (auto _ : state) {
    s = run_smr<MinBftReplica>(
        5, 2,
        [quorum](sim::World& w, UsigDirectory& usigs,
                 const std::vector<ProcessId>& ids, std::size_t f) {
          MinBftReplica::Options o;
          o.replicas = ids;
          o.f = f;
          o.commit_quorum = quorum;
          return &w.spawn<MinBftReplica>(o, usigs,
                                         std::make_unique<KvStateMachine>());
        },
        false);
  }
  report(state, s);
}
BENCHMARK(BM_MinBftConservativeQuorum)->Arg(3)->Arg(4)->Arg(5);

// Ablation: the USIG backend — the SGX enclave vs a TrInc trinket. Both
// are trusted logs; the protocol is identical, only the attestation path
// differs (visible in wall time, not in message counts).
void BM_MinBftTrincUsig(benchmark::State& state) {
  const auto f = static_cast<std::size_t>(state.range(0));
  Stats s;
  for (auto _ : state)
    s = run_smr<MinBftReplica>(2 * f + 1, f, make_minbft, false,
                               UsigBackend::Trinc);
  report(state, s);
}
BENCHMARK(BM_MinBftTrincUsig)->Arg(1)->Arg(2)->Arg(3);

// Ablation (DESIGN.md §6): checkpoint interval. Frequent checkpoints add
// n² traffic but bound view-change payloads.
void BM_MinBftCheckpointInterval(benchmark::State& state) {
  const auto interval = static_cast<SeqNum>(state.range(0));
  Stats s;
  for (auto _ : state) {
    s = run_smr<MinBftReplica>(
        3, 1,
        [interval](sim::World& w, UsigDirectory& usigs,
                   const std::vector<ProcessId>& ids, std::size_t f) {
          MinBftReplica::Options o;
          o.replicas = ids;
          o.f = f;
          o.checkpoint_interval = interval;
          return &w.spawn<MinBftReplica>(o, usigs,
                                         std::make_unique<KvStateMachine>());
        },
        false);
  }
  report(state, s);
}
BENCHMARK(BM_MinBftCheckpointInterval)->Arg(1)->Arg(4)->Arg(16)->Arg(0);

}  // namespace
