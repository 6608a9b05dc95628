// A fault-tolerant counter service, twice: once on MinBFT (trusted
// hardware, n = 2f+1) and once on PBFT (no trusted hardware, n = 3f+1),
// with the same client workload — making the paper's motivation concrete:
// what you buy by investing in a non-equivocation device.
//
// Build & run:  ./build/examples/trusted_counter_service
#include <cstdio>

#include "agreement/minbft.h"
#include "agreement/pbft.h"
#include "agreement/state_machines.h"
#include "sim/adversaries.h"

using namespace unidir;
using namespace unidir::agreement;

namespace {

struct Outcome {
  std::size_t replicas = 0;
  std::uint64_t completed = 0;
  std::int64_t final_value = 0;
  double mean_latency = 0;
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
};

template <typename MakeReplicas>
Outcome run_service(std::size_t n, std::size_t f,
                    MakeReplicas make_replicas) {
  sim::World world(/*seed=*/11,
                   std::make_unique<sim::RandomDelayAdversary>(1, 6));
  SgxUsigDirectory usigs(world.keys());
  std::vector<ProcessId> ids;
  for (ProcessId i = 0; i < n; ++i) ids.push_back(i);

  auto value_of = [](const Bytes& b) {
    return serde::decode<std::int64_t>(b);
  };
  std::int64_t last = 0;

  make_replicas(world, usigs, ids, f);

  SmrClient::Options copt;
  copt.replicas = ids;
  copt.f = f;
  auto& client = world.spawn<SmrClient>(copt);
  for (int k = 1; k <= 10; ++k)
    client.submit(CounterStateMachine::add_op(k),
                  [&last, value_of](const Bytes& r) { last = value_of(r); });
  world.start();
  world.run_to_quiescence();

  Outcome out;
  out.replicas = n;
  out.completed = client.completed();
  out.final_value = last;
  out.mean_latency = static_cast<double>(client.latency_sum()) /
                     static_cast<double>(client.completed());
  out.messages = world.network().stats().messages_sent;
  out.bytes = world.network().stats().bytes_sent;
  return out;
}

void print(const char* name, const Outcome& o) {
  std::printf("  %-8s  replicas=%zu  completed=%llu/10  final=%lld  "
              "mean latency=%.1f ticks  msgs=%llu  bytes=%llu\n",
              name, o.replicas, static_cast<unsigned long long>(o.completed),
              static_cast<long long>(o.final_value), o.mean_latency,
              static_cast<unsigned long long>(o.messages),
              static_cast<unsigned long long>(o.bytes));
}

}  // namespace

int main() {
  constexpr std::size_t kF = 1;
  std::printf("replicated counter, f=%zu: sum of 1..10 must equal 55\n\n",
              kF);

  const Outcome minbft = run_service(
      2 * kF + 1, kF,
      [](sim::World& w, UsigDirectory& usigs,
         const std::vector<ProcessId>& ids, std::size_t f) {
        MinBftReplica::Options o;
        o.replicas = ids;
        o.f = f;
        for (std::size_t i = 0; i < ids.size(); ++i)
          w.spawn<MinBftReplica>(o, usigs,
                                 std::make_unique<CounterStateMachine>());
      });

  const Outcome pbft = run_service(
      3 * kF + 1, kF,
      [](sim::World& w, UsigDirectory&, const std::vector<ProcessId>& ids,
         std::size_t f) {
        PbftReplica::Options o;
        o.replicas = ids;
        o.f = f;
        for (std::size_t i = 0; i < ids.size(); ++i)
          w.spawn<PbftReplica>(o, std::make_unique<CounterStateMachine>());
      });

  print("MinBFT", minbft);
  print("PBFT", pbft);

  std::printf("\ntrusted hardware saved %zu replica(s), %.0f%% of the "
              "messages, and %.1f ticks of latency per op\n",
              pbft.replicas - minbft.replicas,
              100.0 * (1.0 - static_cast<double>(minbft.messages) /
                                 static_cast<double>(pbft.messages)),
              pbft.mean_latency - minbft.mean_latency);

  const bool ok = minbft.completed == 10 && pbft.completed == 10 &&
                  minbft.final_value == 55 && pbft.final_value == 55;
  return ok ? 0 : 1;
}
