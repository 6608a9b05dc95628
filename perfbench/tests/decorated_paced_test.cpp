// A decorated (traced) udp-paced run must behave exactly like an
// undecorated one: the forwarding decorators may cost time, never change
// what the cluster commits or what the sockets carry.
#include <gtest/gtest.h>

#include "spans.h"
#include "udp_workload.h"

namespace perfbench {
namespace {

UdpOptions small_paced() {
  UdpOptions o;
  o.open_loop = true;
  // One client: its requests reach the primary over one socket pair, so
  // both runs order (and therefore execute) the same commands identically.
  o.clients = 1;
  o.seconds = 0.5;
  o.seed = 42;
  return o;
}

void expect_clean(const UdpResult& r) {
  EXPECT_EQ(r.errors, "");
  EXPECT_TRUE(r.digests_agree);
  EXPECT_TRUE(r.conservation_exact)
      << "sent " << r.udp.frames_sent << " received " << r.udp.frames_received
      << " malformed " << r.udp.frames_malformed;
  EXPECT_EQ(r.udp.frames_send_failed, 0u);
  EXPECT_EQ(r.udp.frames_oversized, 0u);
  EXPECT_EQ(r.udp.frames_no_peer, 0u);
  EXPECT_EQ(r.failed, 0u);
  EXPECT_GT(r.attempted, 50u);
}

TEST(DecoratedPaced, CommitsTheSameResultsAndConservesFrames) {
  const UdpResult plain = run_udp(small_paced());
  SpanRecorder rec;
  UdpOptions traced_opts = small_paced();
  traced_opts.rec = &rec;
  const UdpResult traced = run_udp(traced_opts);

  expect_clean(plain);
  expect_clean(traced);
  // Same seeded schedule, same commands, same state on every replica.
  EXPECT_EQ(plain.attempted, traced.attempted);
  EXPECT_EQ(plain.committed_total, traced.committed_total);
  EXPECT_EQ(plain.replica_executed, traced.replica_executed);
  EXPECT_EQ(plain.replica_digests, traced.replica_digests);

  // The decorators saw every layer.
  const auto totals = rec.totals();
  for (const char* name :
       {"runtime.send", "agreement.deliver", "agreement.exec",
        "trusted.create_ui", "client.request"})
    EXPECT_GT(totals.count(name) ? totals.at(name).count : 0u, 0u) << name;
  EXPECT_EQ(totals.at("client.request").count, traced.committed_total);
  EXPECT_GT(traced.usig_verifications, 0u);
}

}  // namespace
}  // namespace perfbench
