// Soak test (ctest label: soak): a replica that keeps serving must keep
// its state flat. 16 pipelined clients x 16 requests in flight drive a
// MinBFT cluster through 10^4 requests on the simulator. The largest
// durable image (written at every checkpoint) and reply cache seen over
// the last 1k requests must match those seen over the 1k after the first
// 2k, and executed slots and view-change archive entries must not pile up.
// The replicas' timers must not pile up either: the event queue peaks as
// high over 10^3 requests as over 10^4.
#include <gtest/gtest.h>

#include "agreement/minbft.h"
#include "agreement/state_machines.h"
#include "replica_util.h"
#include "sim/adversaries.h"

namespace unidir::agreement {
namespace {

constexpr std::size_t kClients = 16;
constexpr std::size_t kWindow = 16;
constexpr std::uint64_t kRequests = 10'000;

/// Per-replica maxima over a stretch of the run.
struct Peak {
  std::size_t image_bytes = 0;
  std::size_t cache_entries = 0;
  std::size_t open_slots = 0;
  std::size_t archive = 0;
};

TEST(Soak, MinBftStateStaysFlatOverTenThousandRequests) {
  sim::World world(7, std::make_unique<sim::RandomDelayAdversary>(1, 4));
  SgxUsigDirectory usigs(world.keys());
  MinBftReplica::Options options;
  options.f = 1;
  options.replicas = {0, 1, 2};
  std::vector<MinBftReplica*> replicas;
  for (int i = 0; i < 3; ++i)
    replicas.push_back(&world.spawn<MinBftReplica>(
        options, usigs, std::make_unique<KvStateMachine>()));
  SmrClient::Options copt;
  copt.replicas = options.replicas;
  copt.f = 1;
  copt.max_outstanding = kWindow;
  std::vector<SmrClient*> clients;
  for (std::size_t c = 0; c < kClients; ++c)
    clients.push_back(&world.spawn<SmrClient>(copt));
  for (std::uint64_t k = 0; k < kRequests; ++k)
    clients[k % kClients]->submit(
        KvStateMachine::put_op("k" + std::to_string(k % 16), "v"));

  auto completed = [&] {
    std::uint64_t n = 0;
    for (const SmrClient* c : clients) n += c->completed();
    return n;
  };
  // Watches every replica after every event until `until` requests
  // completed, keeping the maxima seen from `from` on.
  auto watch = [&](std::uint64_t from, std::uint64_t until) {
    std::vector<Peak> peak(replicas.size());
    EXPECT_TRUE(world.run_until([&] {
      const std::uint64_t done = completed();
      if (done < from) return false;
      for (std::size_t i = 0; i < replicas.size(); ++i) {
        const MinBftReplica& r = *replicas[i];
        const Bytes* image = world.durable(r.id()).get("minbft/state");
        Peak& p = peak[i];
        p.image_bytes = std::max(p.image_bytes, image ? image->size() : 0);
        p.cache_entries =
            std::max(p.cache_entries, r.reply_cache().keys().size());
        p.open_slots = std::max(p.open_slots, r.open_slots());
        p.archive = std::max(p.archive, r.vc_archive_size());
      }
      return done >= until;
    }));
    return peak;
  };

  world.start();
  const std::vector<Peak> early = watch(2'000, 3'000);
  const std::vector<Peak> late = watch(kRequests - 1'000, kRequests);

  for (std::size_t i = 0; i < replicas.size(); ++i) {
    SCOPED_TRACE("replica " + std::to_string(i));
    EXPECT_EQ(replicas[i]->view(), 0u);
    ASSERT_GT(early[i].image_bytes, 0u);
    // Flat: the image holds the log since the last stable checkpoint, the
    // machine snapshot and the reply windows; none of it scales with the
    // requests served. The 10% covers varint-encoded ids and counters
    // growing a byte, and where each stretch's peak lands (here and for
    // the cache below).
    EXPECT_LE(late[i].image_bytes, early[i].image_bytes * 11 / 10)
        << early[i].image_bytes << " -> " << late[i].image_bytes;
    EXPECT_LE(late[i].cache_entries, early[i].cache_entries * 11 / 10)
        << early[i].cache_entries << " -> " << late[i].cache_entries;
    // Every client's window of replies, at most twice its pipeline: the
    // requests in flight plus those completed since its last ack.
    EXPECT_LE(late[i].cache_entries, kClients * 2 * kWindow);
    // In flight at most: executed slots leave the slot map.
    EXPECT_LE(late[i].open_slots, kClients * kWindow);
    // Accepted since the last stable checkpoint, at most.
    EXPECT_LE(late[i].archive,
              kClients * kWindow + 2 * options.checkpoint_interval);
  }
  EXPECT_FALSE(testutil::log_divergence(world, replicas).has_value());
}

/// The simulator's peak event-queue depth over a closed-loop MinBFT run of
/// `requests` requests whose view-change timeout never expires. Clients do
/// not resend, so every queued timer is a replica's.
std::size_t peak_queue_depth(std::uint64_t requests) {
  sim::World world(11, std::make_unique<sim::RandomDelayAdversary>(1, 4));
  SgxUsigDirectory usigs(world.keys());
  MinBftReplica::Options options;
  options.f = 1;
  options.replicas = {0, 1, 2};
  options.view_change_timeout = Time{1} << 40;
  for (int i = 0; i < 3; ++i)
    world.spawn<MinBftReplica>(options, usigs,
                               std::make_unique<KvStateMachine>());
  SmrClient::Options copt;
  copt.replicas = options.replicas;
  copt.f = 1;
  copt.max_outstanding = kWindow;
  copt.resend_timeout = 0;
  std::vector<SmrClient*> clients;
  for (std::size_t c = 0; c < kClients; ++c)
    clients.push_back(&world.spawn<SmrClient>(copt));
  for (std::uint64_t k = 0; k < requests; ++k)
    clients[k % kClients]->submit(
        KvStateMachine::put_op("k" + std::to_string(k % 16), "v"));
  world.start();
  EXPECT_TRUE(world.run_until([&] {
    std::uint64_t done = 0;
    for (const SmrClient* c : clients) done += c->completed();
    return done == requests;
  }));
  return world.simulator().stats().peak_pending;
}

TEST(Soak, RequestClockKeepsTimersFlatUnderAnUnexpiredTimeout) {
  // Each replica keeps one request clock, armed at its earliest pending
  // deadline, and a deadline leaves with its request. With one timer per
  // request instead, none would fire before the timeout, and the queue
  // would grow by three timers (one per replica) per request served.
  const std::size_t small = peak_queue_depth(1'000);
  const std::size_t large = peak_queue_depth(kRequests);
  EXPECT_LE(large, small + small / 10) << small << " -> " << large;
  EXPECT_LT(large, kRequests);
}

}  // namespace
}  // namespace unidir::agreement
