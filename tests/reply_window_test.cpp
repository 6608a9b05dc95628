// Bounded per-client replica state: the reply cache keeps one floor per
// client (everything below it acknowledged) plus a reply window; executed
// slots leave the slot map; the view-change archive keeps one entry per
// command. Unit tests for the cache itself, for both replicas' use of it,
// and for the archive bound under repeated view changes.
#include <gtest/gtest.h>

#include "agreement/minbft.h"
#include "agreement/pbft.h"
#include "agreement/state_machines.h"
#include "sim/adversaries.h"

namespace unidir::agreement {
namespace {

Command cmd_of(ProcessId client, std::uint64_t rid, std::uint64_t acked) {
  Command c;
  c.client = client;
  c.request_id = rid;
  c.op = KvStateMachine::put_op("k" + std::to_string(rid), "v");
  c.acked = acked;
  return c;
}

// ---- ExecutionDeduper ------------------------------------------------------

TEST(ReplyCache, FloorDropsAcknowledgedReplies) {
  ExecutionDeduper d;
  d.record(cmd_of(1, 1, 1), bytes_of("a"));
  d.record(cmd_of(1, 2, 1), bytes_of("b"));
  EXPECT_EQ(d.floor(1), 1u);
  EXPECT_EQ(d.keys().size(), 2u);
  // Request 3 acknowledges everything below 2: reply 1 goes, and request 1
  // is settled without a reply.
  d.record(cmd_of(1, 3, 2), bytes_of("c"));
  EXPECT_EQ(d.floor(1), 2u);
  EXPECT_EQ(d.keys().size(), 2u);
  EXPECT_FALSE(d.lookup(cmd_of(1, 1, 1)).has_value());
  EXPECT_TRUE(d.below_floor(cmd_of(1, 1, 1)));
  EXPECT_TRUE(d.settled(cmd_of(1, 1, 1)));
  EXPECT_EQ(d.lookup(cmd_of(1, 2, 1)), std::optional<Bytes>(bytes_of("b")));
  EXPECT_FALSE(d.settled(cmd_of(1, 4, 2)));
  // Floors are per client and never fall.
  EXPECT_EQ(d.floor(2), 0u);
  d.record(cmd_of(1, 4, 1), bytes_of("d"));
  EXPECT_EQ(d.floor(1), 2u);
}

TEST(ReplyCache, ForgedAckCannotDropTheCommandsOwnReply) {
  ExecutionDeduper d;
  d.record(cmd_of(1, 5, 1000), bytes_of("r"));
  EXPECT_EQ(d.floor(1), 5u);
  EXPECT_EQ(d.lookup(cmd_of(1, 5, 1000)), std::optional<Bytes>(bytes_of("r")));
}

TEST(ReplyCache, FloorsSurviveEncoding) {
  ExecutionDeduper d;
  d.record(cmd_of(1, 3, 3), bytes_of("a"));
  d.record(cmd_of(2, 7, 6), bytes_of("b"));
  const auto back = serde::decode<ExecutionDeduper>(serde::encode(d));
  EXPECT_EQ(back.floor(1), 3u);
  EXPECT_EQ(back.floor(2), 6u);
  EXPECT_EQ(back.keys(), d.keys());
  EXPECT_EQ(back.floors(), d.floors());
}

// ---- replicas ------------------------------------------------------------

/// Speaks the client protocol by hand, so a test picks request ids, acks
/// and resend timing, and sees every reply.
class ScriptedClient final : public sim::Process {
 public:
  explicit ScriptedClient(std::vector<ProcessId> replicas)
      : replicas_(std::move(replicas)), router_(*this, kClientReplyCh) {
    router_.on<Reply>(
        [this](ProcessId, Reply r) { ++replies[r.request_id]; });
  }
  void send(const Command& cmd) {
    wire::multicast(world(), id(), replicas_, kClientRequestCh, cmd);
  }

  std::map<std::uint64_t, std::size_t> replies;  // request_id -> count

 private:
  std::vector<ProcessId> replicas_;
  wire::Router router_;
};

struct MinBftCluster {
  sim::World world;
  SgxUsigDirectory usigs;
  std::vector<MinBftReplica*> replicas;

  MinBftCluster(std::uint64_t seed, MinBftReplica::Options options)
      : world(seed, std::make_unique<sim::RandomDelayAdversary>(1, 6)),
        usigs(world.keys()) {
    options.f = 1;
    options.replicas = {0, 1, 2};
    for (int i = 0; i < 3; ++i)
      replicas.push_back(&world.spawn<MinBftReplica>(
          options, usigs, std::make_unique<KvStateMachine>()));
  }
  SmrClient& spawn_client(std::size_t max_outstanding) {
    SmrClient::Options copt;
    copt.replicas = {0, 1, 2};
    copt.f = 1;
    copt.max_outstanding = max_outstanding;
    return world.spawn<SmrClient>(copt);
  }
};

TEST(ReplyWindow, MinBftResendBelowTheFloorIsNeitherExecutedNorAnswered) {
  MinBftCluster c(3, {});
  auto& client = c.world.spawn<ScriptedClient>(std::vector<ProcessId>{0, 1, 2});
  c.world.start();
  const Command r1 = cmd_of(client.id(), 1, 1);
  const Command r2 = cmd_of(client.id(), 2, 2);
  client.send(r1);
  c.world.run_to_quiescence();
  ASSERT_EQ(client.replies[1], 3u);
  client.send(r2);
  c.world.run_to_quiescence();
  ASSERT_EQ(client.replies[2], 3u);
  for (auto* r : c.replicas) {
    EXPECT_EQ(r->reply_cache().floor(client.id()), 2u);
    EXPECT_EQ(r->reply_cache().keys().size(), 1u);
  }
  // Inside the window a resend is answered from the cache; below the
  // floor it is dropped outright.
  client.send(r2);
  client.send(r1);
  c.world.run_to_quiescence();
  EXPECT_EQ(client.replies[2], 6u);
  EXPECT_EQ(client.replies[1], 3u);
  for (auto* r : c.replicas) EXPECT_EQ(r->executed_count(), 2u);
}

TEST(ReplyWindow, MinBftFloorSurvivesPersistAndRecover) {
  MinBftReplica::Options options;
  options.checkpoint_interval = 4;
  MinBftCluster c(5, options);
  auto& client = c.spawn_client(4);
  for (int k = 0; k < 16; ++k)
    client.submit(KvStateMachine::put_op("k" + std::to_string(k), "v"));
  c.world.start();
  c.world.run_to_quiescence();
  ASSERT_EQ(client.completed(), 16u);
  MinBftReplica& r = *c.replicas[2];
  ASSERT_EQ(r.executed_count(), 16u);  // a checkpoint boundary: persisted
  const std::uint64_t floor = r.reply_cache().floor(client.id());
  EXPECT_GT(floor, 1u);
  const auto keys = r.reply_cache().keys();

  // With every peer down, the restarted replica has only its image.
  c.world.crash(0);
  c.world.crash(1);
  c.world.crash(2);
  c.world.restart(2);
  c.world.run_to_quiescence();
  EXPECT_EQ(r.executed_count(), 16u);
  EXPECT_EQ(r.reply_cache().floor(client.id()), floor);
  EXPECT_EQ(r.reply_cache().keys(), keys);
}

TEST(ReplyWindow, MinBftFloorArrivesWithStateTransfer) {
  MinBftReplica::Options options;
  options.checkpoint_interval = 4;
  MinBftCluster c(7, options);
  auto& client = c.spawn_client(4);
  for (int k = 0; k < 16; ++k)
    client.submit(KvStateMachine::put_op("k" + std::to_string(k), "v"));
  c.world.crash(2);  // misses the whole run
  c.world.start();
  c.world.run_to_quiescence();
  ASSERT_EQ(client.completed(), 16u);
  ASSERT_EQ(c.replicas[2]->executed_count(), 0u);

  c.world.restart(2);  // no image: catches up by state transfer only
  c.world.run_to_quiescence();
  const MinBftReplica& peer = *c.replicas[0];
  const MinBftReplica& late = *c.replicas[2];
  EXPECT_EQ(late.executed_count(), peer.executed_count());
  EXPECT_GT(late.reply_cache().floor(client.id()), 1u);
  EXPECT_EQ(late.reply_cache().floors(), peer.reply_cache().floors());
  EXPECT_EQ(late.reply_cache().keys(), peer.reply_cache().keys());
}

/// Runs 40 pipelined requests under message duplication: duplicated
/// proposals and votes keep arriving after their slot executed, and must
/// not re-open it.
template <class Replica, class Spawn>
void expect_executed_slots_dropped(sim::World& world, std::size_t n,
                                   std::size_t f, Spawn spawn) {
  std::vector<Replica*> replicas;
  for (std::size_t i = 0; i < n; ++i) replicas.push_back(&spawn());
  SmrClient::Options copt;
  for (ProcessId i = 0; i < n; ++i) copt.replicas.push_back(i);
  copt.f = f;
  copt.max_outstanding = 8;
  auto& client = world.spawn<SmrClient>(copt);
  for (int k = 0; k < 40; ++k)
    client.submit(KvStateMachine::put_op("k" + std::to_string(k), "v"));
  world.start();
  world.run_to_quiescence();
  ASSERT_EQ(client.completed(), 40u);
  for (Replica* r : replicas) {
    EXPECT_EQ(r->executed_count(), 40u);
    EXPECT_EQ(r->open_slots(), 0u) << "replica " << r->id();
  }
}

TEST(ReplyWindow, MinBftDropsExecutedSlotsEvenUnderDuplication) {
  sim::World world(11, std::make_unique<sim::DuplicatingAdversary>(
                           /*max_copies=*/3, /*max_delay=*/12));
  SgxUsigDirectory usigs(world.keys());
  MinBftReplica::Options options;
  options.f = 1;
  options.replicas = {0, 1, 2};
  expect_executed_slots_dropped<MinBftReplica>(
      world, 3, 1, [&]() -> MinBftReplica& {
        return world.spawn<MinBftReplica>(options, usigs,
                                          std::make_unique<KvStateMachine>());
      });
}

TEST(ReplyWindow, PbftDropsExecutedSlotsEvenUnderDuplication) {
  sim::World world(12, std::make_unique<sim::DuplicatingAdversary>(
                           /*max_copies=*/3, /*max_delay=*/12));
  PbftReplica::Options options;
  options.f = 1;
  options.replicas = {0, 1, 2, 3};
  expect_executed_slots_dropped<PbftReplica>(
      world, 4, 1, [&]() -> PbftReplica& {
        return world.spawn<PbftReplica>(options,
                                        std::make_unique<KvStateMachine>());
      });
}

// ---- view-change archive -----------------------------------------------------

/// Views 0 and 1 lose their primaries one after the other, with nothing
/// ever stable (checkpoints off): every view change re-proposes the whole
/// history. Each replica's archive — its VIEW-CHANGE report — must stay at
/// one entry per distinct command instead of one per proposal.
template <class Replica, class Spawn>
void expect_archive_bounded_across_view_changes(sim::World& world,
                                                std::size_t n, std::size_t f,
                                                Spawn spawn) {
  std::vector<Replica*> replicas;
  for (std::size_t i = 0; i < n; ++i) replicas.push_back(&spawn());
  SmrClient::Options copt;
  for (ProcessId i = 0; i < n; ++i) copt.replicas.push_back(i);
  copt.f = f;
  auto& client = world.spawn<SmrClient>(copt);
  for (int k = 0; k < 6; ++k)
    client.submit(KvStateMachine::put_op("k" + std::to_string(k), "v"));
  world.start();
  world.run_to_quiescence();
  std::uint64_t submitted = 6;
  for (ProcessId primary = 0; primary < 2; ++primary) {
    world.crash(primary);
    client.submit(KvStateMachine::put_op("after" + std::to_string(primary),
                                         "v"));
    ++submitted;
    world.run_to_quiescence();
  }
  ASSERT_EQ(client.completed(), submitted);
  for (Replica* r : replicas) {
    if (!world.correct(r->id())) continue;
    EXPECT_GE(r->view(), 2u) << "replica " << r->id();
    EXPECT_LE(r->vc_archive_size(), submitted) << "replica " << r->id();
  }
}

TEST(VcArchive, MinBftReportsStayBoundedAcrossRepeatedViewChanges) {
  sim::World world(17, std::make_unique<sim::RandomDelayAdversary>(1, 6));
  SgxUsigDirectory usigs(world.keys());
  MinBftReplica::Options options;
  options.f = 2;
  options.replicas = {0, 1, 2, 3, 4};
  options.checkpoint_interval = 0;
  expect_archive_bounded_across_view_changes<MinBftReplica>(
      world, 5, 2, [&]() -> MinBftReplica& {
        return world.spawn<MinBftReplica>(options, usigs,
                                          std::make_unique<KvStateMachine>());
      });
}

TEST(VcArchive, PbftReportsStayBoundedAcrossRepeatedViewChanges) {
  sim::World world(17, std::make_unique<sim::RandomDelayAdversary>(1, 6));
  PbftReplica::Options options;
  options.f = 2;
  options.replicas = {0, 1, 2, 3, 4, 5, 6};
  options.checkpoint_interval = 0;
  expect_archive_bounded_across_view_changes<PbftReplica>(
      world, 7, 2, [&]() -> PbftReplica& {
        return world.spawn<PbftReplica>(options,
                                        std::make_unique<KvStateMachine>());
      });
}

TEST(VcArchive, KeepsTheNewestEntryPerCommandInAcceptanceOrder) {
  VcArchive<MinBftVcEntry> a;
  const Command x = cmd_of(1, 1, 0), y = cmd_of(1, 2, 0);
  a.put({0, 5, x});
  a.put({0, 6, y});
  a.put({1, 3, x});  // re-proposed in view 1: moves behind y
  a.put({0, 9, y});  // newer than y's (0, 6): replaces it, behind x
  ASSERT_EQ(a.size(), 2u);
  std::vector<MinBftVcEntry> e = a.entries();
  EXPECT_EQ(e[0].cmd, x);
  EXPECT_EQ(e[0].order(), std::make_pair(ViewNum{1}, SeqNum{3}));
  EXPECT_EQ(e[1].cmd, y);
  EXPECT_EQ(e[1].order(), std::make_pair(ViewNum{0}, SeqNum{9}));
  a.put({0, 7, x});  // older than x's (1, 3): ignored
  EXPECT_EQ(a.entries()[0].order(), std::make_pair(ViewNum{1}, SeqNum{3}));
  a.erase(x.key());
  ASSERT_EQ(a.size(), 1u);
  EXPECT_EQ(a.entries()[0].cmd, y);
}

}  // namespace
}  // namespace unidir::agreement
