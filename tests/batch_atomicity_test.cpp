// Batch-atomicity checker (ctest label: batch): synthetic-transcript
// negative tests prove the invariant catches split batches, reordered and
// double executions, and cross-replica membership disagreement; byzantine
// fake-primary runs prove the end-to-end retry-dedup fix — a request
// re-batched after its original batch committed is answered from the reply
// cache, never re-executed.
#include <gtest/gtest.h>

#include "agreement/minbft.h"
#include "agreement/pbft.h"
#include "agreement/state_machines.h"
#include "explore/invariants.h"
#include "sim/adversaries.h"

namespace unidir::explore {
namespace {

using agreement::Command;
using agreement::KvStateMachine;

Command cmd_of(ProcessId client, std::uint64_t rid, const char* key = "k") {
  Command c;
  c.client = client;
  c.request_id = rid;
  c.op = KvStateMachine::put_op(key, "v" + std::to_string(rid));
  return c;
}

/// The "smr-batch" witness payload, exactly as the replicas emit it.
Bytes batch_marker(std::uint64_t view, std::uint64_t counter,
                   const std::vector<Command>& cmds) {
  serde::Writer w;
  w.uvarint(view);
  w.uvarint(counter);
  w.uvarint(cmds.size());
  for (const Command& c : cmds) {
    w.uvarint(c.client);
    w.uvarint(c.request_id);
  }
  return w.take();
}

/// The "smr-install" state-transfer witness payload: the installed
/// commands with cached replies, then the installed (client, floor) pairs.
Bytes install_marker(
    const std::vector<Command>& cmds,
    const std::vector<std::pair<ProcessId, std::uint64_t>>& floors = {}) {
  agreement::InstallWitness iw;
  for (const Command& c : cmds) iw.keys.push_back(c.key());
  iw.floors = floors;
  return serde::encode(iw);
}

std::optional<std::string> check_transcripts(
    const std::vector<const sim::Transcript*>& transcripts) {
  ExplorationContext ctx;
  for (std::size_t i = 0; i < transcripts.size(); ++i)
    ctx.transcripts.emplace_back(static_cast<ProcessId>(i), transcripts[i]);
  return batch_atomicity().check(ctx);
}

TEST(BatchAtomicity, AcceptsFullyExecutedBatchesInOrder) {
  const Command a = cmd_of(9, 1), b = cmd_of(9, 2), c = cmd_of(8, 1);
  sim::Transcript t;
  t.record_output("smr-batch", batch_marker(0, 1, {a, b}));
  t.record_output("smr-exec", serde::encode(a));
  t.record_output("smr-exec", serde::encode(b));
  t.record_output("smr-batch", batch_marker(0, 2, {c}));
  t.record_output("smr-exec", serde::encode(c));
  EXPECT_EQ(check_transcripts({&t}), std::nullopt);
}

TEST(BatchAtomicity, VacuousForUnbatchedTranscripts) {
  // Unbatched runs emit no "smr-batch" markers; only exactly-once applies.
  sim::Transcript t;
  t.record_output("smr-exec", serde::encode(cmd_of(9, 1)));
  t.record_output("smr-exec", serde::encode(cmd_of(9, 2)));
  EXPECT_EQ(check_transcripts({&t}), std::nullopt);
}

TEST(BatchAtomicity, FlagsSplitBatch) {
  // A committed batch whose second member never executes — the planted
  // split batch the checker exists to catch.
  const Command a = cmd_of(9, 1), b = cmd_of(9, 2);
  sim::Transcript t;
  t.record_output("smr-batch", batch_marker(0, 1, {a, b}));
  t.record_output("smr-exec", serde::encode(a));
  const auto v = check_transcripts({&t});
  ASSERT_TRUE(v.has_value());
  EXPECT_NE(v->find("split batch"), std::string::npos) << *v;
}

TEST(BatchAtomicity, FlagsSplitBatchClosedByNextMarker) {
  const Command a = cmd_of(9, 1), b = cmd_of(9, 2), c = cmd_of(8, 1);
  sim::Transcript t;
  t.record_output("smr-batch", batch_marker(0, 1, {a, b}));
  t.record_output("smr-exec", serde::encode(a));
  t.record_output("smr-batch", batch_marker(0, 2, {c}));
  t.record_output("smr-exec", serde::encode(c));
  const auto v = check_transcripts({&t});
  ASSERT_TRUE(v.has_value());
  EXPECT_NE(v->find("split batch"), std::string::npos) << *v;
}

TEST(BatchAtomicity, FlagsOutOfOrderExecutionWithinBatch) {
  const Command a = cmd_of(9, 1), b = cmd_of(9, 2);
  sim::Transcript t;
  t.record_output("smr-batch", batch_marker(0, 1, {a, b}));
  t.record_output("smr-exec", serde::encode(b));
  t.record_output("smr-exec", serde::encode(a));
  const auto v = check_transcripts({&t});
  ASSERT_TRUE(v.has_value());
  EXPECT_NE(v->find("outside its batch"), std::string::npos) << *v;
}

TEST(BatchAtomicity, FlagsDoubleExecution) {
  const Command a = cmd_of(9, 1);
  sim::Transcript t;
  t.record_output("smr-batch", batch_marker(0, 1, {a}));
  t.record_output("smr-exec", serde::encode(a));
  t.record_output("smr-exec", serde::encode(a));
  const auto v = check_transcripts({&t});
  ASSERT_TRUE(v.has_value());
  EXPECT_NE(v->find("twice"), std::string::npos) << *v;
}

TEST(BatchAtomicity, FlagsCrossReplicaMembershipDisagreement) {
  const Command a = cmd_of(9, 1), b = cmd_of(9, 2);
  sim::Transcript t1, t2;
  t1.record_output("smr-batch", batch_marker(0, 1, {a, b}));
  t1.record_output("smr-exec", serde::encode(a));
  t1.record_output("smr-exec", serde::encode(b));
  // Same (view, counter) slot, different membership on the second replica.
  t2.record_output("smr-batch", batch_marker(0, 1, {a}));
  t2.record_output("smr-exec", serde::encode(a));
  const auto v = check_transcripts({&t1, &t2});
  ASSERT_TRUE(v.has_value());
  EXPECT_NE(v->find("disagree"), std::string::npos) << *v;
}

TEST(BatchAtomicity, AllowsRetryDedupAbsence) {
  // A member of a later batch already executed by an earlier one (client
  // retry landing in a second batch) is the legal absence.
  const Command a = cmd_of(9, 1), b = cmd_of(9, 2);
  sim::Transcript t;
  t.record_output("smr-batch", batch_marker(0, 1, {a}));
  t.record_output("smr-exec", serde::encode(a));
  t.record_output("smr-batch", batch_marker(0, 2, {a, b}));
  t.record_output("smr-exec", serde::encode(b));
  EXPECT_EQ(check_transcripts({&t}), std::nullopt);
}

TEST(BatchAtomicity, AllowsStateTransferInstallAbsence) {
  // Effects that arrived via state transfer (the "smr-install" witness)
  // never show up as executions; later batches may skip them.
  const Command a = cmd_of(9, 1), b = cmd_of(9, 2);
  sim::Transcript t;
  t.record_output("smr-install", install_marker({a}));
  t.record_output("smr-batch", batch_marker(1, 1, {a, b}));
  t.record_output("smr-exec", serde::encode(b));
  EXPECT_EQ(check_transcripts({&t}), std::nullopt);

  // Installed floors settle acknowledged requests that have no cached
  // reply: (7, 3) sits below client 7's floor of 4.
  const Command c = cmd_of(7, 3), d = cmd_of(7, 5);
  sim::Transcript u;
  u.record_output("smr-install", install_marker({}, {{7, 4}}));
  u.record_output("smr-batch", batch_marker(1, 2, {c, d}));
  u.record_output("smr-exec", serde::encode(d));
  EXPECT_EQ(check_transcripts({&u}), std::nullopt);
  // The floor is per client: another client's floor settles nothing here.
  sim::Transcript v;
  v.record_output("smr-install", install_marker({}, {{8, 4}}));
  v.record_output("smr-batch", batch_marker(1, 2, {c, d}));
  v.record_output("smr-exec", serde::encode(d));
  EXPECT_NE(check_transcripts({&v}), std::nullopt);
}

TEST(BatchAtomicity, AllowsAbsenceBelowTheClientsFloor) {
  // Client 9 gave up on rid 1, then issued rid 2 acknowledging everything
  // below it. Once rid 2 executes, rid 1 is settled: a later batch that
  // still carries it skips it without executing.
  const Command r1 = cmd_of(9, 1);
  Command r2 = cmd_of(9, 2), r3 = cmd_of(9, 3);
  r2.acked = 2;
  r3.acked = 2;
  sim::Transcript t;
  t.record_output("smr-batch", batch_marker(1, 1, {r2}));
  t.record_output("smr-exec", serde::encode(r2));
  t.record_output("smr-batch", batch_marker(1, 2, {r1, r3}));
  t.record_output("smr-exec", serde::encode(r3));
  EXPECT_EQ(check_transcripts({&t}), std::nullopt);

  // Without the acknowledgement the same skip is a split batch.
  Command r2_unacked = r2;
  r2_unacked.acked = 0;
  sim::Transcript u;
  u.record_output("smr-batch", batch_marker(1, 1, {r2_unacked}));
  u.record_output("smr-exec", serde::encode(r2_unacked));
  u.record_output("smr-batch", batch_marker(1, 2, {r1, r3}));
  u.record_output("smr-exec", serde::encode(r3));
  EXPECT_NE(check_transcripts({&u}), std::nullopt);
}

// ---- end-to-end retry dedup ------------------------------------------------

TEST(RetryDedup, MinBftRetriedRequestInSecondBatchExecutesOnce) {
  // A byzantine primary batches request R alone, then — as a client retry
  // would cause — batches {R, S} again in the next slot. Both batches
  // commit. Each backup must execute R exactly once and answer its second
  // appearance from the reply cache: log = [R, S], and the transcripts
  // must satisfy batch atomicity.
  using agreement::MinBftReplica;
  using agreement::SgxUsigDirectory;
  using agreement::UsigDirectory;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    sim::World world(seed, std::make_unique<sim::RandomDelayAdversary>(1, 6));
    SgxUsigDirectory usigs(world.keys());
    MinBftReplica::Options options;
    options.f = 1;
    options.replicas = {0, 1, 2};
    options.view_change_timeout = 4000;  // keep view 0 alive for the test
    options.batch_size = 4;              // batched() on the backups
    options.pipeline_depth = 4;

    class RebatchingPrimary final : public sim::Process {
     public:
      UsigDirectory* usigs = nullptr;
      void on_start() override {
        Command r;
        r.client = 50;
        r.request_id = 1;
        r.op = KvStateMachine::put_op("k", "first");
        Command s;
        s.client = 50;
        s.request_id = 2;
        s.op = KvStateMachine::put_op("k2", "second");
        // Counter 1: batch {R}. Counter 2: batch {R, S} — R again.
        broadcast(agreement::kMinBftCh,
                  MinBftReplica::encode_batch_prepare_for_test(*usigs, id(),
                                                               0, {r}));
        broadcast(agreement::kMinBftCh,
                  MinBftReplica::encode_batch_prepare_for_test(*usigs, id(),
                                                               0, {r, s}));
      }
    };

    auto& byz = world.spawn<RebatchingPrimary>();
    byz.usigs = &usigs;
    world.mark_byzantine(byz.id());
    std::vector<MinBftReplica*> backups;
    for (ProcessId i = 1; i <= 2; ++i)
      backups.push_back(&world.spawn<MinBftReplica>(
          options, usigs, std::make_unique<KvStateMachine>()));
    world.start();
    world.run_to_quiescence();

    for (MinBftReplica* backup : backups) {
      ASSERT_EQ(backup->executed_count(), 2u) << "seed " << seed;
      const agreement::ExecutionLog& log = backup->execution_log();
      EXPECT_EQ(log.at(0).command.request_id, 1u);
      EXPECT_EQ(log.at(1).command.request_id, 2u);
    }
    ExplorationContext ctx;
    for (const MinBftReplica* backup : backups)
      ctx.transcripts.emplace_back(backup->id(),
                                   &world.transcript(backup->id()));
    const auto v = batch_atomicity().check(ctx);
    EXPECT_EQ(v, std::nullopt) << *v;
  }
}

TEST(RetryDedup, PbftRetriedRequestInSecondBatchExecutesOnce) {
  using agreement::PbftReplica;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    sim::World world(seed, std::make_unique<sim::RandomDelayAdversary>(1, 6));
    PbftReplica::Options options;
    options.f = 1;
    options.replicas = {0, 1, 2, 3};
    options.view_change_timeout = 4000;
    options.batch_size = 4;
    options.pipeline_depth = 4;

    class RebatchingPrimary final : public sim::Process {
     public:
      void on_start() override {
        Command r;
        r.client = 60;
        r.request_id = 1;
        r.op = KvStateMachine::put_op("k", "first");
        Command s;
        s.client = 60;
        s.request_id = 2;
        s.op = KvStateMachine::put_op("k2", "second");
        broadcast(agreement::kPbftCh,
                  PbftReplica::encode_batch_preprepare_for_test(signer(), 0,
                                                                1, {r}));
        broadcast(agreement::kPbftCh,
                  PbftReplica::encode_batch_preprepare_for_test(
                      signer(), 0, 2, {r, s}));
      }
    };

    auto& byz = world.spawn<RebatchingPrimary>();
    world.mark_byzantine(byz.id());
    std::vector<PbftReplica*> backups;
    for (ProcessId i = 1; i <= 3; ++i)
      backups.push_back(&world.spawn<PbftReplica>(
          options, std::make_unique<KvStateMachine>()));
    world.start();
    world.run_to_quiescence();

    for (PbftReplica* backup : backups) {
      ASSERT_EQ(backup->executed_count(), 2u) << "seed " << seed;
      const agreement::ExecutionLog& log = backup->execution_log();
      EXPECT_EQ(log.at(0).command.request_id, 1u);
      EXPECT_EQ(log.at(1).command.request_id, 2u);
    }
    ExplorationContext ctx;
    for (const PbftReplica* backup : backups)
      ctx.transcripts.emplace_back(backup->id(),
                                   &world.transcript(backup->id()));
    const auto v = batch_atomicity().check(ctx);
    EXPECT_EQ(v, std::nullopt) << *v;
  }
}

// ---- acknowledged requests -------------------------------------------------
//
// A client gave up on R1 and then issued R2, acknowledging everything below
// 2. R2 commits first; a later batch re-proposes R1 (as a view change
// would) next to R3. Every backup must skip R1 identically — neither run
// nor answered — and the transcripts must satisfy batch atomicity.

Command acked_cmd(ProcessId client, std::uint64_t rid, std::uint64_t acked) {
  Command c = cmd_of(client, rid, ("k" + std::to_string(rid)).c_str());
  c.acked = acked;
  return c;
}

TEST(ReplyWindow, MinBftSkipsAGaveUpRequestReproposedAfterTheFloorMoved) {
  using agreement::MinBftReplica;
  using agreement::SgxUsigDirectory;
  using agreement::UsigDirectory;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    sim::World world(seed, std::make_unique<sim::RandomDelayAdversary>(1, 6));
    SgxUsigDirectory usigs(world.keys());
    MinBftReplica::Options options;
    options.f = 1;
    options.replicas = {0, 1, 2};
    options.view_change_timeout = 4000;  // keep view 0 alive for the test
    options.batch_size = 4;
    options.pipeline_depth = 4;

    class ReproposingPrimary final : public sim::Process {
     public:
      UsigDirectory* usigs = nullptr;
      void on_start() override {
        broadcast(agreement::kMinBftCh,
                  MinBftReplica::encode_batch_prepare_for_test(
                      *usigs, id(), 0, {acked_cmd(50, 2, 2)}));
        broadcast(agreement::kMinBftCh,
                  MinBftReplica::encode_batch_prepare_for_test(
                      *usigs, id(), 0,
                      {acked_cmd(50, 1, 1), acked_cmd(50, 3, 2)}));
      }
    };

    auto& byz = world.spawn<ReproposingPrimary>();
    byz.usigs = &usigs;
    world.mark_byzantine(byz.id());
    std::vector<MinBftReplica*> backups;
    for (ProcessId i = 1; i <= 2; ++i)
      backups.push_back(&world.spawn<MinBftReplica>(
          options, usigs, std::make_unique<KvStateMachine>()));
    world.start();
    world.run_to_quiescence();

    ExplorationContext ctx;
    for (MinBftReplica* backup : backups) {
      ASSERT_EQ(backup->executed_count(), 2u) << "seed " << seed;
      const agreement::ExecutionLog& log = backup->execution_log();
      EXPECT_EQ(log.at(0).command.request_id, 2u);
      EXPECT_EQ(log.at(1).command.request_id, 3u);
      EXPECT_EQ(backup->reply_cache().floor(50), 2u);
      EXPECT_EQ(backup->reply_cache().keys().size(), 2u);
      ctx.transcripts.emplace_back(backup->id(),
                                   &world.transcript(backup->id()));
    }
    EXPECT_EQ(backups[0]->state_digest(), backups[1]->state_digest());
    const auto v = batch_atomicity().check(ctx);
    EXPECT_EQ(v, std::nullopt) << *v;
  }
}

TEST(ReplyWindow, PbftSkipsAGaveUpRequestReproposedAfterTheFloorMoved) {
  using agreement::PbftReplica;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    sim::World world(seed, std::make_unique<sim::RandomDelayAdversary>(1, 6));
    PbftReplica::Options options;
    options.f = 1;
    options.replicas = {0, 1, 2, 3};
    options.view_change_timeout = 4000;
    options.batch_size = 4;
    options.pipeline_depth = 4;

    class ReproposingPrimary final : public sim::Process {
     public:
      void on_start() override {
        broadcast(agreement::kPbftCh,
                  PbftReplica::encode_batch_preprepare_for_test(
                      signer(), 0, 1, {acked_cmd(60, 2, 2)}));
        broadcast(agreement::kPbftCh,
                  PbftReplica::encode_batch_preprepare_for_test(
                      signer(), 0, 2,
                      {acked_cmd(60, 1, 1), acked_cmd(60, 3, 2)}));
      }
    };

    auto& byz = world.spawn<ReproposingPrimary>();
    world.mark_byzantine(byz.id());
    std::vector<PbftReplica*> backups;
    for (ProcessId i = 1; i <= 3; ++i)
      backups.push_back(&world.spawn<PbftReplica>(
          options, std::make_unique<KvStateMachine>()));
    world.start();
    world.run_to_quiescence();

    ExplorationContext ctx;
    for (PbftReplica* backup : backups) {
      ASSERT_EQ(backup->executed_count(), 2u) << "seed " << seed;
      const agreement::ExecutionLog& log = backup->execution_log();
      EXPECT_EQ(log.at(0).command.request_id, 2u);
      EXPECT_EQ(log.at(1).command.request_id, 3u);
      EXPECT_EQ(backup->reply_cache().floor(60), 2u);
      ctx.transcripts.emplace_back(backup->id(),
                                   &world.transcript(backup->id()));
    }
    const auto v = batch_atomicity().check(ctx);
    EXPECT_EQ(v, std::nullopt) << *v;
  }
}

}  // namespace
}  // namespace unidir::explore
