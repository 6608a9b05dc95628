// Cross-cutting robustness properties: replay attacks, whole-system
// determinism, and decoder hardening against arbitrary bytes.
#include <gtest/gtest.h>

#include "agreement/minbft.h"
#include "agreement/state_machines.h"
#include "broadcast/bracha.h"
#include "broadcast/srb_from_uni.h"
#include "broadcast/srb_hub.h"
#include "common/log.h"
#include "explore/scenario.h"
#include "explore/trace.h"
#include "rounds/round_driver.h"
#include "runtime/fault.h"
#include "sim/adversaries.h"
#include "test_util.h"
#include "trusted/a2m.h"
#include "trusted/trinc.h"
#include "trusted/trinc_from_srb.h"
#include "trusted/usig.h"

namespace unidir {
namespace {

using testutil::Node;

constexpr sim::Channel kCh = 35;

/// Captures every payload it receives on a channel and re-broadcasts each
/// one verbatim (now originating from itself) — the classic replay attack.
class Replayer final : public sim::Process {
 public:
  explicit Replayer(sim::Channel channel) {
    register_channel(channel, [this, channel](ProcessId, const Bytes& payload) {
      if (replayed_ > 200) return;  // bound the noise
      ++replayed_;
      broadcast(channel, payload);
    });
  }

 private:
  int replayed_ = 0;
};

TEST(Replay, SrbHubCopiesAreHarmlesslyIdempotent) {
  // Replayed hub-signed copies are genuine, so they may arrive again —
  // sequencing and duplicate suppression must keep deliveries exactly-once.
  sim::World w(3, std::make_unique<sim::RandomDelayAdversary>(1, 10));
  broadcast::SrbHub hub(w, kCh);
  std::vector<std::unique_ptr<broadcast::SrbHubEndpoint>> eps;
  for (int i = 0; i < 3; ++i)
    eps.push_back(hub.make_endpoint(w.spawn<Node>()));
  auto& attacker = w.spawn<Replayer>(kCh);
  w.mark_byzantine(attacker.id());
  w.start();
  for (int k = 0; k < 5; ++k)
    eps[0]->broadcast(bytes_of("m" + std::to_string(k)));
  w.run_to_quiescence();
  for (auto& ep : eps) {
    EXPECT_EQ(ep->delivered().size(), 5u);
    EXPECT_EQ(ep->delivered_up_to(0), 5u);
  }
}

TEST(Replay, MinBftExecutesExactlyOnceUnderProtocolReplay) {
  sim::World w(5, std::make_unique<sim::RandomDelayAdversary>(1, 8));
  agreement::SgxUsigDirectory usigs(w.keys());
  agreement::MinBftReplica::Options options;
  options.f = 1;
  options.replicas = {0, 1, 2};
  std::vector<agreement::MinBftReplica*> replicas;
  for (int i = 0; i < 3; ++i)
    replicas.push_back(&w.spawn<agreement::MinBftReplica>(
        options, usigs, std::make_unique<agreement::KvStateMachine>()));
  auto& attacker = w.spawn<Replayer>(agreement::kMinBftCh);
  w.mark_byzantine(attacker.id());
  agreement::SmrClient::Options copt;
  copt.replicas = options.replicas;
  copt.f = 1;
  auto& client = w.spawn<agreement::SmrClient>(copt);
  for (int k = 0; k < 4; ++k)
    client.submit(agreement::KvStateMachine::put_op("k" + std::to_string(k),
                                                    "v"));
  w.start();
  w.run_to_quiescence();
  EXPECT_EQ(client.completed(), 4u);
  for (auto* r : replicas) EXPECT_EQ(r->executed_count(), 4u);
}

TEST(Replay, BrachaUnaffectedByEchoReplay) {
  sim::World w(9, std::make_unique<sim::RandomDelayAdversary>(1, 8));
  std::vector<std::unique_ptr<broadcast::BrachaEndpoint>> eps;
  for (int i = 0; i < 4; ++i)
    eps.push_back(std::make_unique<broadcast::BrachaEndpoint>(
        w.spawn<Node>(), kCh, 5, 1));
  auto& attacker = w.spawn<Replayer>(kCh);
  w.mark_byzantine(attacker.id());
  w.start();
  eps[0]->broadcast(bytes_of("once"));
  w.run_to_quiescence();
  for (auto& ep : eps) {
    ASSERT_EQ(ep->delivered().size(), 1u);
    EXPECT_EQ(ep->delivered()[0].message, bytes_of("once"));
  }
}

// ---- duplicating network (at-least-once delivery) --------------------------------

TEST(Duplication, SrbHubStaysExactlyOnce) {
  sim::World w(5, std::make_unique<sim::DuplicatingAdversary>(4, 10));
  broadcast::SrbHub hub(w, kCh);
  std::vector<std::unique_ptr<broadcast::SrbHubEndpoint>> eps;
  for (int i = 0; i < 3; ++i)
    eps.push_back(hub.make_endpoint(w.spawn<Node>()));
  w.start();
  for (int k = 0; k < 8; ++k)
    eps[1]->broadcast(bytes_of("m" + std::to_string(k)));
  w.run_to_quiescence();
  EXPECT_GT(w.network().stats().messages_duplicated, 0u);
  for (auto& ep : eps) EXPECT_EQ(ep->delivered().size(), 8u);
}

TEST(Duplication, BrachaStaysExactlyOnce) {
  sim::World w(5, std::make_unique<sim::DuplicatingAdversary>(3, 8));
  std::vector<std::unique_ptr<broadcast::BrachaEndpoint>> eps;
  for (int i = 0; i < 4; ++i)
    eps.push_back(std::make_unique<broadcast::BrachaEndpoint>(
        w.spawn<Node>(), kCh, 4, 1));
  w.start();
  eps[0]->broadcast(bytes_of("only once"));
  w.run_to_quiescence();
  for (auto& ep : eps) EXPECT_EQ(ep->delivered().size(), 1u);
}

TEST(Duplication, MinBftStaysExactlyOnceAndConsistent) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    sim::World w(seed, std::make_unique<sim::DuplicatingAdversary>(3, 8));
    agreement::SgxUsigDirectory usigs(w.keys());
    agreement::MinBftReplica::Options options;
    options.f = 1;
    options.replicas = {0, 1, 2};
    std::vector<agreement::MinBftReplica*> replicas;
    for (int i = 0; i < 3; ++i)
      replicas.push_back(&w.spawn<agreement::MinBftReplica>(
          options, usigs, std::make_unique<agreement::KvStateMachine>()));
    agreement::SmrClient::Options copt;
    copt.replicas = options.replicas;
    copt.f = 1;
    auto& client = w.spawn<agreement::SmrClient>(copt);
    for (int k = 0; k < 4; ++k)
      client.submit(
          agreement::KvStateMachine::put_op("k" + std::to_string(k), "v"));
    w.start();
    w.run_to_quiescence();
    EXPECT_EQ(client.completed(), 4u) << "seed " << seed;
    std::vector<std::pair<ProcessId,
                          const agreement::ExecutionLog*>>
        logs;
    for (auto* r : replicas) {
      EXPECT_EQ(r->executed_count(), 4u) << "seed " << seed;
      logs.emplace_back(r->id(), &r->execution_log());
    }
    EXPECT_FALSE(
        agreement::check_execution_consistency(logs).has_value());
  }
}

// ---- whole-system determinism ----------------------------------------------------

std::vector<Bytes> run_minbft_digest(std::uint64_t seed) {
  sim::World w(seed, std::make_unique<sim::RandomDelayAdversary>(1, 12));
  agreement::SgxUsigDirectory usigs(w.keys());
  agreement::MinBftReplica::Options options;
  options.f = 1;
  options.replicas = {0, 1, 2};
  std::vector<agreement::MinBftReplica*> replicas;
  for (int i = 0; i < 3; ++i)
    replicas.push_back(&w.spawn<agreement::MinBftReplica>(
        options, usigs, std::make_unique<agreement::KvStateMachine>()));
  agreement::SmrClient::Options copt;
  copt.replicas = options.replicas;
  copt.f = 1;
  auto& client = w.spawn<agreement::SmrClient>(copt);
  for (int k = 0; k < 6; ++k)
    client.submit(agreement::KvStateMachine::put_op("k" + std::to_string(k),
                                                    "v" + std::to_string(k)));
  w.start();
  w.run_until([&] { return client.completed() >= 2; });
  w.crash(0);  // include a fault + view change in the determinism check
  w.run_to_quiescence();

  // Fingerprint: every process's full transcript.
  std::vector<Bytes> fingerprint;
  for (ProcessId p = 0; p < w.size(); ++p) {
    serde::Writer enc;
    for (const auto& ev : w.transcript(p).events()) {
      enc.u8(static_cast<std::uint8_t>(ev.kind));
      enc.uvarint(ev.from == kNoProcess ? 0 : ev.from + 1);
      enc.uvarint(ev.channel);
      enc.str(ev.tag);
      enc.bytes(ev.payload);
    }
    fingerprint.push_back(enc.take());
  }
  return fingerprint;
}

TEST(Determinism, FullMinBftRunReplaysBitIdentically) {
  EXPECT_EQ(run_minbft_digest(404), run_minbft_digest(404));
}

TEST(Determinism, DifferentSeedsDiverge) {
  EXPECT_NE(run_minbft_digest(404), run_minbft_digest(405));
}

// ---- decoder hardening -----------------------------------------------------------

TEST(FuzzDecode, ArbitraryBytesNeverCrashTheDecoders) {
  // Feed pseudo-random byte strings to every wire decoder; each must
  // either parse or throw DecodeError — nothing else.
  sim::Rng rng(20260706);
  for (int round = 0; round < 2000; ++round) {
    Bytes junk(rng.below(60), 0);
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.below(256));

    auto try_decode = [&](auto tag) {
      using T = decltype(tag);
      try {
        (void)serde::decode<T>(junk);
      } catch (const serde::DecodeError&) {
        // expected for most inputs
      }
    };
    try_decode(crypto::Signature{});
    try_decode(trusted::TrincAttestation{});
    try_decode(trusted::A2mAttestation{});
    try_decode(broadcast::SignedVal{});
    try_decode(broadcast::L1Proof{});
    try_decode(broadcast::L2Proof{});
    try_decode(broadcast::UniSlotPayload{});
    try_decode(agreement::Command{});
    try_decode(agreement::Reply{});
    try_decode(runtime::FaultPlan{});
    try_decode(runtime::PartitionEpoch{});
    try_decode(sim::WorkloadSpec{});
    try_decode(explore::ScenarioSpec{});
    try_decode(explore::CrashEvent{});
    try_decode(explore::RecoveryEvent{});
    try_decode(explore::ScheduleTrace{});
    try_decode(agreement::ExecutionLog{});
    try_decode(agreement::ExecutionDeduper{});
    try_decode(agreement::InstallWitness{});
    try_decode(trusted::UniqueIdentifier{});
    try_decode(trusted::SrbAttestation{});
    try_decode(broadcast::CopyVote{});
    try_decode(rounds::RoundMsg{});
    try_decode(agreement::VcEntry{});
  }
}

TEST(FuzzDecode, BooleanFieldsAcceptOnlyZeroOrOne) {
  // WorkloadSpec's third field is open_loop; ScenarioSpec ends with trace,
  // batch_size, replica_pipeline and a 9-byte default workload.
  Bytes workload = serde::encode(sim::WorkloadSpec{});
  workload[2] = 2;
  EXPECT_THROW((void)serde::decode<sim::WorkloadSpec>(workload),
               serde::DecodeError);
  Bytes spec = serde::encode(explore::ScenarioSpec{});
  ASSERT_EQ(spec[spec.size() - 12], 0u);
  spec[spec.size() - 12] = 2;
  EXPECT_THROW((void)serde::decode<explore::ScenarioSpec>(spec),
               serde::DecodeError);
}

TEST(FuzzDecode, MutatedValidMessagesNeverCrash) {
  // Take a valid encoded proof and flip bytes — decoders must stay total.
  sim::World w(1, std::make_unique<sim::ImmediateAdversary>());
  auto& node = w.spawn<Node>();
  broadcast::SignedVal val;
  val.sender = node.id();
  val.seq = 3;
  val.msg = bytes_of("payload");
  val.sender_sig = node.signer().sign(val.signing_bytes());
  const Bytes good = serde::encode(val);

  sim::Rng rng(99);
  for (int round = 0; round < 500; ++round) {
    Bytes mutated = good;
    const std::size_t at = static_cast<std::size_t>(rng.below(mutated.size()));
    mutated[at] = static_cast<std::uint8_t>(rng.below(256));
    try {
      const auto parsed = serde::decode<broadcast::SignedVal>(mutated);
      // If it parses, a mutated signature/message must not verify as the
      // original value unless the mutation was a no-op.
      if (!(parsed.signing_bytes() == val.signing_bytes() &&
            parsed.sender_sig == val.sender_sig)) {
        EXPECT_TRUE(!broadcast::valid_signed_val(w, parsed) ||
                    mutated == good);
      }
    } catch (const serde::DecodeError&) {
    }
  }
}

// ---- logger -----------------------------------------------------------------------

TEST(Log, ThresholdFilters) {
  const auto saved = log::threshold();
  log::set_threshold(log::Level::Error);
  EXPECT_EQ(log::threshold(), log::Level::Error);
  UNIDIR_INFO("should be filtered (not crash)");
  UNIDIR_ERROR("visible line for coverage");
  log::set_threshold(saved);
}

TEST(Log, LevelNames) {
  EXPECT_STREQ(log::level_name(log::Level::Trace), "TRACE");
  EXPECT_STREQ(log::level_name(log::Level::Warn), "WARN");
  EXPECT_STREQ(log::level_name(log::Level::Off), "OFF");
}

}  // namespace
}  // namespace unidir
