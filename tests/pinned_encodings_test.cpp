// Pinned byte encodings: the wire and storage format of every serializable
// type, held fixed.
//
//  * Public types: the hex of one representative value (every field set to
//    a non-default value), plus a decode round trip.
//  * Wire types private to a protocol's .cpp: the digest of every
//    transcript of one fixed-seed run of that protocol, hashed the way
//    run_scenario's fingerprint is. Received messages enter a transcript
//    with their wire bytes, so any format change moves the digest.
//  * Durable images: the SHA-256 of every replica's DurableStore entries
//    after a crash-recovery scenario (ReplicaImage, ExecutionLog,
//    ExecutionDeduper, the PBFT propose journal, sealed USIG counters).
//
// The SMR golden fingerprints cover only SMR traffic; this test holds the
// byte identity of everything else. A failure here means a format moved:
// update the pin only for a deliberate, documented format change.
#include <gtest/gtest.h>

#include <functional>
#include <string>

#include "agreement/dolev_strong.h"
#include "agreement/replica_core.h"
#include "agreement/smr.h"
#include "broadcast/bracha.h"
#include "broadcast/echo.h"
#include "broadcast/noneq.h"
#include "broadcast/rb_uni_round.h"
#include "broadcast/srb_from_uni.h"
#include "broadcast/srb_hub.h"
#include "common/serde.h"
#include "crypto/sha256.h"
#include "crypto/signature.h"
#include "explore/invariants.h"
#include "explore/scenario.h"
#include "explore/trace.h"
#include "rounds/msg_rounds.h"
#include "rounds/round_driver.h"
#include "runtime/fault.h"
#include "sim/adversaries.h"
#include "sim/workload.h"
#include "test_util.h"
#include "trusted/a2m.h"
#include "trusted/trinc.h"
#include "trusted/trinc_from_srb.h"
#include "trusted/usig.h"

namespace unidir {
namespace {

using testutil::Node;

// ---- public types: hex of a representative value ----------------------------

crypto::Digest digest_from(std::uint8_t first) {
  crypto::Digest d{};
  for (std::size_t i = 0; i < d.size(); ++i)
    d[i] = static_cast<std::uint8_t>(first + i);
  return d;
}

crypto::Signature sig_of(crypto::KeyId key) {
  return {key, digest_from(static_cast<std::uint8_t>(0xA0 + key))};
}

agreement::Command command(ProcessId client, std::uint64_t id) {
  return {client, id, bytes_of("put k" + std::to_string(id)), id - 1};
}

broadcast::SignedVal signed_val() {
  return {1, 4, bytes_of("value"), sig_of(1)};
}

trusted::TrincAttestation trinc_attestation() {
  return {1, 2, 3, 5, bytes_of("m"), sig_of(6)};
}

trusted::A2mAttestation a2m_attestation() {
  return {2, trusted::A2mAttestation::Kind::End, 4, 6, bytes_of("v"),
          bytes_of("nonce"), sig_of(8)};
}

struct Pinned {
  std::string name;
  Bytes encoded;
  /// Decodes `encoded` and encodes the result again.
  std::function<Bytes(const Bytes&)> round_trip;
};

template <class T>
Pinned pin(std::string name, const T& value) {
  return {std::move(name), serde::encode(value),
          [](const Bytes& b) { return serde::encode(serde::decode<T>(b)); }};
}

/// The pinned encoding of each value public_types() builds.
const std::map<std::string, std::string> kPublicHex = {
    {"Signature",
      "0720a7a8a9aaabacadaeafb0b1b2b3b4b5b6b7b8b9babbbcbdbebfc0c1c2c3c4"
      "c5c6"},
    {"Command", "02ac0208707574206b333030ab02"},
    {"Reply", "ac02026f6b"},
    {"ExecutionRecord", "020506707574206b35040172"},
    {"ExecutionLog",
      "01202fa8cf94a26f5b345bf36c54178217554cdd10dd65e8b0a614e28dc0af49"
      "9ab802010206707574206b3201027232010306707574206b3302027233"},
    {"ExecutionDeduper", "02010402040161050162030801090163"},
    {"InstallWitness", "030104010503090201040308"},
    {"VcEntry", "0311020806707574206b3807"},
    {"SignedVal",
      "01040576616c75650120a1a2a3a4a5a6a7a8a9aaabacadaeafb0b1b2b3b4b5b6"
      "b7b8b9babbbcbdbebfc0"},
    {"CopyVote",
      "020220a2a3a4a5a6a7a8a9aaabacadaeafb0b1b2b3b4b5b6b7b8b9babbbcbdbe"
      "bfc0c1"},
    {"L1Proof",
      "01040576616c75650120a1a2a3a4a5a6a7a8a9aaabacadaeafb0b1b2b3b4b5b6"
      "b7b8b9babbbcbdbebfc002020220a2a3a4a5a6a7a8a9aaabacadaeafb0b1b2b3"
      "b4b5b6b7b8b9babbbcbdbebfc0c1000320a3a4a5a6a7a8a9aaabacadaeafb0b1"
      "b2b3b4b5b6b7b8b9babbbcbdbebfc0c1c2000420a4a5a6a7a8a9aaabacadaeaf"
      "b0b1b2b3b4b5b6b7b8b9babbbcbdbebfc0c1c2c3"},
    {"L2Proof",
      "01040576616c75650120a1a2a3a4a5a6a7a8a9aaabacadaeafb0b1b2b3b4b5b6"
      "b7b8b9babbbcbdbebfc00101040576616c75650120a1a2a3a4a5a6a7a8a9aaab"
      "acadaeafb0b1b2b3b4b5b6b7b8b9babbbcbdbebfc002020220a2a3a4a5a6a7a8"
      "a9aaabacadaeafb0b1b2b3b4b5b6b7b8b9babbbcbdbebfc0c1000320a3a4a5a6"
      "a7a8a9aaabacadaeafb0b1b2b3b4b5b6b7b8b9babbbcbdbebfc0c1c2000420a4"
      "a5a6a7a8a9aaabacadaeafb0b1b2b3b4b5b6b7b8b9babbbcbdbebfc0c1c2c3"},
    {"UniSlotPayload",
      "0101040576616c75650120a1a2a3a4a5a6a7a8a9aaabacadaeafb0b1b2b3b4b5"
      "b6b7b8b9babbbcbdbebfc00101040576616c75650120a1a2a3a4a5a6a7a8a9aa"
      "abacadaeafb0b1b2b3b4b5b6b7b8b9babbbcbdbebfc0020220a2a3a4a5a6a7a8"
      "a9aaabacadaeafb0b1b2b3b4b5b6b7b8b9babbbcbdbebfc0c10101040576616c"
      "75650120a1a2a3a4a5a6a7a8a9aaabacadaeafb0b1b2b3b4b5b6b7b8b9babbbc"
      "bdbebfc002020220a2a3a4a5a6a7a8a9aaabacadaeafb0b1b2b3b4b5b6b7b8b9"
      "babbbcbdbebfc0c1000320a3a4a5a6a7a8a9aaabacadaeafb0b1b2b3b4b5b6b7"
      "b8b9babbbcbdbebfc0c1c2000420a4a5a6a7a8a9aaabacadaeafb0b1b2b3b4b5"
      "b6b7b8b9babbbcbdbebfc0c1c2c30101040576616c75650120a1a2a3a4a5a6a7"
      "a8a9aaabacadaeafb0b1b2b3b4b5b6b7b8b9babbbcbdbebfc00101040576616c"
      "75650120a1a2a3a4a5a6a7a8a9aaabacadaeafb0b1b2b3b4b5b6b7b8b9babbbc"
      "bdbebfc002020220a2a3a4a5a6a7a8a9aaabacadaeafb0b1b2b3b4b5b6b7b8b9"
      "babbbcbdbebfc0c1000320a3a4a5a6a7a8a9aaabacadaeafb0b1b2b3b4b5b6b7"
      "b8b9babbbcbdbebfc0c1c2000420a4a5a6a7a8a9aaabacadaeafb0b1b2b3b4b5"
      "b6b7b8b9babbbcbdbebfc0c1c2c3"},
    {"UniqueIdentifier",
      "0920101112131415161718191a1b1c1d1e1f202122232425262728292a2b2c2d"
      "2e2f0520a5a6a7a8a9aaabacadaeafb0b1b2b3b4b5b6b7b8b9babbbcbdbebfc0"
      "c1c2c3c4"},
    {"TrincAttestation",
      "01020305016d0620a6a7a8a9aaabacadaeafb0b1b2b3b4b5b6b7b8b9babbbcbd"
      "bebfc0c1c2c3c4c5"},
    {"A2mAttestation",
      "020204060176056e6f6e63650820a8a9aaabacadaeafb0b1b2b3b4b5b6b7b8b9"
      "babbbcbdbebfc0c1c2c3c4c5c6c7"},
    {"SrbAttestation", "010203016d"},
    {"CrashEvent", "0128"},
    {"RecoveryEvent", "01285a"},
    {"ScenarioSpec",
      "010303070201017b054103c801960102070901046b6579300276300901046b65"
      "79310276310901046b6579320276320901046b6579300276330901046b657931"
      "0276340901046b6579320276350901046b65793002763601024d80897a190206"
      "88028b0301a802d703010600010406030301060305410103"},
    {"MessageKey", "010209fe95bff7dbd537"},
    {"ScheduleDecision", "02010209fe95bff7dbd537010003"},
    {"ScheduleTrace",
      "0200010209fe95bff7dbd537000c0102010209fe95bff7dbd537010003"},
    {"PartitionEpoch", "0a32020200010102"},
    {"FaultPlan",
      "2aa09c01904ed086038827c801d00f020a320202000101023c46020101020002"},
    {"WorkloadSpec", "031401070420500263"},
    {"RoundMsg", "0305726f756e64"},
};

std::vector<Pinned> public_types() {
  using namespace agreement;
  std::vector<Pinned> out;

  out.push_back(pin("Signature", sig_of(7)));
  out.push_back(pin("Command", command(2, 300)));
  out.push_back(pin("Reply", Reply{300, bytes_of("ok")}));
  out.push_back(
      pin("ExecutionRecord", ExecutionRecord{command(2, 5), bytes_of("r")}));

  ExecutionLog log;
  for (std::uint64_t k = 1; k <= 3; ++k)
    log.append({command(1, k), bytes_of("r" + std::to_string(k))});
  log.prune_to(1);
  out.push_back(pin("ExecutionLog", log));

  ExecutionDeduper dedup;
  dedup.record(command(1, 4), bytes_of("a"));
  dedup.record(command(1, 5), bytes_of("b"));
  dedup.record(command(3, 9), bytes_of("c"));
  out.push_back(pin("ExecutionDeduper", dedup));
  out.push_back(pin("InstallWitness", InstallWitness::of(dedup)));
  out.push_back(pin("VcEntry", VcEntry{3, 17, command(2, 8)}));

  const broadcast::SignedVal val = signed_val();
  broadcast::CopyVote copy{2, sig_of(2)};
  broadcast::L1Proof l1{val, {copy, broadcast::CopyVote{0, sig_of(3)}}, 0,
                        sig_of(4)};
  broadcast::L2Proof l2{val, {l1}};
  out.push_back(pin("SignedVal", val));
  out.push_back(pin("CopyVote", copy));
  out.push_back(pin("L1Proof", l1));
  out.push_back(pin("L2Proof", l2));
  out.push_back(pin("UniSlotPayload", broadcast::UniSlotPayload{
                                         {val}, {{val, copy}}, {l1}, {l2}}));

  out.push_back(pin("UniqueIdentifier", trusted::UniqueIdentifier{
                                           9, digest_from(0x10), sig_of(5)}));
  out.push_back(pin("TrincAttestation", trinc_attestation()));
  out.push_back(pin("A2mAttestation", a2m_attestation()));
  out.push_back(pin("SrbAttestation",
                    trusted::SrbAttestation{1, 2, 3, bytes_of("m")}));

  out.push_back(pin("CrashEvent", explore::CrashEvent{1, 40}));
  out.push_back(pin("RecoveryEvent", explore::RecoveryEvent{1, 40, 90}));
  auto spec = explore::ScenarioSpec::materialize_batched_recovery(
      explore::ProtocolKind::Pbft, explore::AdversaryKind::Gst, 3);
  spec.crashes = {{2, 77}};
  spec.volatile_trusted_state = true;
  spec.client_max_attempts = 6;
  spec.commit_quorum = 2;
  spec.trace = true;
  out.push_back(pin("ScenarioSpec", spec));

  const explore::MessageKey key{1, 2, 9, 0xDEADBEEFCAFEULL};
  const explore::ScheduleDecision send{explore::DecisionKind::Send, key, false,
                                       12, 1};
  const explore::ScheduleDecision release{explore::DecisionKind::Release, key,
                                          true, 0, 3};
  out.push_back(pin("MessageKey", key));
  out.push_back(pin("ScheduleDecision", release));
  out.push_back(pin("ScheduleTrace", explore::ScheduleTrace{{send, release}}));

  const runtime::PartitionEpoch epoch{10, 50, {{0, 1}, {2}}};
  runtime::FaultPlan plan;
  plan.seed = 42;
  plan.drop_per_million = 20'000;
  plan.duplicate_per_million = 10'000;
  plan.delay_per_million = 50'000;
  plan.corrupt_per_million = 5'000;
  plan.delay_min_ticks = 200;
  plan.delay_max_ticks = 2'000;
  plan.partitions = {epoch, {60, 70, {{1}, {0, 2}}}};
  out.push_back(pin("PartitionEpoch", epoch));
  out.push_back(pin("FaultPlan", plan));

  sim::WorkloadSpec workload;
  workload.clients = 3;
  workload.requests_per_client = 20;
  workload.open_loop = true;
  workload.mean_interarrival = 7;
  workload.max_outstanding = 4;
  workload.key_space = 32;
  workload.hot_key_percent = 80;
  workload.hot_keys = 2;
  workload.seed = 99;
  out.push_back(pin("WorkloadSpec", workload));

  out.push_back(pin("RoundMsg", rounds::RoundMsg{3, bytes_of("round")}));
  return out;
}

TEST(PinnedEncodings, PublicTypesEncodeToPinnedBytes) {
  for (const Pinned& p : public_types()) {
    EXPECT_EQ(to_hex(p.encoded), kPublicHex.at(p.name)) << p.name;
    EXPECT_EQ(p.round_trip(p.encoded), p.encoded) << p.name << " round trip";
  }
}

// What a trailing signature covers: a domain tag, then every field before it.
TEST(PinnedEncodings, SigningBytesArePinned) {
  EXPECT_EQ(to_hex(signed_val().signing_bytes()),
            "0b7372622d756e692d76616c01040576616c7565");
  EXPECT_EQ(to_hex(trinc_attestation().signing_bytes()),
            "0c7472696e632d61747465737401020305016d");
  EXPECT_EQ(to_hex(a2m_attestation().signing_bytes()),
            "0a61326d2d617474657374020204060176056e6f6e6365");
}

// ---- private wire types: transcripts of one fixed-seed run -----------------

/// SHA-256 over every transcript, in the layout of run_scenario's
/// fingerprint (with the final time standing in for the completion count).
std::string transcripts_digest(const sim::World& world) {
  crypto::Sha256 sha;
  serde::Writer head;
  head.uvarint(world.now());
  for (ProcessId p = 0; p < world.size(); ++p) {
    const std::vector<sim::ObservedEvent>& evs = world.transcript(p).events();
    head.uvarint(evs.size());
    for (const sim::ObservedEvent& ev : evs) {
      const ByteSpan payload = ev.payload.span();
      head.u8(static_cast<std::uint8_t>(ev.kind));
      head.uvarint(ev.from);
      head.uvarint(ev.channel);
      head.str(ev.tag);
      head.uvarint(payload.size());
      sha.update(head.buffer());
      head.clear();
      sha.update(payload);
    }
  }
  sha.update(head.buffer());
  return to_hex(crypto::digest_bytes(sha.finish()));
}

constexpr sim::Channel kSrbCh = 20;
constexpr sim::Channel kRoundCh = 21;
constexpr std::uint64_t kSeed = 5;

std::unique_ptr<sim::Adversary> random_delay(Time max_delay) {
  return std::make_unique<sim::RandomDelayAdversary>(1, max_delay);
}

/// n hosts, each with one SRB endpoint from `make`; hosts 0 and 1 broadcast
/// two messages each.
template <class Make>
std::string srb_run(std::size_t n, Make make) {
  sim::World world(kSeed, random_delay(12));
  std::vector<Node*> nodes;
  std::vector<std::unique_ptr<broadcast::SrbEndpoint>> eps;
  for (std::size_t i = 0; i < n; ++i) {
    nodes.push_back(&world.spawn<Node>());
    eps.push_back(make(world, *nodes.back()));
  }
  world.start();
  for (int k = 0; k < 2; ++k) {
    eps[0]->broadcast(bytes_of("a" + std::to_string(k)));
    eps[1]->broadcast(bytes_of("b" + std::to_string(k)));
  }
  world.run_to_quiescence();
  return transcripts_digest(world);
}

std::string echo_run() {
  return srb_run(4, [](sim::World&, Node& node) {
    return std::make_unique<broadcast::EchoBroadcastEndpoint>(node, kSrbCh, 4,
                                                               1);
  });
}

std::string bracha_run() {
  return srb_run(4, [](sim::World&, Node& node) {
    return std::make_unique<broadcast::BrachaEndpoint>(node, kSrbCh, 4, 1);
  });
}

std::string hub_run() {
  std::unique_ptr<broadcast::SrbHub> hub;
  return srb_run(3, [&hub](sim::World& world, Node& node) {
    if (!hub) hub = std::make_unique<broadcast::SrbHub>(world, kSrbCh);
    return std::unique_ptr<broadcast::SrbEndpoint>(hub->make_endpoint(node));
  });
}

class RbUniRunner final : public sim::Process {
 public:
  std::unique_ptr<broadcast::RbUniRoundDriver> driver;

 protected:
  void on_start() override { go(); }

 private:
  void go() {
    if (driver->completed_rounds() >= 2) return;
    driver->start_round(
        bytes_of("r" + std::to_string(driver->completed_rounds() + 1)),
        [this](RoundNum, const std::vector<rounds::Received>&) { go(); });
  }
};

std::string rb_uni_round_run() {
  sim::World world(kSeed, random_delay(6));
  broadcast::SrbHub hub(world, kSrbCh);
  std::vector<RbUniRunner*> runners;
  for (int i = 0; i < 4; ++i) runners.push_back(&world.spawn<RbUniRunner>());
  for (RbUniRunner* r : runners)
    r->driver = std::make_unique<broadcast::RbUniRoundDriver>(*r, hub);
  world.start();
  world.run_to_quiescence();
  return transcripts_digest(world);
}

std::string noneq_run() {
  constexpr Time kDelta = 4;
  sim::World world(kSeed, random_delay(kDelta));
  std::vector<Node*> nodes;
  std::vector<std::unique_ptr<rounds::DeltaSyncRoundDriver>> drivers;
  std::vector<std::unique_ptr<broadcast::NonEqBroadcast>> bcasts;
  for (int i = 0; i < 4; ++i) {
    nodes.push_back(&world.spawn<Node>());
    drivers.push_back(std::make_unique<rounds::DeltaSyncRoundDriver>(
        *nodes.back(), kRoundCh, 2 * kDelta));
    bcasts.push_back(std::make_unique<broadcast::NonEqBroadcast>(
        *nodes.back(), *drivers.back(), /*sender=*/0));
  }
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    broadcast::NonEqBroadcast* b = bcasts[i].get();
    nodes[i]->on_start_fn = [b, i] {
      b->run(i == 0 ? std::optional<Bytes>(bytes_of("v")) : std::nullopt,
             nullptr);
    };
  }
  world.start();
  world.run_to_quiescence();
  return transcripts_digest(world);
}

class DsNode final : public sim::Process {
 public:
  std::unique_ptr<agreement::DolevStrongBroadcast> ds;
  std::optional<Bytes> input;

 protected:
  void on_start() override { ds->run(input, nullptr); }
};

std::string dolev_strong_run() {
  sim::World world(kSeed, random_delay(5));
  for (int i = 0; i < 4; ++i) {
    DsNode& node = world.spawn<DsNode>();
    agreement::DolevStrongBroadcast::Options o;
    o.sender = 0;
    o.f = 2;
    o.round_length = 6;
    node.ds = std::make_unique<agreement::DolevStrongBroadcast>(node, o);
    if (i == 0) node.input = bytes_of("decided");
  }
  world.start();
  world.run_to_quiescence();
  return transcripts_digest(world);
}

std::string trinc_from_srb_run() {
  sim::World world(kSeed, random_delay(12));
  broadcast::SrbHub hub(world, kSrbCh);
  std::vector<Node*> nodes;
  std::vector<std::unique_ptr<broadcast::SrbHubEndpoint>> eps;
  std::vector<std::unique_ptr<trusted::TrincFromSrb>> trincs;
  for (int i = 0; i < 3; ++i) {
    nodes.push_back(&world.spawn<Node>());
    eps.push_back(hub.make_endpoint(*nodes.back()));
    trincs.push_back(std::make_unique<trusted::TrincFromSrb>(
        *eps.back(), nodes.back()->id(), &world.wire_stats()));
  }
  world.start();
  (void)trincs[0]->attest(1, bytes_of("m1"));
  (void)trincs[0]->attest(4, bytes_of("m4"));
  (void)trincs[2]->attest(2, bytes_of("m2"));
  world.run_to_quiescence();
  return transcripts_digest(world);
}

TEST(PinnedEncodings, PrivateWireTypesKeepTranscriptDigests) {
  const std::vector<std::pair<std::string, std::function<std::string()>>>
      runs = {{"echo", echo_run},
              {"bracha", bracha_run},
              {"srb-hub", hub_run},
              {"rb-uni-round", rb_uni_round_run},
              {"noneq", noneq_run},
              {"dolev-strong", dolev_strong_run},
              {"trinc-from-srb", trinc_from_srb_run}};
  const std::map<std::string, std::string> pinned = {
      {"echo",
        "95315ac5a402709a5e4a8c789c484828f53b893d7120bb9bc2002b361f701b4b"},
      {"bracha",
        "62f1d28b1ff457ba5206417f52c77e1d0f1020a656f2816017fd8087a9efc6f5"},
      {"srb-hub",
        "be3e00a3be7072c990ffc7f8991644a39e206f3ee53d82a6487e99b2da79a33a"},
      {"rb-uni-round",
        "e66f5850db48b89621f92a634d13cc9a6e7fc7514d4f5d792398d4c2af03bb78"},
      {"noneq",
        "4104d48432fa65784903d9fd3ba9950fdefbc201f8c4f3ff0a2db064d50b4c5a"},
      {"dolev-strong",
        "21fc55472df96ec3e1d88cddecfc28093569964ee97845332f5f7f6b6e211aaa"},
      {"trinc-from-srb",
        "a05788fc2fc49962f1c36e9760a2498c915466d0203aeb1874014182a2a1c5bc"},
  };
  for (const auto& [name, run] : runs)
    EXPECT_EQ(run(), pinned.at(name)) << name;
}

// ---- durable images: every replica's store after crash recovery -------------

/// SHA-256 over every replica's DurableStore entries (key, value) at the
/// end of the scenario, read through an invariant hook — run_scenario's
/// ExplorationContext is the one view of its World.
std::string durable_digest(const explore::ScenarioSpec& spec) {
  std::string digest;
  std::size_t entries = 0;
  explore::InvariantRegistry registry;
  registry.add({"durable-digest",
                [&](const explore::ExplorationContext& ctx)
                    -> std::optional<std::string> {
                  // Reads only; World::durable has no const overload.
                  auto& world = const_cast<sim::World&>(*ctx.world);
                  serde::Writer w;
                  for (ProcessId p = 0; p < spec.n; ++p) {
                    const auto& store = world.durable(p).entries();
                    w.uvarint(store.size());
                    for (const auto& [key, value] : store) {
                      w.str(key);
                      w.bytes(value);
                      ++entries;
                    }
                  }
                  digest = to_hex(
                      crypto::digest_bytes(crypto::Sha256::hash(w.buffer())));
                  return std::nullopt;
                }});
  const explore::RunOutcome out = explore::run_scenario(spec, registry);
  EXPECT_FALSE(out.violation.has_value());
  EXPECT_GT(entries, 0u) << "no replica persisted anything";
  return digest;
}

TEST(PinnedEncodings, DurableImagesKeepTheirDigests) {
  const std::map<std::string, std::string> pinned = {
    {"minbft",
      "d219f80352ff5502ac34d45ba2ce71cf93cde453ba7fdc0de83a67f3017b087c"},
    {"pbft",
      "f2b76794143657f3d62b1a3a3ca5b96ca8e263f174241c03b484de25ae2aa5fc"},
  };
  for (const auto protocol :
       {explore::ProtocolKind::MinBft, explore::ProtocolKind::Pbft}) {
    const auto spec = explore::ScenarioSpec::materialize_recovery(
        protocol, explore::AdversaryKind::RandomDelay, 5);
    ASSERT_FALSE(spec.recoveries.empty());
    const std::string name = explore::protocol_name(protocol);
    EXPECT_EQ(durable_digest(spec), pinned.at(name)) << name;
  }
}

}  // namespace
}  // namespace unidir
