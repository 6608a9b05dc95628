// The bidirectional power class, executed: Dolev–Strong broadcast in f+1
// lock-step rounds (any n > f), and strong-validity agreement (n >= 2f+1)
// — what synchrony achieves and unidirectionality provably cannot.
#include <gtest/gtest.h>

#include "agreement/dolev_strong.h"
#include "sim/adversaries.h"

namespace unidir::agreement {
namespace {

constexpr Time kDelta = 5;
constexpr Time kRoundLen = kDelta + 1;

class DsNode final : public sim::Process {
 public:
  std::unique_ptr<DolevStrongBroadcast> ds;
  std::optional<Bytes> input;

 protected:
  void on_start() override { ds->run(input, nullptr); }
};

struct DsFixture {
  sim::World world;
  std::vector<DsNode*> nodes;

  DsFixture(std::size_t n, std::size_t f, ProcessId sender,
            std::uint64_t seed)
      : world(seed, std::make_unique<sim::RandomDelayAdversary>(1, kDelta)) {
    for (std::size_t i = 0; i < n; ++i) {
      auto& node = world.spawn<DsNode>();
      DolevStrongBroadcast::Options o;
      o.sender = sender;
      o.f = f;
      o.round_length = kRoundLen;
      node.ds = std::make_unique<DolevStrongBroadcast>(node, o);
      nodes.push_back(&node);
    }
  }
};

struct DsCase {
  std::size_t n;
  std::size_t f;
  std::uint64_t seed;
};

class DolevStrongP : public ::testing::TestWithParam<DsCase> {};

TEST_P(DolevStrongP, CorrectSenderAllCommitItsValue) {
  const auto& c = GetParam();
  DsFixture fx(c.n, c.f, /*sender=*/0, c.seed);
  fx.nodes[0]->input = bytes_of("decided");
  fx.world.start();
  fx.world.run_to_quiescence();
  for (auto* node : fx.nodes) {
    ASSERT_TRUE(node->ds->committed());
    ASSERT_TRUE(node->ds->value().has_value()) << "node " << node->id();
    EXPECT_EQ(*node->ds->value(), bytes_of("decided"));
  }
}

// Note n = f+1 and even n = f+2 configurations: Dolev–Strong tolerates any
// number of faults below n — far beyond the asynchronous third.
INSTANTIATE_TEST_SUITE_P(Sweep, DolevStrongP,
                         ::testing::Values(DsCase{2, 1, 1}, DsCase{3, 1, 2},
                                           DsCase{3, 2, 3}, DsCase{4, 2, 4},
                                           DsCase{5, 3, 5}, DsCase{7, 2, 6},
                                           DsCase{7, 6, 7}));

TEST(DolevStrong, SilentSenderCommitsBotEverywhere) {
  DsFixture fx(4, 2, /*sender=*/0, 9);
  fx.world.crash(0);
  fx.world.start();
  fx.world.run_to_quiescence();
  for (std::size_t i = 1; i < 4; ++i) {
    ASSERT_TRUE(fx.nodes[i]->ds->committed());
    EXPECT_FALSE(fx.nodes[i]->ds->value().has_value());
  }
}

/// Byzantine sender: signs two values and shows each to half the group in
/// round 1. The relays in round 2 expose the equivocation — everyone must
/// commit the SAME thing (here: ⊥, both values having been extracted).
class EquivocatingDsSender final : public sim::Process {
 public:
  sim::Channel channel = 90;

  void on_start() override {
    for (ProcessId p = 1; p < world().size(); ++p) {
      const Bytes value = bytes_of(p % 2 == 0 ? "left" : "right");
      serde::Writer inner;
      inner.str("dolev-strong");
      inner.uvarint(id());
      inner.uvarint(channel);
      inner.bytes(value);
      serde::Writer wire;
      wire.bytes(value);
      wire.uvarint(1);  // one signature
      wire.uvarint(id());
      serde::write(wire, signer().sign(inner.buffer()));
      send(p, channel, wire.take());
    }
  }
};

TEST(DolevStrong, EquivocatingSenderYieldsAgreementOnBot) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    sim::World w(seed, std::make_unique<sim::RandomDelayAdversary>(1, kDelta));
    auto& byz = w.spawn<EquivocatingDsSender>();
    w.mark_byzantine(byz.id());
    std::vector<DsNode*> nodes;
    for (int i = 0; i < 4; ++i) {
      auto& node = w.spawn<DsNode>();
      DolevStrongBroadcast::Options o;
      o.sender = byz.id();
      o.f = 1;
      o.round_length = kRoundLen;
      node.ds = std::make_unique<DolevStrongBroadcast>(node, o);
      nodes.push_back(&node);
    }
    w.start();
    w.run_to_quiescence();
    // Agreement: all correct commit the same outcome.
    std::set<std::optional<Bytes>> outcomes;
    for (auto* node : nodes) {
      ASSERT_TRUE(node->ds->committed()) << "seed " << seed;
      outcomes.insert(node->ds->value());
    }
    EXPECT_EQ(outcomes.size(), 1u) << "seed " << seed;
    // With relays working, the equivocation is exposed: the outcome is ⊥.
    EXPECT_FALSE(nodes[0]->ds->value().has_value()) << "seed " << seed;
  }
}

TEST(DolevStrong, ForgedChainsRejected) {
  DsFixture fx(3, 1, /*sender=*/0, 11);
  // No input run: instead a Byzantine non-sender (node 2) fabricates a
  // chain without the sender's signature.
  fx.nodes[0]->input = std::nullopt;  // sender stays silent...
  // ...actually the sender must provide input; re-point the fabrication
  // test: sender broadcasts "real", node 2 relays a forged "fake" chain
  // signed only by itself.
  fx.nodes[0]->input = bytes_of("real");
  fx.world.mark_byzantine(fx.nodes[2]->id());
  auto& forger = *fx.nodes[2];
  fx.world.simulator().at(1, [&forger] {
    serde::Writer wire;
    wire.bytes(bytes_of("fake"));
    wire.uvarint(1);
    wire.uvarint(forger.id());
    serde::Writer inner;
    inner.str("dolev-strong");
    inner.uvarint(0);  // claims instance sender 0 but cannot sign for it
    inner.uvarint(90);
    inner.bytes(bytes_of("fake"));
    serde::write(wire, forger.signer().sign(inner.buffer()));
    forger.broadcast(90, wire.take());
  });
  fx.world.start();
  fx.world.run_to_quiescence();
  EXPECT_EQ(*fx.nodes[1]->ds->value(), bytes_of("real"));
}

// ---- strong agreement --------------------------------------------------------

class SaNode final : public sim::Process {
 public:
  std::unique_ptr<StrongAgreement> sa;
  Bytes input;

 protected:
  void on_start() override { sa->run(input, nullptr); }
};

TEST(StrongAgreement, StrongValidityWithByzantineMinority) {
  // n = 2f+1 = 5, f = 2: the two Byzantine processes stay silent (the
  // worst they can do against strong validity is fail to vote); all
  // correct processes share input v — all must commit v. Impossible under
  // unidirectionality with n <= 3f (here n=5 <= 6): this is the
  // bidirectional separation made executable.
  sim::World w(13, std::make_unique<sim::RandomDelayAdversary>(1, kDelta));
  std::vector<SaNode*> nodes;
  for (int i = 0; i < 5; ++i) {
    auto& node = w.spawn<SaNode>();
    StrongAgreement::Options o;
    o.n = 5;
    o.f = 2;
    o.round_length = kRoundLen;
    node.sa = std::make_unique<StrongAgreement>(node, o);
    node.input = bytes_of("the-one-value");
    nodes.push_back(&node);
  }
  w.crash(3);
  w.crash(4);
  w.start();
  w.run_to_quiescence();
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(nodes[static_cast<std::size_t>(i)]->sa->committed());
    EXPECT_EQ(nodes[static_cast<std::size_t>(i)]->sa->value(),
              bytes_of("the-one-value"));
  }
}

TEST(StrongAgreement, MixedInputsStillAgree) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    sim::World w(seed, std::make_unique<sim::RandomDelayAdversary>(1, kDelta));
    std::vector<SaNode*> nodes;
    for (int i = 0; i < 5; ++i) {
      auto& node = w.spawn<SaNode>();
      StrongAgreement::Options o;
      o.n = 5;
      o.f = 2;
      o.round_length = kRoundLen;
      node.sa = std::make_unique<StrongAgreement>(node, o);
      node.input = bytes_of(i < 2 ? "alpha" : "beta");
      nodes.push_back(&node);
    }
    w.start();
    w.run_to_quiescence();
    std::set<Bytes> committed;
    for (auto* node : nodes) {
      ASSERT_TRUE(node->sa->committed()) << "seed " << seed;
      committed.insert(node->sa->value());
    }
    EXPECT_EQ(committed.size(), 1u) << "seed " << seed;
    EXPECT_EQ(*committed.begin(), bytes_of("beta"));  // plurality (3 vs 2)
  }
}

TEST(StrongAgreement, RejectsSubMajorityConfigurations) {
  sim::World w(1, std::make_unique<sim::ImmediateAdversary>());
  auto& node = w.spawn<SaNode>();
  StrongAgreement::Options o;
  o.n = 4;
  o.f = 2;  // n < 2f+1
  EXPECT_THROW(StrongAgreement(node, o), std::invalid_argument);
}

}  // namespace
}  // namespace unidir::agreement
