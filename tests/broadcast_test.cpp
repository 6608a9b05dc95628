#include <gtest/gtest.h>

#include "broadcast/bracha.h"
#include "broadcast/noneq.h"
#include "broadcast/rb_uni_round.h"
#include "broadcast/srb_hub.h"
#include "rounds/checkers.h"
#include "rounds/msg_rounds.h"
#include "sim/adversaries.h"
#include "test_util.h"

namespace unidir::broadcast {
namespace {

using testutil::Node;

constexpr sim::Channel kSrbCh = 20;
constexpr sim::Channel kRoundCh = 21;

// ---- SrbHub (trusted primitive) ----------------------------------------------

struct HubFixture {
  sim::World world;
  SrbHub hub;
  std::vector<Node*> nodes;
  std::vector<std::unique_ptr<SrbHubEndpoint>> endpoints;

  HubFixture(std::size_t n, std::uint64_t seed,
             std::unique_ptr<sim::Adversary> adversary)
      : world(seed, std::move(adversary)), hub(world, kSrbCh) {
    for (std::size_t i = 0; i < n; ++i) {
      nodes.push_back(&world.spawn<Node>());
      endpoints.push_back(hub.make_endpoint(*nodes.back()));
    }
  }

  std::vector<SrbView> views(const std::vector<std::vector<Bytes>>& bcasts) {
    std::vector<SrbView> out;
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      if (!world.correct(nodes[i]->id())) continue;
      out.push_back({nodes[i]->id(), endpoints[i].get(), bcasts[i]});
    }
    return out;
  }
};

TEST(SrbHub, DeliversToEveryoneIncludingSender) {
  HubFixture fx(4, 1, std::make_unique<sim::ImmediateAdversary>());
  fx.world.start();
  fx.endpoints[0]->broadcast(bytes_of("hello"));
  fx.world.run_to_quiescence();
  for (auto& ep : fx.endpoints) {
    ASSERT_EQ(ep->delivered().size(), 1u);
    EXPECT_EQ(ep->delivered()[0],
              (Delivery{0, 1, bytes_of("hello")}));
  }
}

TEST(SrbHub, SequencesUnderHeavyReordering) {
  HubFixture fx(3, 7, std::make_unique<sim::RandomDelayAdversary>(1, 100));
  fx.world.start();
  std::vector<std::vector<Bytes>> bcasts(3);
  for (int k = 0; k < 20; ++k) {
    const Bytes m = bytes_of("m" + std::to_string(k));
    fx.endpoints[1]->broadcast(m);
    bcasts[1].push_back(m);
  }
  fx.world.run_to_quiescence();
  EXPECT_FALSE(check_srb(fx.views(bcasts)).has_value());
  // Explicit order check at one receiver.
  const auto& log = fx.endpoints[2]->delivered();
  ASSERT_EQ(log.size(), 20u);
  for (std::size_t i = 0; i < log.size(); ++i) {
    EXPECT_EQ(log[i].seq, i + 1);
    EXPECT_EQ(log[i].message, bcasts[1][i]);
  }
}

TEST(SrbHub, InterleavedSendersKeepPerSenderOrder) {
  HubFixture fx(5, 9, std::make_unique<sim::RandomDelayAdversary>(1, 50));
  fx.world.start();
  std::vector<std::vector<Bytes>> bcasts(5);
  for (int k = 0; k < 10; ++k) {
    for (std::size_t s = 0; s < 5; ++s) {
      const Bytes m = bytes_of("s" + std::to_string(s) + "k" +
                               std::to_string(k));
      fx.endpoints[s]->broadcast(m);
      bcasts[s].push_back(m);
    }
  }
  fx.world.run_to_quiescence();
  EXPECT_FALSE(check_srb(fx.views(bcasts)).has_value());
}

TEST(SrbHub, SpoofedWireMessagesRejected) {
  HubFixture fx(3, 3, std::make_unique<sim::ImmediateAdversary>());
  fx.world.start();
  // Process 2 (Byzantine) injects a fake delivery claiming to be from 0.
  fx.world.mark_byzantine(fx.nodes[2]->id());
  serde::Writer w;
  w.uvarint(0);            // sender
  w.uvarint(1);            // seq
  w.bytes(bytes_of("fake"));
  crypto::Signature bogus;
  bogus.key = fx.world.key_of(2);
  bogus.mac.fill(0xAB);
  serde::write(w, bogus);
  fx.nodes[2]->broadcast(kSrbCh, w.take());
  fx.world.run_to_quiescence();
  EXPECT_TRUE(fx.endpoints[0]->delivered().empty());
  EXPECT_TRUE(fx.endpoints[1]->delivered().empty());
}

TEST(SrbHub, HeldCopiesAreSimplyNotYetDelivered) {
  // The trusted primitive prevents equivocation but NOT partitions: a held
  // copy never arrives, and nothing in the primitive can force it.
  auto adversary = std::make_unique<sim::PartitionAdversary>();
  auto* part = adversary.get();
  HubFixture fx(3, 5, std::move(adversary));
  part->block({0}, {2});
  fx.world.start();
  fx.endpoints[0]->broadcast(bytes_of("m"));
  fx.world.run_to_quiescence();
  EXPECT_EQ(fx.endpoints[1]->delivered().size(), 1u);
  EXPECT_TRUE(fx.endpoints[2]->delivered().empty());
  // Heal: the copy flows.
  part->clear();
  fx.world.network().flush_held();
  fx.world.run_to_quiescence();
  EXPECT_EQ(fx.endpoints[2]->delivered().size(), 1u);
}

// ---- Bracha -------------------------------------------------------------------

struct BrachaFixture {
  sim::World world;
  std::vector<Node*> nodes;
  std::vector<std::unique_ptr<BrachaEndpoint>> endpoints;
  std::size_t n;
  std::size_t f;

  BrachaFixture(std::size_t n_, std::size_t f_, std::uint64_t seed,
                Time max_delay = 20)
      : world(seed, std::make_unique<sim::RandomDelayAdversary>(1, max_delay)),
        n(n_),
        f(f_) {
    for (std::size_t i = 0; i < n; ++i) {
      nodes.push_back(&world.spawn<Node>());
      endpoints.push_back(
          std::make_unique<BrachaEndpoint>(*nodes.back(), kSrbCh, n, f));
    }
  }
};

TEST(Bracha, RequiresNGreaterThan3F) {
  sim::World w(1, std::make_unique<sim::ImmediateAdversary>());
  auto& node = w.spawn<Node>();
  EXPECT_THROW(BrachaEndpoint(node, kSrbCh, 3, 1), std::invalid_argument);
  EXPECT_THROW(BrachaEndpoint(node, kSrbCh, 6, 2), std::invalid_argument);
}

struct BrachaCase {
  std::size_t n;
  std::size_t f;
  std::uint64_t seed;
  int messages;
};

class BrachaP : public ::testing::TestWithParam<BrachaCase> {};

TEST_P(BrachaP, SrbPropertiesHold) {
  const auto& c = GetParam();
  BrachaFixture fx(c.n, c.f, c.seed);
  fx.world.start();
  std::vector<std::vector<Bytes>> bcasts(c.n);
  for (int k = 0; k < c.messages; ++k) {
    const Bytes m = bytes_of("msg" + std::to_string(k));
    fx.endpoints[0]->broadcast(m);
    bcasts[0].push_back(m);
  }
  fx.world.run_to_quiescence();
  std::vector<SrbView> views;
  for (std::size_t i = 0; i < c.n; ++i)
    views.push_back({fx.nodes[i]->id(), fx.endpoints[i].get(), bcasts[i]});
  const auto violation = check_srb(views);
  EXPECT_FALSE(violation.has_value())
      << to_string(violation->kind) << ": " << violation->detail;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BrachaP,
    ::testing::Values(BrachaCase{4, 1, 1, 5}, BrachaCase{4, 1, 2, 5},
                      BrachaCase{7, 2, 3, 4}, BrachaCase{7, 2, 4, 4},
                      BrachaCase{10, 3, 5, 3}, BrachaCase{13, 4, 6, 2}));

TEST(Bracha, ToleratesFCrashes) {
  BrachaFixture fx(7, 2, 11);
  fx.world.crash(fx.nodes[5]->id());
  fx.world.crash(fx.nodes[6]->id());
  fx.world.start();
  fx.endpoints[0]->broadcast(bytes_of("survives"));
  fx.world.run_to_quiescence();
  for (std::size_t i = 0; i < 5; ++i) {
    ASSERT_EQ(fx.endpoints[i]->delivered().size(), 1u) << i;
    EXPECT_EQ(fx.endpoints[i]->delivered()[0].message, bytes_of("survives"));
  }
}

/// Byzantine sender: hand-crafts INITIAL wires with different values to
/// different halves of the group.
class EquivocatingBrachaSender final : public sim::Process {
 public:
  void on_start() override {
    for (ProcessId p = 0; p < world().size(); ++p) {
      if (p == id()) continue;
      serde::Writer w;
      w.u8(1);  // INITIAL
      w.uvarint(id());
      w.uvarint(1);  // seq
      w.bytes(bytes_of(p % 2 == 0 ? "left" : "right"));
      send(p, kSrbCh, w.take());
    }
  }
};

TEST(Bracha, EquivocatingSenderCannotSplitDelivery) {
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    sim::World w(seed, std::make_unique<sim::RandomDelayAdversary>(1, 20));
    auto& byz = w.spawn<EquivocatingBrachaSender>();
    w.mark_byzantine(byz.id());
    std::vector<std::unique_ptr<BrachaEndpoint>> eps;
    std::vector<Node*> nodes;
    for (int i = 0; i < 6; ++i) {
      nodes.push_back(&w.spawn<Node>());
      eps.push_back(std::make_unique<BrachaEndpoint>(*nodes.back(), kSrbCh,
                                                     7, 2));
    }
    w.start();
    w.run_to_quiescence();
    // Agreement: all correct processes that delivered seq 1 from the
    // Byzantine sender delivered the same value.
    std::set<Bytes> delivered_values;
    for (auto& ep : eps)
      for (const Delivery& d : ep->delivered())
        if (d.sender == byz.id()) delivered_values.insert(d.message);
    EXPECT_LE(delivered_values.size(), 1u) << "seed " << seed;
    // And totality: if one delivered, all did (Bracha's READY amplification).
    std::size_t deliverers = 0;
    for (auto& ep : eps)
      if (!ep->delivered().empty()) ++deliverers;
    EXPECT_TRUE(deliverers == 0 || deliverers == eps.size())
        << "seed " << seed;
  }
}

TEST(Bracha, QuadraticMessageComplexity) {
  BrachaFixture fx(10, 3, 21, /*max_delay=*/3);
  fx.world.start();
  fx.endpoints[0]->broadcast(bytes_of("count me"));
  fx.world.run_to_quiescence();
  // 1 INITIAL broadcast + n ECHO broadcasts + n READY broadcasts,
  // each n-1 messages: total (2n+1)(n-1).
  const auto sent = fx.world.network().stats().messages_sent;
  EXPECT_EQ(sent, (2 * 10 + 1) * (10 - 1));
}

// ---- non-equivocating broadcast from unidirectional rounds --------------------

TEST(NonEqBroadcast, CorrectSenderAllCommitValue) {
  constexpr Time kDelta = 4;
  sim::World w(3, std::make_unique<sim::RandomDelayAdversary>(1, kDelta));
  std::vector<Node*> nodes;
  std::vector<std::unique_ptr<rounds::DeltaSyncRoundDriver>> drivers;
  std::vector<std::unique_ptr<NonEqBroadcast>> bcasts;
  for (int i = 0; i < 4; ++i) {
    nodes.push_back(&w.spawn<Node>());
    drivers.push_back(std::make_unique<rounds::DeltaSyncRoundDriver>(
        *nodes.back(), kRoundCh, 2 * kDelta));
    bcasts.push_back(
        std::make_unique<NonEqBroadcast>(*nodes.back(), *drivers.back(),
                                         /*sender=*/0));
  }
  for (int i = 0; i < 4; ++i) {
    Node* node = nodes[static_cast<std::size_t>(i)];
    NonEqBroadcast* b = bcasts[static_cast<std::size_t>(i)].get();
    node->on_start_fn = [b, i] {
      b->run(i == 0 ? std::optional<Bytes>(bytes_of("decided-v"))
                    : std::nullopt,
             nullptr);
    };
  }
  w.start();
  w.run_to_quiescence();
  for (auto& b : bcasts) {
    ASSERT_TRUE(b->committed());
    ASSERT_TRUE(b->value().has_value());
    EXPECT_EQ(*b->value(), bytes_of("decided-v"));
  }
}

/// Byzantine sender for NonEqBroadcast: sends different signed values to
/// the two halves by injecting raw round messages.
class EquivocatingNoneqSender final : public sim::Process {
 public:
  void on_start() override {
    for (ProcessId p = 0; p < world().size(); ++p) {
      if (p == id()) continue;
      const Bytes value = bytes_of(p % 2 == 0 ? "vA" : "vB");
      serde::Writer inner;
      inner.str("noneq-bcast");
      inner.uvarint(id());
      inner.bytes(value);
      const crypto::Signature sig = signer().sign(inner.buffer());
      // NoneqBatch (tag 1) with one element, wrapped in RoundMsg round 1.
      serde::Writer vals;
      vals.u8(1);  // wire tag of noneq-batch
      vals.uvarint(1);
      vals.bytes(value);
      serde::write(vals, sig);
      send(p, kRoundCh,
           wire::encode_tagged(rounds::RoundMsg{1, vals.take()}));
    }
  }
};

TEST(NonEqBroadcast, EquivocatorCausesBotOrSingleValue) {
  constexpr Time kDelta = 4;
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    sim::World w(seed, std::make_unique<sim::RandomDelayAdversary>(1, kDelta));
    auto& byz = w.spawn<EquivocatingNoneqSender>();
    w.mark_byzantine(byz.id());
    std::vector<Node*> nodes;
    std::vector<std::unique_ptr<rounds::DeltaSyncRoundDriver>> drivers;
    std::vector<std::unique_ptr<NonEqBroadcast>> bcasts;
    for (int i = 0; i < 4; ++i) {
      nodes.push_back(&w.spawn<Node>());
      drivers.push_back(std::make_unique<rounds::DeltaSyncRoundDriver>(
          *nodes.back(), kRoundCh, 2 * kDelta));
      bcasts.push_back(std::make_unique<NonEqBroadcast>(
          *nodes.back(), *drivers.back(), byz.id()));
      Node* node = nodes.back();
      NonEqBroadcast* b = bcasts.back().get();
      node->on_start_fn = [b] { b->run(std::nullopt, nullptr); };
    }
    w.start();
    w.run_to_quiescence();
    std::set<Bytes> committed_values;
    for (auto& b : bcasts) {
      ASSERT_TRUE(b->committed()) << "seed " << seed;
      if (b->value()) committed_values.insert(*b->value());
    }
    EXPECT_LE(committed_values.size(), 1u) << "seed " << seed;
  }
}

// ---- unidirectional rounds from RB (f=1 corner case) --------------------------

class RbUniRunner final : public sim::Process {
 public:
  std::unique_ptr<RbUniRoundDriver> driver;
  int target = 0;

 protected:
  void on_start() override { go(); }

 private:
  void go() {
    if (driver->completed_rounds() >= static_cast<RoundNum>(target)) return;
    driver->start_round(bytes_of("r" + std::to_string(
                                          driver->completed_rounds() + 1)),
                        [this](RoundNum, const std::vector<rounds::Received>&) {
                          go();
                        });
  }
};

TEST(RbUniRound, UnidirectionalityHoldsUnderPairPartition) {
  // Block the direct link between processes 0 and 1 in both directions:
  // the relays must smuggle at least one direction per round.
  for (std::size_t n : {3u, 4u, 5u}) {
    for (std::uint64_t seed = 0; seed < 4; ++seed) {
      auto adversary = std::make_unique<sim::PartitionAdversary>();
      adversary->block_bidirectional({0}, {1});
      sim::World w(seed, std::move(adversary));
      SrbHub hub(w, kSrbCh);
      std::vector<RbUniRunner*> runners;
      for (std::size_t i = 0; i < n; ++i) runners.push_back(&w.spawn<RbUniRunner>());
      // Drivers check n >= 3 at construction, so attach after spawning all.
      for (auto* r : runners) {
        r->driver = std::make_unique<RbUniRoundDriver>(*r, hub);
        r->target = 4;
      }
      w.start();
      w.run_to_quiescence();
      std::vector<rounds::ProcessHistory> hist;
      for (auto* r : runners) {
        EXPECT_EQ(r->driver->completed_rounds(), 4u)
            << "n=" << n << " seed=" << seed;
        hist.push_back(rounds::history_of(r->id(), *r->driver));
      }
      const auto violation = rounds::check_unidirectional(hist);
      EXPECT_FALSE(violation.has_value())
          << violation->describe() << " n=" << n << " seed=" << seed;
    }
  }
}

TEST(RbUniRound, ToleratesOneCrashedProcess) {
  sim::World w(13, std::make_unique<sim::RandomDelayAdversary>(1, 6));
  SrbHub hub(w, kSrbCh);
  std::vector<RbUniRunner*> runners;
  for (std::size_t i = 0; i < 4; ++i) runners.push_back(&w.spawn<RbUniRunner>());
  for (auto* r : runners) {
    r->driver = std::make_unique<RbUniRoundDriver>(*r, hub);
    r->target = 3;
  }
  w.crash(runners[3]->id());
  w.start();
  w.run_to_quiescence();
  std::vector<rounds::ProcessHistory> hist;
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(runners[i]->driver->completed_rounds(), 3u);
    hist.push_back(rounds::history_of(runners[i]->id(), *runners[i]->driver));
  }
  EXPECT_FALSE(rounds::check_unidirectional(hist).has_value());
}

TEST(RbUniRound, RequiresAtLeastThreeProcesses) {
  sim::World w(1, std::make_unique<sim::ImmediateAdversary>());
  SrbHub hub(w, kSrbCh);
  auto& a = w.spawn<Node>();
  (void)w.spawn<Node>();
  EXPECT_THROW(RbUniRoundDriver(a, hub), std::invalid_argument);
}

}  // namespace
}  // namespace unidir::broadcast
