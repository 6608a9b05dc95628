// Unit tests for the typed wire layer: router registration, the hardened
// decode boundary (unknown tag / malformed body / trailing bytes / empty
// payload / peer filter — each dropped *counted*), and the encode-side
// stats of wire::send / broadcast / multicast.
#include <gtest/gtest.h>

#include <stdexcept>

#include "sim/adversaries.h"
#include "sim/world.h"
#include "wire/channels.h"
#include "wire/router.h"

namespace unidir::wire {
namespace {

constexpr Channel kTestCh = 7;  // ad-hoc id < 50: private toy world

struct PingMsg {
  static constexpr MsgDesc kDesc{1, "wt-ping"};

  std::uint64_t value = 0;

  static auto fields(auto& m) { return std::tie(m.value); }
};

struct PongMsg {
  static constexpr MsgDesc kDesc{2, "wt-pong"};

  Bytes note;

  static auto fields(auto& m) { return std::tie(m.note); }
};

/// Same tag as PingMsg — registering both on one router must throw.
struct ClashMsg {
  static constexpr MsgDesc kDesc{1, "wt-clash"};

  static auto fields(auto&) { return std::tie(); }
};

/// Routes kTestCh; exposes raw sends so tests can inject Byzantine bytes.
class Peer final : public sim::Process {
 public:
  std::vector<std::uint64_t> pings;
  std::vector<Bytes> pongs;

  Peer() : router_(*this, kTestCh) {
    router_.on<PingMsg>(
        [this](ProcessId, PingMsg m) { pings.push_back(m.value); });
    router_.on<PongMsg>(
        [this](ProcessId, PongMsg m) { pongs.push_back(std::move(m.note)); });
  }

  Router& router() { return router_; }

  void send_ping(ProcessId to, std::uint64_t value) {
    router_.send(to, PingMsg{value});
  }
  void send_raw(ProcessId to, Bytes bytes) {
    send(to, kTestCh, std::move(bytes));
  }

 private:
  Router router_;
};

struct WireRouterTest : ::testing::Test {
  sim::World world{1, std::make_unique<sim::ImmediateAdversary>()};
  Peer& a = world.spawn<Peer>();
  Peer& b = world.spawn<Peer>();
  Peer& c = world.spawn<Peer>();

  void SetUp() override { world.start(); }

  const ChannelStats& stats() { return world.wire_stats().channel(kTestCh); }
};

TEST_F(WireRouterTest, TypedRoundTripCountsBothDirections) {
  a.send_ping(b.id(), 42);
  world.run_to_quiescence();

  ASSERT_EQ(b.pings, (std::vector<std::uint64_t>{42}));
  const ChannelStats& cs = stats();
  EXPECT_EQ(cs.sent, 1u);
  EXPECT_EQ(cs.received, 1u);
  EXPECT_GT(cs.bytes_sent, 0u);
  EXPECT_EQ(cs.bytes_sent, cs.bytes_received);
  EXPECT_EQ(cs.dropped_malformed, 0u);

  const auto it = cs.types.find(PingMsg::kDesc.tag);
  ASSERT_NE(it, cs.types.end());
  EXPECT_STREQ(it->second.name, "wt-ping");
  EXPECT_EQ(it->second.sent, 1u);
  EXPECT_EQ(it->second.received, 1u);
}

TEST_F(WireRouterTest, DuplicateTagRegistrationThrows) {
  EXPECT_THROW(
      a.router().on<ClashMsg>([](ProcessId, ClashMsg) {}),
      std::invalid_argument);
}

TEST_F(WireRouterTest, UnknownTagIsCountedNotSilent) {
  serde::Writer w;
  w.u8(99);  // no handler registered for this tag
  a.send_raw(b.id(), w.take());
  world.run_to_quiescence();

  EXPECT_EQ(stats().dropped_unknown_tag, 1u);
  EXPECT_TRUE(b.pings.empty());
  EXPECT_TRUE(b.pongs.empty());
}

TEST_F(WireRouterTest, EmptyPayloadIsMalformed) {
  a.send_raw(b.id(), Bytes{});
  world.run_to_quiescence();
  EXPECT_EQ(stats().dropped_malformed, 1u);
}

TEST_F(WireRouterTest, TruncatedBodyIsMalformedPerType) {
  Bytes bytes = encode_tagged(PongMsg{bytes_of("hello")});
  bytes.resize(bytes.size() - 3);  // cut into the body
  a.send_raw(b.id(), std::move(bytes));
  world.run_to_quiescence();

  const ChannelStats& cs = stats();
  EXPECT_EQ(cs.dropped_malformed, 1u);
  const auto it = cs.types.find(PongMsg::kDesc.tag);
  ASSERT_NE(it, cs.types.end());
  EXPECT_EQ(it->second.dropped_malformed, 1u);
  EXPECT_EQ(it->second.received, 0u);
  EXPECT_TRUE(b.pongs.empty());
}

TEST_F(WireRouterTest, TrailingBytesViolateExactConsume) {
  Bytes bytes = encode_tagged(PingMsg{7});
  bytes.push_back(0xAB);  // spliced suffix
  a.send_raw(b.id(), std::move(bytes));
  world.run_to_quiescence();

  EXPECT_EQ(stats().dropped_malformed, 1u);
  EXPECT_TRUE(b.pings.empty());
}

TEST_F(WireRouterTest, PeerFilterDropsAreCounted) {
  const ProcessId only = a.id();
  b.router().set_peer_filter([only](ProcessId p) { return p == only; });

  c.send_ping(b.id(), 1);
  a.send_ping(b.id(), 2);
  world.run_to_quiescence();

  EXPECT_EQ(b.pings, (std::vector<std::uint64_t>{2}));
  EXPECT_EQ(stats().dropped_filtered, 1u);
}

TEST_F(WireRouterTest, BroadcastAndMulticastShareStats) {
  wire::broadcast(a, kTestCh, PingMsg{5});                       // b and c
  wire::multicast(world, a.id(), {b.id(), c.id()}, kTestCh,
                  PongMsg{bytes_of("hi")});
  world.run_to_quiescence();

  const ChannelStats& cs = stats();
  EXPECT_EQ(cs.sent, 4u);
  EXPECT_EQ(cs.received, 4u);
  EXPECT_EQ(b.pings, (std::vector<std::uint64_t>{5}));
  EXPECT_EQ(c.pings, (std::vector<std::uint64_t>{5}));
  EXPECT_EQ(b.pongs.size(), 1u);
  EXPECT_EQ(c.pongs.size(), 1u);
}

TEST(WireDetachedRouter, HardensWithoutHub) {
  // Detached flavour with a null hub: the decode boundary still drops
  // malformed input, it just cannot account for it.
  Router router([]() -> StatsHub* { return nullptr; }, kTrincAttestCh);
  std::vector<std::uint64_t> got;
  router.on<PingMsg>([&](ProcessId, PingMsg m) { got.push_back(m.value); });

  router.dispatch(0, encode_tagged(PingMsg{11}));
  router.dispatch(0, Bytes{});  // malformed: no crash, no delivery
  serde::Writer w;
  w.u8(42);
  router.dispatch(0, w.take());  // unknown tag: dropped

  EXPECT_EQ(got, (std::vector<std::uint64_t>{11}));
}

TEST(WireDetachedRouter, CountsIntoSuppliedHub) {
  StatsHub hub;
  Router router([&hub]() { return &hub; }, kNoneqPayloadCh);
  router.on<PingMsg>([](ProcessId, PingMsg) {});

  router.dispatch(0, encode_tagged(PingMsg{3}));
  Bytes cut = encode_tagged(PingMsg{1'000'000});
  cut.resize(1);  // tag survives, body gone
  router.dispatch(0, std::move(cut));

  // Channel-level `received` counts arrivals at the boundary (including
  // ones later dropped); the per-type counter only counts full decodes.
  const ChannelStats& cs = hub.channel(kNoneqPayloadCh);
  EXPECT_EQ(cs.received, 2u);
  EXPECT_EQ(cs.dropped_malformed, 1u);
  const auto it = cs.types.find(PingMsg::kDesc.tag);
  ASSERT_NE(it, cs.types.end());
  EXPECT_EQ(it->second.received, 1u);
  EXPECT_EQ(it->second.dropped_malformed, 1u);
}

}  // namespace
}  // namespace unidir::wire
