// Per-channel, per-message-type wire accounting.
//
// Every router shares one StatsHub owned by the World (exposed next to
// SimulatorStats / NetworkStats), so a test or experiment can ask "how many
// pbft-prepare messages were dropped as malformed?" without instrumenting
// the protocol. Counters split by direction (sent/received with byte
// totals) and by drop reason: `dropped_malformed` (body failed to decode or
// left trailing bytes), `dropped_unknown_tag` (no handler registered for
// the tag — the silent `default: break` of the old hand-rolled switches,
// now counted), and `dropped_filtered` (sender rejected by a router's peer
// filter).
//
// Header-only with common-layer dependencies only, so sim/world.h can embed
// a StatsHub without a link cycle (wire's router links against sim).
#pragma once

#include <cstdint>
#include <map>

#include "common/types.h"

namespace unidir::wire {

/// Counters for one message type on one channel.
struct TypeStats {
  const char* name = "?";
  std::uint64_t sent = 0;
  std::uint64_t received = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_received = 0;
  std::uint64_t dropped_malformed = 0;
};

/// Counters for one channel, with a per-tag breakdown.
struct ChannelStats {
  std::uint64_t sent = 0;
  std::uint64_t received = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_received = 0;
  /// Payload whose tag byte was unreadable, or whose body failed to decode
  /// or left trailing bytes (the per-type breakdown attributes the latter
  /// two to the tag's type).
  std::uint64_t dropped_malformed = 0;
  /// Tag byte decoded but no handler is registered for it.
  std::uint64_t dropped_unknown_tag = 0;
  /// Sender rejected by the router's peer filter.
  std::uint64_t dropped_filtered = 0;

  std::map<std::uint8_t, TypeStats> types;

  TypeStats& type(std::uint8_t tag, const char* name) {
    TypeStats& t = types[tag];
    t.name = name;
    return t;
  }
};

class StatsHub {
 public:
  ChannelStats& channel(Channel ch) { return channels_[ch]; }
  const std::map<Channel, ChannelStats>& channels() const { return channels_; }

  void note_sent(Channel ch, std::uint8_t tag, const char* name,
                 std::size_t bytes) {
    ChannelStats& cs = channel(ch);
    ++cs.sent;
    cs.bytes_sent += bytes;
    TypeStats& t = cs.type(tag, name);
    ++t.sent;
    t.bytes_sent += bytes;
  }

  // -- aggregates (fuzz sweeps assert on these) -----------------------------
  std::uint64_t total_received() const {
    return sum([](const ChannelStats& c) { return c.received; });
  }
  std::uint64_t total_dropped_malformed() const {
    return sum([](const ChannelStats& c) { return c.dropped_malformed; });
  }
  std::uint64_t total_dropped_unknown_tag() const {
    return sum([](const ChannelStats& c) { return c.dropped_unknown_tag; });
  }
  std::uint64_t total_dropped() const {
    return sum([](const ChannelStats& c) {
      return c.dropped_malformed + c.dropped_unknown_tag + c.dropped_filtered;
    });
  }

 private:
  template <typename F>
  std::uint64_t sum(F f) const {
    std::uint64_t n = 0;
    for (const auto& [ch, cs] : channels_) n += f(cs);
    return n;
  }

  std::map<Channel, ChannelStats> channels_;
};

}  // namespace unidir::wire
