// Serializable schedule traces.
//
// A ScheduleTrace captures every scheduling decision an adversary made in
// one execution: the delay (or hold) chosen for each message copy, the
// number of copies injected, and the fate of each re-offered held message.
// Together with the ScenarioSpec that produced the execution (scenario.h),
// a trace makes a failing run a standalone, committable artifact: replay it
// with ReplayAdversary (record_replay.h) and the execution — and therefore
// the invariant violation — reproduces deterministically.
//
// Decisions are keyed by message *content* (from, to, channel, payload
// hash), not by envelope id. Envelope ids are assigned in global send order
// and shift when the shrinker removes client requests or crash events; the
// content key lets a shrunken scenario keep replaying the decisions for
// the messages that survive.
#pragma once

#include <string>
#include <vector>

#include "common/serde.h"
#include "sim/network.h"

namespace unidir::explore {

/// FNV-1a 64-bit hash, used to fingerprint message payloads in trace keys.
/// (Now lives in common/bytes.h; re-exported here for existing callers.)
using unidir::fnv1a64;

/// Which adversary entry point produced a decision.
enum class DecisionKind : std::uint8_t { Send = 0, Copies = 1, Release = 2 };

std::string decision_kind_name(DecisionKind kind);

/// Content identity of a message. Two sends of identical bytes on the same
/// link share a key; their decisions are replayed in recording order.
struct MessageKey {
  ProcessId from = kNoProcess;
  ProcessId to = kNoProcess;
  sim::Channel channel = 0;
  std::uint64_t payload_hash = 0;

  static MessageKey of(const sim::Envelope& env);

  auto operator<=>(const MessageKey&) const = default;

  static auto fields(auto& m) {
    return std::tie(m.from, m.to, m.channel, m.payload_hash);
  }
};

/// One adversary decision. `held`/`delay` apply to Send and Release
/// decisions; `copies` applies to Copies decisions.
struct ScheduleDecision {
  DecisionKind kind = DecisionKind::Send;
  MessageKey key;
  bool held = false;
  Time delay = 0;
  std::uint64_t copies = 1;

  bool operator==(const ScheduleDecision&) const = default;

  std::string describe() const;

  static auto fields(auto& m) {
    return std::tie(m.kind, m.key, m.held, m.delay, m.copies);
  }
  void decoded() const {
    if (kind > DecisionKind::Release)
      throw serde::DecodeError("bad DecisionKind");
  }
};

struct ScheduleTrace {
  std::vector<ScheduleDecision> decisions;

  bool operator==(const ScheduleTrace&) const = default;

  /// One-line shape summary for reports: decision counts per kind, holds,
  /// and the maximum delay present.
  std::string summary() const;

  static auto fields(auto& m) { return std::tie(m.decisions); }

  /// Hex round-trip, the form replay snippets embed.
  std::string to_hex() const;
  static ScheduleTrace from_hex(std::string_view hex);
};

}  // namespace unidir::explore
