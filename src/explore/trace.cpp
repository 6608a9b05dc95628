#include "explore/trace.h"

#include <algorithm>
#include <sstream>

namespace unidir::explore {

std::string decision_kind_name(DecisionKind kind) {
  switch (kind) {
    case DecisionKind::Send:
      return "send";
    case DecisionKind::Copies:
      return "copies";
    case DecisionKind::Release:
      return "release";
  }
  return "?";
}

MessageKey MessageKey::of(const sim::Envelope& env) {
  MessageKey k;
  k.from = env.from;
  k.to = env.to;
  k.channel = env.channel;
  // Cached per buffer: duplicates, held re-offers and replay consults of
  // the same payload hash it once.
  k.payload_hash = env.payload.fnv();
  return k;
}

std::string ScheduleDecision::describe() const {
  std::ostringstream os;
  os << decision_kind_name(kind) << " " << key.from << "->" << key.to
     << " ch=" << key.channel;
  if (kind == DecisionKind::Copies)
    os << " copies=" << copies;
  else if (held)
    os << " HELD";
  else
    os << " delay=" << delay;
  return os.str();
}

std::string ScheduleTrace::summary() const {
  std::size_t sends = 0, copies = 0, releases = 0, holds = 0;
  Time max_delay = 0;
  for (const ScheduleDecision& d : decisions) {
    switch (d.kind) {
      case DecisionKind::Send:
        ++sends;
        break;
      case DecisionKind::Copies:
        ++copies;
        break;
      case DecisionKind::Release:
        ++releases;
        break;
    }
    if (d.kind != DecisionKind::Copies) {
      if (d.held)
        ++holds;
      else
        max_delay = std::max(max_delay, d.delay);
    }
  }
  std::ostringstream os;
  os << decisions.size() << " decisions (" << sends << " sends, " << copies
     << " copy choices, " << releases << " releases, " << holds
     << " holds, max delay " << max_delay << ")";
  return os.str();
}

std::string ScheduleTrace::to_hex() const {
  return unidir::to_hex(serde::encode(*this));
}

ScheduleTrace ScheduleTrace::from_hex(std::string_view hex) {
  return serde::decode<ScheduleTrace>(unidir::from_hex(hex));
}

}  // namespace unidir::explore
