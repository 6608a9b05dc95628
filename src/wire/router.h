// Typed message router: the library's single decode boundary.
//
// A Router binds to a (Process, Channel) pair and dispatches incoming
// payloads to typed handlers:
//
//     wire::Router router(host, kMyCh);
//     router.on<Prepare>([this](ProcessId from, Prepare p) { ... });
//     router.broadcast(Prepare{...});
//
// The tag comes from each message's declarative descriptor (M::kDesc);
// registering two messages with one tag on the same channel throws at
// registration time. Incoming bytes are hardened in exactly one place:
// a missing/unknown tag, a body that fails to decode, or trailing bytes
// after the body all drop the message *counted* (per channel and per
// message type, in the World's wire::StatsHub) and log-visible — never a
// silent `default: break`. Handlers therefore only ever see fully-decoded,
// exactly-consumed messages from admitted senders.
//
// Components whose bytes arrive through a carrier other than the network
// (SRB deliveries, round-driver payload slots) construct the detached
// flavour — Router(hub, pseudo_channel) — and feed dispatch() themselves,
// getting the same hardening and accounting. See wire/channels.h for the
// pseudo-channel ids.
#pragma once

#include <functional>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "common/check.h"
#include "common/log.h"
#include "common/payload.h"
#include "common/serde.h"
#include "common/types.h"
#include "sim/world.h"
#include "wire/message.h"
#include "wire/stats.h"

namespace unidir::wire {

// -- encode side ------------------------------------------------------------

/// Sends one typed message on a channel, counting it in the world's wire
/// stats. The `tagged()` byte-twiddling helpers this replaces lived in every
/// protocol's .cpp.
template <WireMessage M>
void send(sim::World& world, ProcessId from, ProcessId to, Channel channel,
          const M& m) {
  Bytes bytes = encode_tagged(m);
  world.wire_stats().note_sent(channel, M::kDesc.tag, M::kDesc.name,
                               bytes.size());
  world.send_message(from, to, channel, std::move(bytes));
}

/// Broadcasts one typed message: encoded once, every per-link send shares
/// the same COW buffer. A non-null `admit` restricts the recipients.
template <WireMessage M>
void broadcast(sim::World& world, ProcessId from, Channel channel, const M& m,
               bool include_self = false,
               const std::function<bool(ProcessId)>& admit = nullptr) {
  const Payload shared = Payload(encode_tagged(m));
  for (ProcessId p = 0; p < world.size(); ++p) {
    if (p == from && !include_self) continue;
    if (admit && !admit(p)) continue;
    world.wire_stats().note_sent(channel, M::kDesc.tag, M::kDesc.name,
                                 shared.size());
    world.send_message(from, p, channel, shared);
  }
}

/// Sends one typed message to an explicit recipient list (e.g. a client
/// addressing its replica group), sharing one COW buffer across links.
template <WireMessage M>
void multicast(sim::World& world, ProcessId from,
               const std::vector<ProcessId>& to, Channel channel, const M& m) {
  const Payload shared = Payload(encode_tagged(m));
  for (ProcessId p : to) {
    world.wire_stats().note_sent(channel, M::kDesc.tag, M::kDesc.name,
                                 shared.size());
    world.send_message(from, p, channel, shared);
  }
}

template <WireMessage M>
void send(sim::Process& from, ProcessId to, Channel channel, const M& m) {
  send(from.world(), from.id(), to, channel, m);
}

template <WireMessage M>
void broadcast(sim::Process& from, Channel channel, const M& m,
               bool include_self = false) {
  broadcast(from.world(), from.id(), channel, m, include_self);
}

// -- decode side ------------------------------------------------------------

class Router {
 public:
  /// Where the counters live; consulted lazily at dispatch/send time (a
  /// Process's world pointer is only wired after construction). May return
  /// nullptr: dispatch still hardens, it just can't account.
  using HubFn = std::function<StatsHub*()>;

  /// Binds to (host, channel): claims the channel on the host process and
  /// counts into the host world's StatsHub.
  Router(sim::Process& host, Channel channel)
      : host_(&host), channel_(channel), hub_([&host]() {
          return &host.world().wire_stats();
        }) {
    host.register_channel(
        channel, [this](ProcessId from, const Bytes& payload) {
          dispatch(from, payload);
        });
  }

  /// Detached decode boundary for non-network carriers; the caller invokes
  /// dispatch() itself.
  Router(HubFn hub, Channel channel)
      : channel_(channel), hub_(std::move(hub)) {}

  // Registered handlers capture `this`.
  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  /// Registers the handler for M on this channel. Throws (UNIDIR_REQUIRE)
  /// if M::kDesc.tag is already taken.
  template <WireMessage M>
  Router& on(std::function<void(ProcessId, M)> handler) {
    UNIDIR_REQUIRE(handler != nullptr);
    auto [it, inserted] = entries_.try_emplace(M::kDesc.tag);
    UNIDIR_REQUIRE_MSG(inserted,
                       "wire: tag already registered on this channel");
    it->second.name = M::kDesc.name;
    it->second.decode_and_run = [this, handler = std::move(handler)](
                                    ProcessId from, serde::Reader& r,
                                    std::size_t bytes) {
      std::optional<M> msg;
      try {
        msg.emplace(serde::read<M>(r));
        r.expect_done();  // exact-consume: trailing bytes are malformed
      } catch (const serde::DecodeError& e) {
        if (StatsHub* h = hub()) {
          ChannelStats& cs = h->channel(channel_);
          ++cs.dropped_malformed;
          ++cs.type(M::kDesc.tag, M::kDesc.name).dropped_malformed;
        }
        UNIDIR_DEBUG("wire: dropping malformed " << M::kDesc.name << " from "
                                                 << from << " on channel "
                                                 << channel_ << ": "
                                                 << e.what());
        return;
      }
      if (StatsHub* h = hub()) {
        TypeStats& t = h->channel(channel_).type(M::kDesc.tag, M::kDesc.name);
        ++t.received;
        t.bytes_received += bytes;
      }
      handler(from, std::move(*msg));
    };
    return *this;
  }

  /// Admission control by sender id (e.g. "replicas only"); rejected
  /// messages are counted as dropped_filtered before any decoding. The
  /// filter also scopes broadcast(): peers are symmetric, so an id whose
  /// messages this router would refuse is not sent any either.
  void set_peer_filter(std::function<bool(ProcessId)> filter) {
    filter_ = std::move(filter);
  }

  /// Runs the full decode boundary on one payload.
  void dispatch(ProcessId from, const Bytes& payload);

  template <WireMessage M>
  void send(ProcessId to, const M& m) {
    wire::send(host(), to, channel_, m);
  }

  template <WireMessage M>
  void broadcast(const M& m, bool include_self = false) {
    wire::broadcast(host().world(), host().id(), channel_, m, include_self,
                    filter_);
  }

  Channel channel() const { return channel_; }

 private:
  struct Entry {
    const char* name = "?";
    std::function<void(ProcessId, serde::Reader&, std::size_t)> decode_and_run;
  };

  StatsHub* hub() const { return hub_ ? hub_() : nullptr; }
  sim::Process& host() const {
    UNIDIR_CHECK_MSG(host_ != nullptr, "router not bound to a process");
    return *host_;
  }

  sim::Process* host_ = nullptr;
  Channel channel_ = 0;
  HubFn hub_;
  std::function<bool(ProcessId)> filter_;
  std::map<std::uint8_t, Entry> entries_;
};

}  // namespace unidir::wire
