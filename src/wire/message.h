// Typed wire messages.
//
// A wire message is a plain struct that (a) declares its serde field list
// (common/serde.h), which is its whole body format, and (b) names itself
// with a static descriptor `kDesc` — the one-byte tag it travels under on
// its channel and a human-readable name for stats and logs. The tag byte
// is written by encode_tagged() and consumed by the router before
// serde::read decodes the body, so message structs never see their own
// tag.
//
// Tags are scoped per channel: two messages may share a tag value as long
// as they never share a channel (the router rejects duplicate registration
// on one channel; wire/channels.h keeps the channels themselves distinct).
#pragma once

#include <concepts>
#include <cstdint>

#include "common/bytes.h"
#include "common/serde.h"

namespace unidir::wire {

/// Declarative descriptor a message struct exposes as `static constexpr
/// MsgDesc kDesc`.
struct MsgDesc {
  std::uint8_t tag = 0;
  const char* name = "?";
};

template <typename M>
concept WireMessage = serde::Fielded<M> && requires {
  { M::kDesc.tag } -> std::convertible_to<std::uint8_t>;
  { M::kDesc.name } -> std::convertible_to<const char*>;
};

/// Encodes `m` prefixed with its channel tag — the bytes a router expects.
template <WireMessage M>
Bytes encode_tagged(const M& m) {
  serde::Writer w;
  w.u8(M::kDesc.tag);
  serde::write(w, m);
  return w.take();
}

}  // namespace unidir::wire
