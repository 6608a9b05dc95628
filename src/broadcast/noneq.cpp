#include "broadcast/noneq.h"

#include "common/serde.h"

namespace unidir::broadcast {

namespace {

struct NoneqVal {
  Bytes value;
  crypto::Signature sig;

  static Bytes signing_bytes(ProcessId sender, const Bytes& value) {
    serde::Writer w;
    w.str("noneq-bcast");
    w.uvarint(sender);
    w.bytes(value);
    return w.take();
  }

  static auto fields(auto& m) { return std::tie(m.value, m.sig); }
};

/// Batch of forwarded sender values — one round payload's worth.
struct NoneqBatch {
  static constexpr wire::MsgDesc kDesc{1, "noneq-batch"};

  std::vector<NoneqVal> vals;

  static auto fields(auto& m) { return std::tie(m.vals); }
};

}  // namespace

NonEqBroadcast::NonEqBroadcast(sim::Process& host,
                               rounds::RoundDriver& driver, ProcessId sender)
    : host_(host),
      driver_(driver),
      payload_router_([this]() { return &host_.world().wire_stats(); },
                      wire::kNoneqPayloadCh),
      sender_(sender) {
  payload_router_.on<NoneqBatch>([this](ProcessId, NoneqBatch batch) {
    const sim::World& w = host_.world();
    for (NoneqVal& v : batch.vals) {
      if (v.sig.key != w.key_of(sender_)) continue;
      if (!w.keys().verify(v.sig, NoneqVal::signing_bytes(sender_, v.value)))
        continue;
      seen_.emplace(std::move(v.value), v.sig);
    }
  });
}

Bytes NonEqBroadcast::payload() const {
  NoneqBatch batch;
  batch.vals.reserve(seen_.size());
  for (const auto& [value, sig] : seen_) batch.vals.push_back({value, sig});
  return wire::encode_tagged(batch);
}

void NonEqBroadcast::absorb(const std::vector<rounds::Received>& received) {
  for (const rounds::Received& r : received)
    payload_router_.dispatch(r.from, r.message);
}

void NonEqBroadcast::run(std::optional<Bytes> input, CommitFn on_commit) {
  UNIDIR_REQUIRE_MSG((host_.id() == sender_) == input.has_value(),
                     "exactly the designated sender provides an input");
  if (input) {
    NoneqVal v;
    v.value = std::move(*input);
    v.sig = host_.signer().sign(NoneqVal::signing_bytes(sender_, v.value));
    seen_.emplace(std::move(v.value), v.sig);
  }

  // Round 1: the sender's value travels; everyone else sends an empty
  // forward list. Round 2: forward everything seen; commit at the end.
  driver_.start_round(
      payload(),
      [this, on_commit = std::move(on_commit)](
          RoundNum, const std::vector<rounds::Received>& r1) {
        absorb(r1);
        driver_.start_round(
            payload(),
            [this, on_commit](RoundNum,
                              const std::vector<rounds::Received>& r2) {
              absorb(r2);
              committed_ = true;
              if (seen_.size() == 1) {
                value_ = seen_.begin()->first;
              } else {
                value_ = std::nullopt;  // ⊥: equivocation or silence
              }
              host_.output("noneq-commit",
                           value_ ? *value_ : bytes_of("<bot>"));
              if (on_commit) on_commit(value_);
            });
      });
}

}  // namespace unidir::broadcast
