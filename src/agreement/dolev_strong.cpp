#include "agreement/dolev_strong.h"

#include "common/check.h"
#include "common/serde.h"

namespace unidir::agreement {

namespace {

struct ChainWire {
  static constexpr wire::MsgDesc kDesc{1, "dolev-strong-chain"};

  Bytes value;
  std::vector<std::pair<ProcessId, crypto::Signature>> signatures;

  static auto fields(auto& m) { return std::tie(m.value, m.signatures); }
};

}  // namespace

DolevStrongBroadcast::DolevStrongBroadcast(sim::Process& host,
                                           Options options)
    : host_(host), options_(options), router_(host, options.channel) {
  UNIDIR_REQUIRE(options_.round_length >= 2);
  // The envelope's `from` is irrelevant: a chain speaks for itself via
  // its signatures (any process may relay any chain).
  router_.on<ChainWire>([this](ProcessId, ChainWire wire) {
    on_chain(Chain{std::move(wire.value), std::move(wire.signatures)});
  });
}

Bytes DolevStrongBroadcast::link_binding(const Bytes& value) const {
  serde::Writer w;
  w.str("dolev-strong");
  w.uvarint(options_.sender);
  w.uvarint(options_.channel);
  w.bytes(value);
  return w.take();
}

void DolevStrongBroadcast::run(std::optional<Bytes> input,
                               CommitFn on_commit) {
  UNIDIR_REQUIRE_MSG(host_.world().now() == 0,
                     "Dolev-Strong rounds are aligned from virtual time 0");
  UNIDIR_REQUIRE_MSG((host_.id() == options_.sender) == input.has_value(),
                     "exactly the designated sender provides an input");
  on_commit_ = std::move(on_commit);

  if (input) {
    // Round 1: the sender's one-signature chain. The sender extracts its
    // own value immediately (it trivially accepted it).
    Chain chain;
    chain.value = std::move(*input);
    chain.signatures.emplace_back(
        host_.id(), host_.signer().sign(link_binding(chain.value)));
    extracted_.insert(chain.value);
    router_.broadcast(ChainWire{chain.value, chain.signatures});
  }

  // End-of-round processing for rounds 1..f+1.
  for (std::size_t i = 1; i <= options_.f + 1; ++i)
    host_.set_timer(static_cast<Time>(i) * options_.round_length,
                    [this, i] { end_of_round(i); });
}

bool DolevStrongBroadcast::valid_chain(const Chain& chain,
                                       std::size_t min_len) const {
  const sim::World& w = host_.world();
  const Bytes binding = link_binding(chain.value);
  std::set<ProcessId> signers;
  for (const auto& [pid, sig] : chain.signatures) {
    if (pid >= w.size()) return false;
    if (sig.key != w.key_of(pid)) return false;
    if (!w.keys().verify(sig, binding)) return false;
    signers.insert(pid);
  }
  if (!signers.contains(options_.sender)) return false;
  if (signers.contains(host_.id())) return false;  // a loop adds nothing
  return signers.size() >= min_len;
}

void DolevStrongBroadcast::on_chain(Chain chain) {
  if (committed_) return;
  // The round this message arrived in (1-based; boundaries belong to the
  // next round, matching the lock-step windows).
  const Time now = host_.world().now();
  const std::size_t round =
      static_cast<std::size_t>(now / options_.round_length) + 1;
  if (round > options_.f + 1) return;  // too late to matter

  // The classic acceptance rule: a chain seen in round r needs >= r
  // distinct signatures, the sender's among them.
  if (!valid_chain(chain, round)) return;
  if (extracted_.contains(chain.value)) return;
  // Relaying more than two distinct values changes no one's outcome
  // (everyone already commits ⊥ at two) — the standard traffic bound.
  if (extracted_.size() >= 2) return;
  extracted_.insert(chain.value);
  pending_relays_.push_back(std::move(chain));
}

void DolevStrongBroadcast::end_of_round(std::size_t round) {
  if (committed_) return;
  if (round >= options_.f + 1) {
    finish();
    return;
  }
  // Start of round `round + 1`: relay every newly extracted value with our
  // signature appended.
  std::vector<Chain> relays = std::move(pending_relays_);
  pending_relays_.clear();
  for (Chain& chain : relays) relay(chain);
}

void DolevStrongBroadcast::relay(const Chain& chain) {
  Chain extended = chain;
  extended.signatures.emplace_back(
      host_.id(), host_.signer().sign(link_binding(extended.value)));
  router_.broadcast(ChainWire{extended.value, extended.signatures});
}

void DolevStrongBroadcast::finish() {
  committed_ = true;
  if (extracted_.size() == 1) {
    value_ = *extracted_.begin();
  } else {
    value_ = std::nullopt;  // ⊥: silence or proven equivocation
  }
  host_.output("ds-commit", value_ ? *value_ : bytes_of("<bot>"));
  if (on_commit_) on_commit_(value_);
}

// ---- strong agreement -------------------------------------------------------------

StrongAgreement::StrongAgreement(sim::Process& host, Options options)
    : host_(host), options_(options) {
  UNIDIR_REQUIRE_MSG(options_.n >= 2 * options_.f + 1,
                     "strong agreement needs n >= 2f+1 (under synchrony)");
  for (std::size_t s = 0; s < options_.n; ++s) {
    DolevStrongBroadcast::Options o;
    o.sender = static_cast<ProcessId>(s);
    o.f = options_.f;
    o.round_length = options_.round_length;
    o.channel = options_.channel_base + static_cast<sim::Channel>(s);
    instances_.push_back(
        std::make_unique<DolevStrongBroadcast>(host, o));
  }
}

void StrongAgreement::run(Bytes input, CommitFn on_commit) {
  on_commit_ = std::move(on_commit);
  for (std::size_t s = 0; s < options_.n; ++s) {
    const bool mine = static_cast<ProcessId>(s) == host_.id();
    instances_[s]->run(
        mine ? std::optional<Bytes>(input) : std::nullopt,
        [this](const std::optional<Bytes>& v) {
          if (v) ++tally_[*v];
          ++done_;
          maybe_finish();
        });
  }
}

void StrongAgreement::maybe_finish() {
  if (committed_ || done_ < options_.n) return;
  committed_ = true;
  // Plurality vote over the broadcast outcomes; deterministic tie-break
  // by byte order. With n >= 2f+1 and all correct inputs equal to v, v
  // collects >= n−f > f votes while no other value can exceed f.
  std::size_t best = 0;
  for (const auto& [v, count] : tally_) {
    if (count > best || (count == best && (value_.empty() || v < value_))) {
      best = count;
      value_ = v;
    }
  }
  host_.output("sa-commit", value_);
  if (on_commit_) on_commit_(value_);
}

}  // namespace unidir::agreement
