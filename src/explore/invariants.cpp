#include "explore/invariants.h"

#include <map>
#include <set>
#include <sstream>

namespace unidir::explore {

InvariantRegistry& InvariantRegistry::add(Invariant inv) {
  UNIDIR_REQUIRE(!inv.name.empty() && inv.check != nullptr);
  invariants_.push_back(std::move(inv));
  return *this;
}

std::optional<InvariantViolation> InvariantRegistry::check(
    const ExplorationContext& ctx) const {
  for (const Invariant& inv : invariants_) {
    if (std::optional<std::string> msg = inv.check(ctx))
      return InvariantViolation{inv.name, std::move(*msg)};
  }
  return std::nullopt;
}

InvariantRegistry InvariantRegistry::standard_smr() {
  InvariantRegistry r;
  r.add(smr_prefix_consistency());
  r.add(smr_digest_equality());
  r.add(client_completion());
  r.add(network_byte_conservation());
  r.add(batch_atomicity());
  return r;
}

Invariant smr_prefix_consistency() {
  return {"smr-prefix-consistency",
          [](const ExplorationContext& ctx) -> std::optional<std::string> {
            std::vector<std::pair<ProcessId, const agreement::ExecutionLog*>>
                logs;
            for (const SmrReplicaView& r : ctx.smr)
              if (r.log) logs.emplace_back(r.id, r.log);
            if (logs.size() < 2) return std::nullopt;
            return agreement::check_execution_consistency(logs);
          }};
}

Invariant smr_digest_equality() {
  return {"smr-digest-equality",
          [](const ExplorationContext& ctx) -> std::optional<std::string> {
            for (std::size_t i = 0; i < ctx.smr.size(); ++i)
              for (std::size_t j = i + 1; j < ctx.smr.size(); ++j) {
                const SmrReplicaView& a = ctx.smr[i];
                const SmrReplicaView& b = ctx.smr[j];
                if (a.executed == b.executed && a.digest != b.digest) {
                  std::ostringstream os;
                  os << "replicas " << a.id << " and " << b.id
                     << " both executed " << a.executed
                     << " commands but hold different state digests";
                  return os.str();
                }
              }
            return std::nullopt;
          }};
}

Invariant client_completion() {
  return {"client-completion",
          [](const ExplorationContext& ctx) -> std::optional<std::string> {
            if (ctx.completed == ctx.expected) return std::nullopt;
            std::ostringstream os;
            os << "only " << ctx.completed << " of " << ctx.expected
               << " client requests completed";
            return os.str();
          }};
}

Invariant network_byte_conservation() {
  return {"network-byte-conservation",
          [](const ExplorationContext& ctx) -> std::optional<std::string> {
            if (!ctx.world) return std::nullopt;
            // A run cut off by the event cap leaves deliveries queued inside
            // the simulator — neither delivered, dropped nor held — so the
            // ledger only balances for runs that reached quiescence.
            const sim::SimulatorStats& q = ctx.world->simulator().stats();
            if (q.scheduled != q.executed) return std::nullopt;
            const sim::NetworkStats& s = ctx.world->network().stats();
            // Every message and every byte entering the network (sends,
            // duplicate copies, mutation growth) must be accounted for by
            // an exit path (delivery, an attributed drop, still held).
            // Mutation shrinkage leaves the inflow side as slack, hence
            // inequalities rather than equalities.
            const std::uint64_t msgs_in =
                s.messages_sent + s.messages_duplicated;
            const std::uint64_t msgs_out = s.messages_delivered +
                                           s.messages_dropped +
                                           s.messages_held;
            if (msgs_in != msgs_out) {
              std::ostringstream os;
              os << "message ledger broken: sent+duplicated=" << msgs_in
                 << " but delivered+dropped+held=" << msgs_out;
              return os.str();
            }
            const std::uint64_t bytes_in =
                s.bytes_sent + s.bytes_duplicated + s.bytes_mutation_added;
            const std::uint64_t bytes_out =
                s.bytes_delivered + s.bytes_dropped + s.bytes_held;
            if (bytes_in < bytes_out) {
              std::ostringstream os;
              os << "byte ledger broken: sent+duplicated+mutation_added="
                 << bytes_in << " < delivered+dropped+held=" << bytes_out;
              return os.str();
            }
            if (bytes_in - s.bytes_mutation_removed > bytes_out) {
              std::ostringstream os;
              os << "byte ledger broken: "
                 << "sent+duplicated+mutation_added-mutation_removed="
                 << bytes_in - s.bytes_mutation_removed
                 << " > delivered+dropped+held=" << bytes_out;
              return os.str();
            }
            return std::nullopt;
          }};
}

Invariant unidirectional_rounds() {
  return {"unidirectional-rounds",
          [](const ExplorationContext& ctx) -> std::optional<std::string> {
            if (ctx.histories.size() < 2) return std::nullopt;
            if (std::optional<rounds::DirectionalityViolation> v =
                    rounds::check_unidirectional(ctx.histories))
              return v->describe();
            return std::nullopt;
          }};
}

Invariant tagged_output_total_order(std::string tag) {
  return {"total-order[" + tag + "]",
          [tag](const ExplorationContext& ctx) -> std::optional<std::string> {
            std::vector<std::pair<ProcessId, std::vector<sim::ObservedEvent>>>
                seqs;
            for (const auto& [id, t] : ctx.transcripts)
              if (t) seqs.emplace_back(id, t->outputs(tag));
            for (std::size_t i = 0; i < seqs.size(); ++i)
              for (std::size_t j = i + 1; j < seqs.size(); ++j) {
                const auto& [pa, a] = seqs[i];
                const auto& [pb, b] = seqs[j];
                const std::size_t common = std::min(a.size(), b.size());
                for (std::size_t k = 0; k < common; ++k)
                  if (a[k].payload != b[k].payload) {
                    std::ostringstream os;
                    os << "processes " << pa << " and " << pb
                       << " diverge at '" << tag << "' output index " << k;
                    return os.str();
                  }
              }
            return std::nullopt;
          }};
}

Invariant batch_atomicity() {
  return {
      "batch-atomicity",
      [](const ExplorationContext& ctx) -> std::optional<std::string> {
        using Key = std::pair<ProcessId, std::uint64_t>;
        // Canonical member list per (view, counter), first reporter wins;
        // (view, counter) identifies a slot globally in both protocols
        // (PBFT sequence numbers restart per view, but the view number
        // disambiguates).
        std::map<std::pair<std::uint64_t, std::uint64_t>,
                 std::pair<ProcessId, std::vector<Key>>>
            canonical;
        for (const auto& [id, tr] : ctx.transcripts) {
          if (!tr) continue;
          // A restarted replica rewinds to its last durable checkpoint and
          // legitimately re-executes (and re-groups) what the crash wiped,
          // all in the same transcript. Exactly-once and order checks
          // don't apply to it — but its batch markers still feed the
          // cross-replica membership check below.
          const bool restarted =
              ctx.world != nullptr && ctx.world->incarnation(id) > 0;
          std::set<Key> executed;
          // Per-client reply-cache floors, replayed from the acks of the
          // executed commands (and installed by state transfer): the
          // replica skips a command below its client's floor.
          std::map<ProcessId, std::uint64_t> floors;
          auto settled = [&](const Key& k) {
            auto f = floors.find(k.first);
            return executed.count(k) > 0 ||
                   (f != floors.end() && k.second < f->second);
          };
          std::vector<Key> open;  // the open batch's members, in order
          std::size_t open_idx = 0;
          std::uint64_t open_view = 0, open_ctr = 0;
          bool in_batch = false;
          // A batch member missing from the exec stream is legal only if
          // some earlier batch already executed it (dedup of a client
          // retry) or its client acknowledged it; anything else is a split
          // batch.
          auto close_open = [&]() -> std::optional<std::string> {
            if (restarted) return std::nullopt;
            for (; open_idx < open.size(); ++open_idx) {
              if (settled(open[open_idx])) continue;
              std::ostringstream os;
              os << "replica " << id << ": batch (view=" << open_view
                 << ", counter=" << open_ctr << ") member client="
                 << open[open_idx].first << " rid=" << open[open_idx].second
                 << " was never executed (split batch)";
              return os.str();
            }
            return std::nullopt;
          };
          for (const sim::ObservedEvent& ev : tr->events()) {
            if (ev.kind != sim::ObservedEvent::Kind::LocalOutput) continue;
            if (ev.tag == "smr-batch") {
              if (auto bad = close_open()) return bad;
              serde::Reader r(ev.payload.span());
              open_view = r.uvarint();
              open_ctr = r.uvarint();
              const std::uint64_t count = r.uvarint();
              open.clear();
              for (std::uint64_t k = 0; k < count; ++k) {
                const auto client = serde::read<ProcessId>(r);
                const std::uint64_t rid = r.uvarint();
                open.emplace_back(client, rid);
              }
              r.expect_done();
              open_idx = 0;
              in_batch = true;
              auto [it, fresh] = canonical.try_emplace(
                  std::make_pair(open_view, open_ctr), id, open);
              if (!fresh && it->second.second != open) {
                std::ostringstream os;
                os << "replicas " << it->second.first << " and " << id
                   << " disagree on batch (view=" << open_view
                   << ", counter=" << open_ctr << ") membership";
                return os.str();
              }
            } else if (ev.tag == "smr-install") {
              // State transfer installed these commands' effects without
              // executing them, and these floors; treat both as settled
              // from here on so later batches may legally skip them.
              const auto iw = serde::decode<agreement::InstallWitness>(
                  ev.payload.span());
              executed.insert(iw.keys.begin(), iw.keys.end());
              for (const auto& [client, floor] : iw.floors)
                floors[client] = std::max(floors[client], floor);
            } else if (ev.tag == "smr-exec") {
              if (restarted) continue;
              const auto cmd =
                  serde::decode<agreement::Command>(ev.payload.span());
              const Key k = cmd.key();
              if (executed.count(k)) {
                std::ostringstream os;
                os << "replica " << id << " executed client=" << k.first
                   << " rid=" << k.second << " twice";
                return os.str();
              }
              if (in_batch) {
                // Members already satisfied by an earlier batch are
                // skipped at execution; skip them here too.
                while (open_idx < open.size() && settled(open[open_idx]))
                  ++open_idx;
                if (open_idx >= open.size() || open[open_idx] != k) {
                  std::ostringstream os;
                  os << "replica " << id << " executed client=" << k.first
                     << " rid=" << k.second
                     << " outside its batch (view=" << open_view
                     << ", counter=" << open_ctr << ") order";
                  return os.str();
                }
                ++open_idx;
              }
              executed.insert(k);
              std::uint64_t& floor = floors[k.first];
              floor = std::max(floor, std::min(cmd.acked, cmd.request_id));
            }
          }
          if (auto bad = close_open()) return bad;
        }
        return std::nullopt;
      }};
}

Invariant bounded_executions(std::uint64_t limit) {
  return {"bounded-executions",
          [limit](const ExplorationContext& ctx) -> std::optional<std::string> {
            for (const SmrReplicaView& r : ctx.smr)
              if (r.executed > limit) {
                std::ostringstream os;
                os << "replica " << r.id << " executed " << r.executed
                   << " commands (injected bound: " << limit << ")";
                return os.str();
              }
            return std::nullopt;
          }};
}

}  // namespace unidir::explore
