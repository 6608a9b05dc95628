#include "explore/shrink.h"

#include <algorithm>

namespace unidir::explore {

namespace {

struct Shrinker {
  const InvariantRegistry& registry;
  const std::string& invariant;
  std::size_t max_runs;
  std::size_t runs = 0;

  /// True iff the candidate still fails with the same invariant. Returns
  /// false without running once the budget is spent, which freezes the
  /// current best result.
  bool fails(const ScenarioSpec& spec, const ScheduleTrace& trace) {
    if (runs >= max_runs) return false;
    ++runs;
    const RunOutcome out =
        run_scenario(spec, registry, RunMode::Replay, &trace);
    return out.violation && out.violation->invariant == invariant;
  }
};

/// ddmin-style chunk removal over `items`: tries dropping windows of
/// halving size; `accepts` judges each candidate list. Returns accepted
/// removals.
template <typename T, typename Accepts>
std::size_t minimize_list(std::vector<T>& items, Accepts accepts) {
  std::size_t reductions = 0;
  if (items.empty()) return reductions;
  for (std::size_t chunk = items.size(); chunk >= 1; chunk /= 2) {
    for (std::size_t start = 0; start + chunk <= items.size();) {
      std::vector<T> candidate(items.begin(),
                               items.begin() + static_cast<std::ptrdiff_t>(start));
      candidate.insert(candidate.end(),
                       items.begin() + static_cast<std::ptrdiff_t>(start + chunk),
                       items.end());
      if (accepts(candidate)) {
        items = std::move(candidate);
        ++reductions;
      } else {
        start += chunk;
      }
    }
    if (chunk == 1) break;
  }
  return reductions;
}

bool collapsible(const ScheduleDecision& d) {
  if (d.kind == DecisionKind::Copies) return d.copies > 1;
  return !d.held && d.delay > 1;
}

void collapse(ScheduleDecision& d) {
  if (d.kind == DecisionKind::Copies)
    d.copies = 1;
  else
    d.delay = 1;
}

}  // namespace

ShrinkOutcome shrink_failure(const ScenarioSpec& spec,
                             const ScheduleTrace& trace,
                             const InvariantRegistry& registry,
                             const std::string& invariant,
                             const ShrinkLimits& limits) {
  ShrinkOutcome out{spec, trace};
  Shrinker sh{registry, invariant, limits.max_runs};

  // 1. Un-crash replicas, one event at a time (few enough that chunking
  //    buys nothing).
  for (std::size_t i = out.spec.crashes.size(); i-- > 0;) {
    ScenarioSpec candidate = out.spec;
    candidate.crashes.erase(candidate.crashes.begin() +
                            static_cast<std::ptrdiff_t>(i));
    if (sh.fails(candidate, out.trace)) {
      out.spec = std::move(candidate);
      ++out.reductions;
    }
  }

  // 1b. Drop crash+restart pairs, one event at a time. Each RecoveryEvent
  //     is removed whole so every surviving restart stays matched to its
  //     crash.
  for (std::size_t i = out.spec.recoveries.size(); i-- > 0;) {
    ScenarioSpec candidate = out.spec;
    candidate.recoveries.erase(candidate.recoveries.begin() +
                               static_cast<std::ptrdiff_t>(i));
    if (sh.fails(candidate, out.trace)) {
      out.spec = std::move(candidate);
      ++out.reductions;
    }
  }

  // 2. Coarse dimensions before fine-grained request trimming: reset the
  //    batching knobs toward their defaults (one command per slot) — all
  //    at once first, then per knob with halving steps — and try removing
  //    the workload fleet wholesale while the legacy requests are still
  //    intact enough to carry the failure alone. A failure that survives
  //    batch_size = pipeline = 1 does not need multi-command batches.
  {
    auto accept = [&](ScenarioSpec candidate) {
      if (!sh.fails(candidate, out.trace)) return false;
      out.spec = std::move(candidate);
      ++out.reductions;
      return true;
    };
    if (out.spec.batch_size != 1 || out.spec.replica_pipeline != 1) {
      ScenarioSpec all = out.spec;
      all.batch_size = 1;
      all.replica_pipeline = 1;
      all.batch_timeout_ticks = 4;
      accept(std::move(all));
    }
    while (out.spec.batch_size > 1) {
      ScenarioSpec c = out.spec;
      c.batch_size = std::max<std::uint64_t>(1, c.batch_size / 2);
      if (!accept(std::move(c))) break;
    }
    while (out.spec.replica_pipeline > 1) {
      ScenarioSpec c = out.spec;
      c.replica_pipeline =
          std::max<std::uint64_t>(1, c.replica_pipeline / 2);
      if (!accept(std::move(c))) break;
    }
    if (out.spec.batch_timeout_ticks != 4) {
      ScenarioSpec c = out.spec;
      c.batch_timeout_ticks = 4;
      accept(std::move(c));
    }

    // Workload fleet: drop it wholesale if the legacy requests alone still
    // fail, else trim clients and per-client request counts, then strip
    // the open-loop and skew refinements.
    if (out.spec.workload.enabled()) {
      if (!out.spec.requests.empty()) {
        ScenarioSpec c = out.spec;
        c.workload = sim::WorkloadSpec{};
        accept(std::move(c));
      }
      while (out.spec.workload.clients > 1) {
        ScenarioSpec c = out.spec;
        c.workload.clients = std::max<std::uint64_t>(
            1, c.workload.clients / 2);
        if (!accept(std::move(c))) break;
      }
      while (out.spec.workload.requests_per_client > 1) {
        ScenarioSpec c = out.spec;
        c.workload.requests_per_client = std::max<std::uint64_t>(
            1, c.workload.requests_per_client / 2);
        if (!accept(std::move(c))) break;
      }
      if (out.spec.workload.open_loop) {
        ScenarioSpec c = out.spec;
        c.workload.open_loop = false;
        accept(std::move(c));
      }
      if (out.spec.workload.hot_key_percent != 0) {
        ScenarioSpec c = out.spec;
        c.workload.hot_key_percent = 0;
        accept(std::move(c));
      }
    }
  }

  // 2b. Drop client requests. run_scenario needs some load, so the empty
  //     candidate is only offered while a workload fleet remains.
  out.reductions += minimize_list(
      out.spec.requests, [&](const std::vector<Bytes>& candidate) {
        if (candidate.empty() && !out.spec.workload.enabled()) return false;
        ScenarioSpec s = out.spec;
        s.requests = candidate;
        return sh.fails(s, out.trace);
      });

  // 3. Collapse delays and copy counts toward 1 — all at once if possible,
  //    then halving windows of the remaining targets.
  std::vector<std::size_t> targets;
  for (std::size_t i = 0; i < out.trace.decisions.size(); ++i)
    if (collapsible(out.trace.decisions[i])) targets.push_back(i);
  if (!targets.empty()) {
    for (std::size_t chunk = targets.size(); chunk >= 1; chunk /= 2) {
      for (std::size_t start = 0; start + chunk <= targets.size();) {
        ScheduleTrace candidate = out.trace;
        for (std::size_t k = start; k < start + chunk; ++k)
          collapse(candidate.decisions[targets[k]]);
        if (sh.fails(out.spec, candidate)) {
          out.trace = std::move(candidate);
          targets.erase(targets.begin() + static_cast<std::ptrdiff_t>(start),
                        targets.begin() +
                            static_cast<std::ptrdiff_t>(start + chunk));
          ++out.reductions;
        } else {
          start += chunk;
        }
      }
      if (chunk == 1) break;
    }
  }

  // 4. Garbage-collect decisions the shrunken scenario never consults. The
  //    consumed trace replays the exact same schedule, so this can only
  //    fail if the budget ran out — in which case keep the uncollected one.
  {
    const RunOutcome replayed =
        run_scenario(out.spec, registry, RunMode::Replay, &out.trace);
    ++sh.runs;
    if (replayed.violation && replayed.violation->invariant == invariant &&
        replayed.trace.decisions.size() < out.trace.decisions.size() &&
        sh.fails(out.spec, replayed.trace)) {
      out.trace = replayed.trace;
      ++out.reductions;
    }
  }

  out.runs = sh.runs;
  return out;
}

}  // namespace unidir::explore
