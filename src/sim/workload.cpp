#include "sim/workload.h"

#include <sstream>

#include "sim/rng.h"

namespace unidir::sim {

namespace {

/// Geometric gap with mean ~`mean` ticks, via Bernoulli trials with
/// p = 1/mean, capped at 8x the mean. mean <= 1 degenerates to 1.
Time draw_gap(Rng& rng, Time mean) {
  if (mean <= 1) return 1;
  const Time cap = 8 * mean;
  Time gap = 1;
  while (gap < cap && !rng.chance(1, mean)) ++gap;
  return gap;
}

}  // namespace

std::vector<WorkloadSpec::ClientPlan> WorkloadSpec::plan() const {
  std::vector<ClientPlan> plans;
  if (!enabled()) return plans;
  plans.reserve(static_cast<std::size_t>(clients));
  const std::uint64_t space = key_space == 0 ? 1 : key_space;
  const std::uint64_t hot = hot_keys == 0 ? 1 : std::min(hot_keys, space);
  for (std::uint64_t c = 0; c < clients; ++c) {
    // Per-client substream: client c's schedule is a function of
    // (seed, c) alone, so dropping other clients (the shrinker does)
    // leaves it untouched.
    Rng rng(seed * 0xBF58476D1CE4E5B9ULL + c + 1);
    ClientPlan p;
    p.arrivals.reserve(static_cast<std::size_t>(requests_per_client));
    Time at = 0;
    for (std::uint64_t k = 0; k < requests_per_client; ++k) {
      Arrival a;
      if (open_loop) {
        at += draw_gap(rng, mean_interarrival);
        a.at = at;
      }
      const bool go_hot =
          hot_key_percent > 0 && rng.chance(std::min<std::uint64_t>(
                                                hot_key_percent, 100),
                                            100);
      a.key = go_hot ? rng.below(hot) : rng.below(space);
      p.arrivals.push_back(a);
    }
    plans.push_back(std::move(p));
  }
  return plans;
}

std::string WorkloadSpec::describe() const {
  if (!enabled()) return "workload=off";
  std::ostringstream os;
  os << "workload=" << clients << "x" << requests_per_client
     << (open_loop ? " open(mean=" + std::to_string(mean_interarrival) + ")"
                   : " closed(window=" + std::to_string(max_outstanding) +
                         ")")
     << " keys=" << key_space;
  if (hot_key_percent > 0)
    os << " hot=" << hot_key_percent << "%/" << hot_keys;
  os << " wseed=" << seed;
  return os.str();
}

}  // namespace unidir::sim
