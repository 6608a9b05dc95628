// Test helpers over ReplicaCore, the introspection surface MinBFT and PBFT
// replicas share.
#pragma once

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "agreement/replica_core.h"

namespace unidir::testutil {

/// check_execution_consistency over the execution logs of those `replicas`
/// (any range of replica pointers) still correct in `world`.
template <class Replicas>
std::optional<std::string> log_divergence(const sim::World& world,
                                          const Replicas& replicas) {
  std::vector<std::pair<ProcessId, const agreement::ExecutionLog*>> logs;
  for (const agreement::ReplicaCore* r : replicas)
    if (world.correct(r->id())) logs.emplace_back(r->id(), &r->execution_log());
  return agreement::check_execution_consistency(logs);
}

}  // namespace unidir::testutil
