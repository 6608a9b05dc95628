#include "runtime/fault.h"

#include <charconv>
#include <sstream>
#include <utility>

namespace unidir::runtime {

namespace {

constexpr std::uint64_t kMillion = 1'000'000;

/// Strict integer parse of a full token (no sign, no trailing junk).
std::optional<std::uint64_t> parse_u64(std::string_view s) {
  if (s.empty()) return std::nullopt;
  std::uint64_t v = 0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc{} || ptr != s.data() + s.size()) return std::nullopt;
  return v;
}

std::vector<std::string_view> split(std::string_view s, char sep) {
  std::vector<std::string_view> out;
  std::size_t at = 0;
  while (at <= s.size()) {
    const std::size_t next = s.find(sep, at);
    if (next == std::string_view::npos) {
      out.push_back(s.substr(at));
      break;
    }
    out.push_back(s.substr(at, next - at));
    at = next + 1;
  }
  return out;
}

std::string_view trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t'))
    s.remove_prefix(1);
  while (!s.empty() &&
         (s.back() == ' ' || s.back() == '\t' || s.back() == '\r'))
    s.remove_suffix(1);
  return s;
}

}  // namespace

std::string FaultPlan::to_text() const {
  std::ostringstream os;
  os << "seed=" << seed << "\n";
  os << "drop=" << drop_per_million << "\n";
  os << "duplicate=" << duplicate_per_million << "\n";
  os << "delay=" << delay_per_million << "\n";
  os << "delay_min=" << delay_min_ticks << "\n";
  os << "delay_max=" << delay_max_ticks << "\n";
  os << "corrupt=" << corrupt_per_million << "\n";
  for (const auto& e : partitions) {
    os << "partition=" << e.start << ":" << e.end << ":";
    for (std::size_t g = 0; g < e.groups.size(); ++g) {
      if (g != 0) os << "|";
      for (std::size_t i = 0; i < e.groups[g].size(); ++i) {
        if (i != 0) os << ",";
        os << e.groups[g][i];
      }
    }
    os << "\n";
  }
  return os.str();
}

std::optional<FaultPlan> FaultPlan::parse_text(std::string_view text) {
  FaultPlan plan;
  for (std::string_view line : split(text, '\n')) {
    if (const std::size_t hash = line.find('#');
        hash != std::string_view::npos)
      line = line.substr(0, hash);
    line = trim(line);
    if (line.empty()) continue;
    const std::size_t eq = line.find('=');
    if (eq == std::string_view::npos) return std::nullopt;
    const std::string_view key = trim(line.substr(0, eq));
    const std::string_view value = trim(line.substr(eq + 1));

    if (key == "partition") {
      const auto fields = split(value, ':');
      if (fields.size() != 3) return std::nullopt;
      PartitionEpoch e;
      const auto start = parse_u64(trim(fields[0]));
      const auto end = parse_u64(trim(fields[1]));
      if (!start || !end || *end <= *start) return std::nullopt;
      e.start = *start;
      e.end = *end;
      for (std::string_view group_text : split(fields[2], '|')) {
        std::vector<ProcessId> group;
        for (std::string_view id_text : split(group_text, ',')) {
          const auto id = parse_u64(trim(id_text));
          if (!id) return std::nullopt;
          group.push_back(ProcessId(*id));
        }
        e.groups.push_back(std::move(group));
      }
      plan.partitions.push_back(std::move(e));
      continue;
    }

    const auto v = parse_u64(value);
    if (!v) return std::nullopt;
    if (key == "seed") plan.seed = *v;
    else if (key == "drop") plan.drop_per_million = std::uint32_t(*v);
    else if (key == "duplicate") plan.duplicate_per_million = std::uint32_t(*v);
    else if (key == "delay") plan.delay_per_million = std::uint32_t(*v);
    else if (key == "delay_min") plan.delay_min_ticks = *v;
    else if (key == "delay_max") plan.delay_max_ticks = *v;
    else if (key == "corrupt") plan.corrupt_per_million = std::uint32_t(*v);
    // Unknown keys are ignored so plans can grow fields without breaking
    // older binaries reading them.
  }
  if (plan.delay_max_ticks < plan.delay_min_ticks) return std::nullopt;
  return plan;
}

FaultyTransport::FaultyTransport(Transport& inner, Clock& clock,
                                 FaultPlan plan)
    : inner_(inner), clock_(clock), plan_(std::move(plan)),
      rng_(plan_.seed) {}

bool FaultyTransport::partitioned(ProcessId a, ProcessId b, Time at) const {
  for (const auto& e : plan_.partitions) {
    if (at < e.start || at >= e.end) continue;
    int group_a = -1, group_b = -1;
    for (std::size_t g = 0; g < e.groups.size(); ++g) {
      for (ProcessId p : e.groups[g]) {
        if (p == a) group_a = int(g);
        if (p == b) group_b = int(g);
      }
    }
    // Unlisted processes are unrestricted; listed ones only reach their
    // own group and the unlisted.
    if (group_a != -1 && group_b != -1 && group_a != group_b) return true;
  }
  return false;
}

void FaultyTransport::send(ProcessId from, ProcessId to, Channel channel,
                           Payload payload) {
  if (partitioned(from, to, clock_.now())) {
    ++stats_.partitioned;
    return;
  }
  if (plan_.drop_per_million != 0 &&
      rng_.chance(plan_.drop_per_million, kMillion)) {
    ++stats_.dropped;
    return;
  }
  if (plan_.corrupt_per_million != 0 && !payload.empty() &&
      rng_.chance(plan_.corrupt_per_million, kMillion)) {
    Bytes& bytes = payload.mutate();
    bytes[rng_.below(bytes.size())] ^=
        std::uint8_t(1 + rng_.below(255));  // never a no-op flip
    ++stats_.corrupted;
  }
  if (plan_.duplicate_per_million != 0 &&
      rng_.chance(plan_.duplicate_per_million, kMillion)) {
    ++stats_.duplicated;
    inner_.send(from, to, channel, payload);
  }
  if (plan_.delay_per_million != 0 &&
      rng_.chance(plan_.delay_per_million, kMillion)) {
    const Time spread = plan_.delay_max_ticks - plan_.delay_min_ticks;
    const Time delay =
        plan_.delay_min_ticks + (spread == 0 ? 0 : rng_.below(spread + 1));
    ++stats_.delayed;
    // The deferred send re-enters the INNER transport directly: the fault
    // decision was already made, and re-rolling on fire would skew rates.
    clock_.arm(delay, [this, from, to, channel,
                       payload = std::move(payload)]() {
      inner_.send(from, to, channel, payload);
    });
    return;
  }
  ++stats_.forwarded;
  inner_.send(from, to, channel, std::move(payload));
}

}  // namespace unidir::runtime
