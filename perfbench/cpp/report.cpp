#include "report.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <stdexcept>

namespace perfbench {

double nearest_rank(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) throw std::invalid_argument("nearest_rank: no samples");
  const double rank = std::ceil(q * static_cast<double>(sorted.size()));
  const std::size_t idx =
      rank < 1 ? 0 : std::min(sorted.size(), static_cast<std::size_t>(rank)) - 1;
  return sorted[idx];
}

double supported_tail(std::size_t n) {
  for (const double q : {0.999, 0.99, 0.95, 0.9, 0.5}) {
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(n)));
    if (n >= rank + kTailSamples) return q;
  }
  return 0;
}

Summary summarize(std::vector<double> samples) {
  Summary s;
  s.n = samples.size();
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  s.p50 = nearest_rank(samples, 0.5);
  s.p99 = nearest_rank(samples, 0.99);
  s.tail_q = supported_tail(s.n);
  if (s.tail_q > 0) s.tail = nearest_rank(samples, s.tail_q);
  return s;
}

double tail_ratio(const std::vector<std::uint64_t>& completions,
                  std::uint64_t t0, std::uint64_t t1) {
  if (t1 <= t0) return 0;
  const std::uint64_t quarter = (t1 - t0) / 4;
  const std::uint64_t first_end = t0 + quarter;
  const std::uint64_t last_begin = t1 - quarter;
  std::uint64_t first = 0, last = 0;
  for (const std::uint64_t t : completions) {
    if (t >= t0 && t < first_end) ++first;
    if (t >= last_begin && t < t1) ++last;
  }
  return first == 0 ? 0
                    : static_cast<double>(last) / static_cast<double>(first);
}

namespace {

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

}  // namespace

std::string result_json(bool correct, std::uint64_t attempted,
                        std::uint64_t failed,
                        const std::map<std::string, Metric>& metrics) {
  std::ostringstream os;
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    if (!first) os << ", ";
    first = false;
    os << "\"" << name << "\": {\"value\": " << json_number(m.value)
       << ", \"unit\": \"" << m.unit << "\"}";
  }
  os << "}}";
  return os.str();
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace perfbench
