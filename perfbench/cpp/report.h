// Reporting arithmetic shared by every perfbench workload: the percentile
// rule, the throughput tail ratio, and the one-line JSON result.
//
// Percentile rule: a timing is reported as its median plus the highest
// percentile of a fixed ladder that still has at least ten samples beyond
// it, together with the sample count. Percentiles use the nearest-rank
// definition (the ceil(q*n)-th smallest sample), so every reported value is
// a value that was actually observed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Samples needed beyond a percentile for it to be reported.
inline constexpr std::size_t kTailSamples = 10;

/// Nearest-rank percentile of `sorted` (ascending), q in (0, 1].
/// Requires a non-empty input.
double nearest_rank(const std::vector<double>& sorted, double q);

/// The highest q of the ladder {0.999, 0.99, 0.95, 0.9, 0.5} that leaves at
/// least kTailSamples samples strictly above its rank among n samples, or 0
/// when even the median does not.
double supported_tail(std::size_t n);

struct Summary {
  std::size_t n = 0;
  double p50 = 0;
  double p99 = 0;
  double tail_q = 0;  // supported_tail(n)
  double tail = 0;    // value at tail_q (0 when tail_q == 0)
};

/// Sorts a copy of `samples` and applies the percentile rule. p99 is
/// filled whenever n > 0; it is only *supported* when tail_q >= 0.99.
Summary summarize(std::vector<double> samples);

/// Requests completed per second in the last quarter of [t0, t1) divided
/// by the rate in the first quarter. `completions` are completion instants
/// on the same clock; instants outside the window are ignored. 0 when the
/// first quarter saw no completion.
double tail_ratio(const std::vector<std::uint64_t>& completions,
                  std::uint64_t t0, std::uint64_t t1);

/// One reported metric.
struct Metric {
  double value = 0;
  std::string unit;
};

/// The result line a benchmark runner parses: exactly the keys correct,
/// attempted, failed and metrics.
std::string result_json(bool correct, std::uint64_t attempted,
                        std::uint64_t failed,
                        const std::map<std::string, Metric>& metrics);

/// Peak resident set size of this process, in MiB.
double peak_rss_mb();

}  // namespace perfbench
