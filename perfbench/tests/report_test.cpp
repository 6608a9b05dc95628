// The percentile rule and the throughput tail ratio.
#include "report.h"

#include <gtest/gtest.h>

#include <numeric>

namespace perfbench {
namespace {

std::vector<double> one_to(std::size_t n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

TEST(PercentileRule, NearestRankReturnsAnObservedSample) {
  const std::vector<double> v = one_to(10);
  EXPECT_EQ(nearest_rank(v, 0.5), 5);   // ceil(5) = 5th
  EXPECT_EQ(nearest_rank(v, 0.51), 6);  // ceil(5.1) = 6th
  EXPECT_EQ(nearest_rank(v, 0.99), 10);
  EXPECT_EQ(nearest_rank(v, 1.0), 10);
  EXPECT_EQ(nearest_rank({7.0}, 0.5), 7);
}

TEST(PercentileRule, HighestPercentileKeepsTenSamplesBeyondIt) {
  EXPECT_EQ(supported_tail(0), 0);
  EXPECT_EQ(supported_tail(19), 0);      // median rank 10, only 9 beyond
  EXPECT_EQ(supported_tail(20), 0.5);    // rank 10, 10 beyond
  EXPECT_EQ(supported_tail(100), 0.9);   // p90 rank 90, 10 beyond
  EXPECT_EQ(supported_tail(199), 0.9);   // p95 rank 190, 9 beyond
  EXPECT_EQ(supported_tail(200), 0.95);
  EXPECT_EQ(supported_tail(999), 0.95);  // p99 rank 990, 9 beyond
  EXPECT_EQ(supported_tail(1000), 0.99);
  EXPECT_EQ(supported_tail(9999), 0.99);
  EXPECT_EQ(supported_tail(10000), 0.999);
}

TEST(PercentileRule, SummaryReportsMedianTailAndCount) {
  std::vector<double> v = one_to(1000);
  std::reverse(v.begin(), v.end());  // summarize sorts its own copy
  const Summary s = summarize(v);
  EXPECT_EQ(s.n, 1000u);
  EXPECT_EQ(s.p50, 500);
  EXPECT_EQ(s.p99, 990);
  EXPECT_EQ(s.tail_q, 0.99);
  EXPECT_EQ(s.tail, 990);
  EXPECT_EQ(summarize({}).n, 0u);
}

TEST(TailRatio, ComparesLastQuarterWithFirstQuarter) {
  // Window [0, 400): 100 completions in [0, 100), 50 in [300, 400).
  std::vector<std::uint64_t> c;
  for (std::uint64_t i = 0; i < 100; ++i) c.push_back(i);
  for (std::uint64_t i = 0; i < 50; ++i) c.push_back(300 + 2 * i);
  c.push_back(150);   // middle: counted in neither quarter
  c.push_back(400);   // window end is exclusive
  c.push_back(1000);  // after the window
  EXPECT_DOUBLE_EQ(tail_ratio(c, 0, 400), 0.5);
}

TEST(TailRatio, SteadyRateGivesOneAndEmptyStartGivesZero) {
  std::vector<std::uint64_t> c;
  for (std::uint64_t t = 1000; t < 2000; t += 10) c.push_back(t);
  EXPECT_DOUBLE_EQ(tail_ratio(c, 1000, 2000), 1.0);
  EXPECT_DOUBLE_EQ(tail_ratio({1900}, 1000, 2000), 0.0);
  EXPECT_DOUBLE_EQ(tail_ratio(c, 5, 5), 0.0);
}

TEST(ResultJson, HasExactlyTheResultKeys) {
  const std::string j =
      result_json(true, 12, 1, {{"rps", {1.5, "1/s"}}, {"p50_us", {2, "us"}}});
  EXPECT_EQ(j,
            "{\"correct\": true, \"attempted\": 12, \"failed\": 1, "
            "\"metrics\": {\"p50_us\": {\"value\": 2, \"unit\": \"us\"}, "
            "\"rps\": {\"value\": 1.5, \"unit\": \"1/s\"}}}");
}

}  // namespace
}  // namespace perfbench
