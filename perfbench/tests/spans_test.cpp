// Span recording and the self-time subtraction over nested spans.
#include "spans.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

namespace perfbench {
namespace {

Span make(std::uint64_t start, std::uint64_t end, std::int64_t parent) {
  Span s;
  s.start_ns = start;
  s.end_ns = end;
  s.parent = parent;
  return s;
}

TEST(SelfTime, SubtractsDirectChildrenOnly) {
  // parent [0,100) > a [10,30), b [40,70) > b1 [50,60)
  const std::vector<Span> spans = {make(0, 100, -1), make(10, 30, 0),
                                   make(40, 70, 0), make(50, 60, 2)};
  const std::vector<std::uint64_t> self = self_times(spans);
  EXPECT_EQ(self[0], 100u - 20 - 30);  // grandchild b1 is b's, not parent's
  EXPECT_EQ(self[1], 20u);
  EXPECT_EQ(self[2], 30u - 10);
  EXPECT_EQ(self[3], 10u);
}

TEST(SelfTime, ClipsChildrenToTheParentAndNeverCountsOverlapTwice) {
  // Two overlapping children and one running past the parent's end:
  // covered = [10,40) + [40,50) + [90,100) = 50.
  const std::vector<Span> spans = {make(0, 100, -1), make(10, 40, 0),
                                   make(30, 50, 0), make(90, 120, 0)};
  const std::vector<std::uint64_t> self = self_times(spans);
  EXPECT_EQ(self[0], 50u);
  // Zero-duration and inverted spans contribute nothing.
  const std::vector<std::uint64_t> z =
      self_times({make(5, 5, -1), make(9, 3, -1)});
  EXPECT_EQ(z[0], 0u);
  EXPECT_EQ(z[1], 0u);
}

TEST(SpanRecorder, ParentIsTheInnermostOpenSpanOnTheSameThread) {
  SpanRecorder rec;
  {
    SpanRecorder::Scope outer(&rec, "a.outer");
    { SpanRecorder::Scope inner(&rec, "a.inner", 7); }
    std::thread([&] { SpanRecorder::Scope other(&rec, "b.other"); }).join();
  }
  rec.add_async("client.request", (std::uint64_t{3} << 32) | 9, 10, 20);
  const auto threads = rec.threads();
  ASSERT_EQ(threads.size(), 2u);
  const std::vector<Span>& main_spans = threads[0];
  ASSERT_EQ(main_spans.size(), 3u);
  EXPECT_STREQ(main_spans[0].name, "a.outer");
  EXPECT_EQ(main_spans[0].parent, -1);
  EXPECT_EQ(main_spans[1].parent, 0);
  EXPECT_EQ(main_spans[1].key, 7u);
  EXPECT_TRUE(main_spans[2].async);
  EXPECT_EQ(main_spans[2].parent, -1);
  ASSERT_EQ(threads[1].size(), 1u);
  EXPECT_EQ(threads[1][0].parent, -1);  // other thread: no parent

  const auto totals = rec.totals();
  EXPECT_EQ(totals.at("a.outer").count, 1u);
  EXPECT_EQ(totals.at("a.outer").self_ns + totals.at("a.inner").total_ns,
            totals.at("a.outer").total_ns);
}

TEST(SpanRecorder, CapCountsInsteadOfStoring) {
  SpanRecorder rec(2);
  for (int i = 0; i < 5; ++i) SpanRecorder::Scope s(&rec, "x.y");
  EXPECT_EQ(rec.threads()[0].size(), 2u);
  EXPECT_EQ(rec.dropped(), 3u);
}

TEST(SpanRecorder, NullRecorderScopeIsANoOp) {
  SpanRecorder::Scope s(nullptr, "x.y");
  SUCCEED();
}

TEST(SpanRecorder, WritesChromeTrace) {
  SpanRecorder rec;
  { SpanRecorder::Scope s(&rec, "runtime.send", 1); }
  rec.add_async("client.request", 5, now_ns(), now_ns() + 1000);
  const std::string path = ::testing::TempDir() + "perfbench_spans.json";
  ASSERT_TRUE(rec.write_chrome_trace(path));
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string text = ss.str();
  EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(text.find("\"name\":\"runtime.send\",\"ph\":\"X\""),
            std::string::npos);
  EXPECT_NE(text.find("\"ph\":\"b\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\":\"e\""), std::string::npos);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace perfbench
