#include "spans.h"

#include <algorithm>
#include <chrono>
#include <cstdio>

namespace perfbench {

namespace {

std::atomic<std::uint64_t> next_recorder_id{1};

// The calling thread's buffer in the recorder it last recorded into. The
// recorder id (never reused) keeps a stale pointer from being taken for a
// buffer of a later recorder at the same address.
struct ThreadCache {
  std::uint64_t recorder = 0;
  void* buffer = nullptr;
};
thread_local ThreadCache tl_cache;

}  // namespace

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::vector<std::uint64_t> self_times(const std::vector<Span>& spans) {
  // Children of one parent are recorded in start order and, on one thread,
  // never overlap each other; clipping each to the parent's interval and
  // merging with the previous child's end handles any that do.
  std::vector<std::uint64_t> covered(spans.size(), 0);
  std::vector<std::uint64_t> last_end(spans.size(), 0);
  for (const Span& s : spans) {
    if (s.parent < 0) continue;
    const auto p = static_cast<std::size_t>(s.parent);
    const Span& parent = spans[p];
    const std::uint64_t lo =
        std::max({s.start_ns, parent.start_ns, last_end[p]});
    const std::uint64_t hi = std::min(s.end_ns, parent.end_ns);
    if (hi > lo) covered[p] += hi - lo;
    last_end[p] = std::max(last_end[p], hi);
  }
  std::vector<std::uint64_t> self(spans.size(), 0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::uint64_t dur =
        spans[i].end_ns > spans[i].start_ns ? spans[i].end_ns - spans[i].start_ns
                                            : 0;
    self[i] = dur > covered[i] ? dur - covered[i] : 0;
  }
  return self;
}

SpanRecorder::SpanRecorder(std::size_t max_spans)
    : id_(next_recorder_id.fetch_add(1)), max_spans_(max_spans) {}

SpanRecorder::Buffer& SpanRecorder::buffer() {
  if (tl_cache.recorder == id_) return *static_cast<Buffer*>(tl_cache.buffer);
  std::lock_guard<std::mutex> lock(mu_);
  auto b = std::make_unique<Buffer>();
  b->tid = static_cast<std::uint32_t>(buffers_.size() + 1);
  buffers_.push_back(std::move(b));
  tl_cache = {id_, buffers_.back().get()};
  return *buffers_.back();
}

std::int64_t SpanRecorder::begin(const char* name, std::uint64_t key) {
  if (stored_.fetch_add(1, std::memory_order_relaxed) >= max_spans_) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return -1;
  }
  Buffer& b = buffer();
  Span s;
  s.name = name;
  s.key = key;
  s.tid = b.tid;
  s.parent = b.open;
  s.start_ns = now_ns();
  b.spans.push_back(s);
  b.open = static_cast<std::int64_t>(b.spans.size()) - 1;
  return b.open;
}

void SpanRecorder::end(std::int64_t handle) {
  const std::uint64_t t = now_ns();
  if (handle < 0) return;
  Buffer& b = buffer();
  Span& s = b.spans[static_cast<std::size_t>(handle)];
  s.end_ns = t;
  b.open = s.parent;
}

void SpanRecorder::add_async(const char* name, std::uint64_t key,
                             std::uint64_t start_ns, std::uint64_t end_ns) {
  if (stored_.fetch_add(1, std::memory_order_relaxed) >= max_spans_) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  Buffer& b = buffer();
  Span s;
  s.name = name;
  s.key = key;
  s.tid = b.tid;
  s.start_ns = start_ns;
  s.end_ns = end_ns;
  s.async = true;
  b.spans.push_back(s);
}

std::vector<std::vector<Span>> SpanRecorder::threads() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::vector<Span>> out;
  for (const auto& b : buffers_) out.push_back(b->spans);
  return out;
}

std::map<std::string, SpanTotals> SpanRecorder::totals() const {
  std::map<std::string, SpanTotals> out;
  for (const std::vector<Span>& spans : threads()) {
    const std::vector<std::uint64_t> self = self_times(spans);
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      if (s.end_ns == 0) continue;  // still open when the run ended
      SpanTotals& t = out[s.name];
      ++t.count;
      t.total_ns += s.end_ns - s.start_ns;
      t.self_ns += self[i];
    }
  }
  return out;
}

bool SpanRecorder::write_chrome_trace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::vector<std::vector<Span>> all = threads();
  std::uint64_t origin = UINT64_MAX;
  for (const auto& spans : all)
    for (const Span& s : spans) origin = std::min(origin, s.start_ns);
  auto us = [origin](std::uint64_t t) {
    return static_cast<double>(t - origin) / 1000.0;
  };
  std::fputs("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n", f);
  bool first = true;
  auto sep = [&] {
    if (!first) std::fputs(",\n", f);
    first = false;
  };
  for (const auto& spans : all)
    for (const Span& s : spans) {
      if (s.end_ns == 0) continue;
      sep();
      if (s.async) {
        std::fprintf(f,
                     "{\"name\":\"%s\",\"cat\":\"client\",\"ph\":\"b\","
                     "\"id\":%llu,\"ts\":%.3f,\"pid\":1,\"tid\":%u},\n"
                     "{\"name\":\"%s\",\"cat\":\"client\",\"ph\":\"e\","
                     "\"id\":%llu,\"ts\":%.3f,\"pid\":1,\"tid\":%u}",
                     s.name, static_cast<unsigned long long>(s.key),
                     us(s.start_ns), s.tid, s.name,
                     static_cast<unsigned long long>(s.key), us(s.end_ns),
                     s.tid);
      } else {
        std::fprintf(f,
                     "{\"name\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,"
                     "\"pid\":1,\"tid\":%u,\"args\":{\"key\":%llu}}",
                     s.name, us(s.start_ns),
                     static_cast<double>(s.end_ns - s.start_ns) / 1000.0,
                     s.tid, static_cast<unsigned long long>(s.key));
      }
    }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace perfbench
