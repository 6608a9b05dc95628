// In-memory span recording for the traced run.
//
// Every decorator (decorators.h) opens a span around the call it forwards.
// Spans go into a per-thread buffer owned by the recorder, so recording
// takes no lock; a span's parent is the innermost span still open on the
// same thread. Client request spans are asynchronous (submit on one event,
// commit on a later one) and are added whole with their (client, request)
// key. After every recording thread has been joined, the buffers are read
// back to derive self time per layer and to write a Chrome-trace file.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";         // static string: "<layer>.<call>"
  std::uint64_t start_ns = 0;    // steady clock
  std::uint64_t end_ns = 0;      // 0 while open
  std::int64_t parent = -1;      // index in the same thread's buffer
  std::uint64_t key = 0;         // process id, or client<<32 | request
  std::uint32_t tid = 0;         // recorder-local thread number
  bool async = false;            // client request span (no parent)
};

/// Nanoseconds on std::chrono::steady_clock.
std::uint64_t now_ns();

/// Self time of every span: its duration minus the part of its interval
/// covered by its direct children. `spans` is one thread's buffer in
/// recording order (parents precede children). Async spans have no
/// children and keep their full duration.
std::vector<std::uint64_t> self_times(const std::vector<Span>& spans);

/// Per span name: how many closed spans, their inclusive and self time.
struct SpanTotals {
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t self_ns = 0;
};

class SpanRecorder {
 public:
  /// `max_spans` caps memory: spans past the cap are counted, not stored.
  explicit SpanRecorder(std::size_t max_spans = 2'000'000);
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  /// Opens a span on the calling thread; returns a handle for end().
  std::int64_t begin(const char* name, std::uint64_t key = 0);
  void end(std::int64_t handle);

  /// Adds a finished asynchronous span (no parent) on the calling thread.
  void add_async(const char* name, std::uint64_t key, std::uint64_t start_ns,
                 std::uint64_t end_ns);

  /// RAII form of begin/end.
  class Scope {
   public:
    Scope(SpanRecorder* rec, const char* name, std::uint64_t key = 0)
        : rec_(rec), handle_(rec ? rec->begin(name, key) : -1) {}
    ~Scope() {
      if (rec_) rec_->end(handle_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder* rec_;
    std::int64_t handle_;
  };

  /// Spans dropped at the cap.
  std::uint64_t dropped() const { return dropped_.load(); }

  // -- read-back: only after every recording thread has finished ----------
  /// Closed spans per thread, in recording order.
  std::vector<std::vector<Span>> threads() const;
  /// Totals per span name over every thread.
  std::map<std::string, SpanTotals> totals() const;
  /// Writes every closed span as Chrome-trace JSON ("X" events for nested
  /// spans, "b"/"e" pairs for client requests). Returns false on I/O error.
  bool write_chrome_trace(const std::string& path) const;

 private:
  struct Buffer {
    std::uint32_t tid = 0;
    std::vector<Span> spans;
    std::int64_t open = -1;  // innermost open span
  };
  Buffer& buffer();

  const std::uint64_t id_;
  const std::size_t max_spans_;
  std::atomic<std::size_t> stored_{0};
  std::atomic<std::uint64_t> dropped_{0};
  mutable std::mutex mu_;  // guards buffers_ (registration only)
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

}  // namespace perfbench
