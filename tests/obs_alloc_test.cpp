// Allocation-count regression tests for the tracer's recording path.
//
// DESIGN.md §10 promises that recording allocates nothing: enable()
// preallocates the ring and TraceEvent stores string-literal pointers, so
// a complete()/instant() call is a branch plus a struct copy. These tests
// count global operator new calls around recording loops to pin that, and
// pin the stronger claim that a *disabled* tracer records nothing at all.
//
// Same shape as serde_alloc_test.cpp: own binary (it replaces global
// operator new), and the counting half is compiled out under sanitizers,
// whose interceptors own the allocator.
#include <gtest/gtest.h>

#include "obs/tracer.h"

namespace unidir::obs {
namespace {

// Always-on behavior check so this binary has coverage even where the
// allocation-counting half below is compiled out.
TEST(TracerAlloc, DisabledTracerRecordsNothing) {
  Tracer t;
  for (int i = 0; i < 1000; ++i) {
    t.complete("span", "cat", 0, static_cast<Time>(i), 1, "k", 7);
    t.instant("mark", "cat", 0, static_cast<Time>(i));
  }
  EXPECT_EQ(t.recorded(), 0u);
  EXPECT_EQ(t.dropped(), 0u);
}

}  // namespace
}  // namespace unidir::obs

#if !defined(__SANITIZE_ADDRESS__) && !defined(__SANITIZE_THREAD__)

#include <atomic>
#include <cstdlib>
#include <functional>
#include <new>

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

// noinline: see serde_alloc_test.cpp (GCC's -Wmismatched-new-delete).
__attribute__((noinline)) void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

__attribute__((noinline)) void* operator new[](std::size_t size) {
  return ::operator new(size);
}

__attribute__((noinline)) void operator delete(void* p) noexcept {
  std::free(p);
}
__attribute__((noinline)) void operator delete[](void* p) noexcept {
  std::free(p);
}
__attribute__((noinline)) void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
__attribute__((noinline)) void operator delete[](void* p,
                                                 std::size_t) noexcept {
  std::free(p);
}

namespace unidir::obs {
namespace {

std::uint64_t allocations_during(const std::function<void()>& body) {
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  body();
  return g_allocations.load(std::memory_order_relaxed) - before;
}

TEST(TracerAlloc, DisabledRecordingAllocatesNothing) {
  Tracer t;
  const std::uint64_t allocs = allocations_during([&] {
    for (int i = 0; i < 10'000; ++i) {
      t.complete("span", "cat", 1, static_cast<Time>(i), 2, "k0", 1, "k1", 2);
      t.instant("mark", "cat", 1, static_cast<Time>(i));
    }
  });
  EXPECT_EQ(allocs, 0u) << "a disabled tracer must be a branch, not a malloc";
  EXPECT_EQ(t.recorded(), 0u);
}

TEST(TracerAlloc, EnabledRecordingAllocatesNothingAfterEnable) {
  Tracer t;
  t.enable(1024);
  const std::uint64_t allocs = allocations_during([&] {
    // 20k events through a 1k ring: exercises both the fill and the
    // overwrite path without ever growing the ring.
    for (int i = 0; i < 10'000; ++i) {
      t.complete("span", "cat", 1, static_cast<Time>(i), 2, "k0", 1, "k1", 2);
      t.instant("mark", "cat", 1, static_cast<Time>(i));
    }
  });
  EXPECT_EQ(allocs, 0u) << "recording reallocated despite the preallocated ring";
#if !defined(UNIDIR_OBS_NO_TRACING)
  EXPECT_EQ(t.recorded(), 1024u);
  EXPECT_EQ(t.dropped(), 20'000u - 1024u);
#else
  EXPECT_EQ(t.recorded(), 0u);  // stub: enable() is a no-op
#endif
}

}  // namespace
}  // namespace unidir::obs

#endif  // !sanitizers
