// Allocation-count regression tests for the protocol message path.
//
// The Writer's appends are on the signing/hashing path of every protocol
// message; Writer::reserve() plus the internal geometric `ensure` (with its
// first-growth floor) are what keep a message encode at O(1) allocations,
// and fixed-size MACs and digests keep their decodes at none. These tests
// count global operator new calls around encodes, decodes and whole
// scenarios and pin that behavior, so a later "simplification" that
// reintroduces per-append reallocation or per-message churn fails loudly.
//
// The whole file is compiled out under sanitizers: replacing global
// operator new would fight their interceptors for no coverage gain.
#include <gtest/gtest.h>

#include "agreement/smr.h"
#include "common/serde.h"
#include "crypto/signature.h"
#include "explore/invariants.h"
#include "explore/scenario.h"
#include "trusted/usig.h"

namespace unidir::serde {
namespace {

// Always-on reserve() behavior check, so this binary has coverage even
// where the allocation-counting half below is compiled out.
TEST(SerdeAlloc, ReserveKeepsContentsAndGrowsCapacity) {
  Writer w;
  w.u8(0x42);
  w.reserve(1 << 16);
  w.bytes(Bytes(1024, 0xCD));
  EXPECT_EQ(w.buffer()[0], 0x42);
  EXPECT_EQ(w.buffer().size(), 1u + 2u + 1024u);  // u8 + varint(1024) + data
}

}  // namespace
}  // namespace unidir::serde

#if !defined(__SANITIZE_ADDRESS__) && !defined(__SANITIZE_THREAD__)

#include <atomic>
#include <cstdlib>
#include <functional>
#include <new>

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

// noinline: GCC otherwise inlines the replaced sized delete into callers
// that got their memory from operator new, sees free() on it, and fails
// -Werror=mismatched-new-delete (the UBSan build) although the pair matches.
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

namespace unidir::serde {
namespace {

std::uint64_t allocations_during(const std::function<void()>& body) {
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  body();
  return g_allocations.load(std::memory_order_relaxed) - before;
}

TEST(SerdeAlloc, ReservedWriterAppendsWithoutAllocating) {
  const Bytes chunk(64, 0xAB);
  Writer w;
  w.reserve(100 * (chunk.size() + 10));
  const std::uint64_t allocs = allocations_during([&] {
    for (int i = 0; i < 100; ++i) w.bytes(chunk);
  });
  EXPECT_EQ(allocs, 0u) << "appends reallocated despite an exact reserve()";
  EXPECT_EQ(w.buffer().size(), 100 * (chunk.size() + 1));
}

TEST(SerdeAlloc, LargeBytesAppendAllocatesAtMostOnce) {
  const Bytes blob(64 * 1024, 0x5A);
  Writer w;
  const std::uint64_t allocs =
      allocations_during([&] { w.bytes(blob); });
  EXPECT_LE(allocs, 1u)
      << "length-prefixed append should reserve prefix+payload in one step";
}

TEST(SerdeAlloc, ManySmallAppendsStayAmortized) {
  // 4096 two-byte appends total ~12 KB; geometric growth from empty means
  // at most ~log2(12K) reallocations. The regression this guards against —
  // reserving to the exact size on every append — would cost 4096.
  const Bytes tiny{0x01, 0x02};
  Writer w;
  const std::uint64_t allocs = allocations_during([&] {
    for (int i = 0; i < 4096; ++i) w.bytes(tiny);
  });
  EXPECT_LE(allocs, 32u) << "per-append reallocation detected";
}

TEST(SerdeAlloc, SmallMessageFromAFreshWriterAllocatesOnce) {
  agreement::Command cmd;
  cmd.client = 3;
  cmd.request_id = 41;
  cmd.op = Bytes(24, 0x07);
  cmd.acked = 40;
  Bytes out;
  const std::uint64_t allocs = allocations_during([&] {
    Writer w;
    w.u8(6);  // a wire tag
    write(w, cmd);
    out = w.take();
  });
  EXPECT_EQ(allocs, 1u) << "the first growth should cover a small message";
  Reader r(out);
  EXPECT_EQ(r.u8(), 6u);
  EXPECT_EQ(read<agreement::Command>(r), cmd);
}

TEST(SerdeAlloc, SignatureAndUiDecodesAllocateNothing) {
  crypto::KeyRegistry keys;
  trusted::UsigEnclave usig(keys);
  const trusted::UniqueIdentifier ui = usig.create_ui(bytes_of("m"));
  const Bytes ui_bytes = encode(ui);
  const Bytes sig_bytes = encode(ui.sig);
  trusted::UniqueIdentifier ui_back;
  crypto::Signature sig_back;
  const std::uint64_t allocs = allocations_during([&] {
    Reader r(ui_bytes);
    ui_back = read<trusted::UniqueIdentifier>(r);
    Reader rs(sig_bytes);
    sig_back = read<crypto::Signature>(rs);
  });
  EXPECT_EQ(allocs, 0u);
  EXPECT_EQ(ui_back, ui);
  EXPECT_EQ(sig_back, ui.sig);
}

/// Allocations per delivered message over one whole scenario, as the
/// benchmark's sim sweep runs it (standard invariants checked).
double allocations_per_delivered(const explore::ScenarioSpec& spec) {
  const explore::InvariantRegistry registry =
      explore::InvariantRegistry::standard_smr();
  explore::RunOutcome out;
  const std::uint64_t allocs =
      allocations_during([&] { out = explore::run_scenario(spec, registry); });
  EXPECT_FALSE(out.violation.has_value());
  EXPECT_GT(out.net.messages_delivered, 0u);
  return static_cast<double>(allocs) /
         static_cast<double>(out.net.messages_delivered);
}

// Budgets are the measured value plus 10%: 9.86 (MinBFT) and 6.66 (PBFT)
// allocations per delivered message, down from 31.1 and 16.9 before
// bindings moved into scratch writers, MACs and digests became fixed-size
// and deferred actions stopped allocating when they run at once.
constexpr double kMinBftBudget = 10.8;
constexpr double kPbftBudget = 7.3;

TEST(SerdeAlloc, MinBftScenarioAllocationBudget) {
  const double per_msg = allocations_per_delivered(
      explore::ScenarioSpec::materialize(explore::ProtocolKind::MinBft,
                                         explore::AdversaryKind::RandomDelay,
                                         1));
  EXPECT_LE(per_msg, kMinBftBudget);
}

TEST(SerdeAlloc, PbftScenarioAllocationBudget) {
  const double per_msg = allocations_per_delivered(
      explore::ScenarioSpec::materialize(explore::ProtocolKind::Pbft,
                                         explore::AdversaryKind::RandomDelay,
                                         1));
  EXPECT_LE(per_msg, kPbftBudget);
}

}  // namespace
}  // namespace unidir::serde

#endif  // !sanitizers
