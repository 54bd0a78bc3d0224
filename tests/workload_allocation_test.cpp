// Allocation-count regression for trace generation. This binary replaces
// the global operator new/delete with malloc/free wrappers that count
// allocations while a test enables them, and checks that
// SyntheticTraceGenerator::generate makes a small number of allocations
// whatever the query count: a single-object query keeps its id inside the
// record (workload::ObjectList), so only the trace's own vectors allocate.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "workload/synthetic_trace.h"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::int64_t> g_allocations{0};

void* counted_malloc(std::size_t n) noexcept {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  return std::malloc(n == 0 ? 1 : n);
}

void* counted_aligned(std::size_t n, std::align_val_t align) noexcept {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  const auto a = static_cast<std::size_t>(align);
  // aligned_alloc wants a non-zero multiple of the alignment.
  return std::aligned_alloc(a, n == 0 ? a : (n + a - 1) / a * a);
}

void* checked(void* p) {
  if (p == nullptr) throw std::bad_alloc{};
  return p;
}

}  // namespace

// These are the allocation functions themselves, so free() is the
// matching release; once they are inlined into a new/delete pair GCC can
// no longer see that.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void* operator new(std::size_t n) { return checked(counted_malloc(n)); }
void* operator new[](std::size_t n) { return checked(counted_malloc(n)); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted_malloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_malloc(n);
}
void* operator new(std::size_t n, std::align_val_t a) {
  return checked(counted_aligned(n, a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return checked(counted_aligned(n, a));
}
void* operator new(std::size_t n, std::align_val_t a,
                   const std::nothrow_t&) noexcept {
  return counted_aligned(n, a);
}
void* operator new[](std::size_t n, std::align_val_t a,
                     const std::nothrow_t&) noexcept {
  return counted_aligned(n, a);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}

#pragma GCC diagnostic pop

namespace delta::workload {
namespace {

struct Counted {
  std::int64_t allocations = 0;
  std::size_t queries = 0;
};

Counted generate_counted(std::int64_t events) {
  const SyntheticTraceGenerator generator{
      ycsb_params(YcsbMix::kB, /*object_count=*/10'000, events)};
  g_allocations.store(0);
  g_counting.store(true);
  const Trace trace = generator.generate(0xA110C);
  g_counting.store(false);
  return {g_allocations.load(), trace.queries.size()};
}

TEST(WorkloadAllocationTest, CounterSeesAllocations) {
  // Stored through a volatile pointer, so the pair cannot be elided.
  static std::int64_t* volatile escaped = nullptr;
  g_allocations.store(0);
  g_counting.store(true);
  escaped = new std::int64_t{7};
  g_counting.store(false);
  delete escaped;
  EXPECT_EQ(g_allocations.load(), 1);
}

// The generator's allocations are its key tables and the trace's vectors
// (69 at 10^5 events): order and initial sizes are reserved once, and the
// query and update vectors grow geometrically, so doubling the events adds
// at most one reallocation to each. One allocation per query would be
// ~95,000 at 10^5 events.
TEST(WorkloadAllocationTest, YcsbBGenerationAllocatesIndependentlyOfQueries) {
  constexpr std::int64_t kMaxAllocations = 128;
  const Counted small = generate_counted(100'000);
  const Counted large = generate_counted(200'000);
  ASSERT_GT(small.queries, 90'000u);
  ASSERT_GT(large.queries, 180'000u);
  EXPECT_LT(small.allocations, kMaxAllocations) << small.queries << " queries";
  EXPECT_LT(large.allocations, kMaxAllocations) << large.queries << " queries";
  EXPECT_LE(large.allocations - small.allocations, 2);
}

}  // namespace
}  // namespace delta::workload
