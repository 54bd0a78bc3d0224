// Counts this binary's global allocations, for allocation-regression
// tests. Include it from exactly one translation unit of a test binary: it
// replaces the global operator new/delete with malloc/free wrappers that
// count allocations while counting is on.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace delta::testing {

inline std::atomic<bool> g_counting{false};
inline std::atomic<std::int64_t> g_allocations{0};

/// Restarts the count at zero and turns counting on.
inline void start_counting_allocations() {
  g_allocations.store(0);
  g_counting.store(true);
}

/// Turns counting off and returns the allocations since the start.
inline std::int64_t stop_counting_allocations() {
  g_counting.store(false);
  return g_allocations.load();
}

}  // namespace delta::testing

// One definition per binary (see above), so internal linkage is enough.
namespace {

void note_allocation() noexcept {
  if (delta::testing::g_counting.load(std::memory_order_relaxed)) {
    delta::testing::g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
}

void* counted_malloc(std::size_t n) noexcept {
  note_allocation();
  return std::malloc(n == 0 ? 1 : n);
}

void* counted_aligned(std::size_t n, std::align_val_t align) noexcept {
  note_allocation();
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
