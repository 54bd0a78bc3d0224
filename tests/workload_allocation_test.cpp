// Allocation-count regression for trace generation. This binary replaces
// the global operator new/delete with malloc/free wrappers that count
// allocations while a test enables them, and checks that
// SyntheticTraceGenerator::generate makes a small number of allocations
// whatever the query count: a single-object query keeps its id inside the
// record (workload::ObjectList), so only the trace's own vectors allocate.
#include <gtest/gtest.h>

#include <cstdint>

#include "allocation_counter.h"
#include "workload/synthetic_trace.h"

namespace delta::workload {
namespace {

struct Counted {
  std::int64_t allocations = 0;
  std::size_t queries = 0;
};

Counted generate_counted(std::int64_t events) {
  const SyntheticTraceGenerator generator{
      ycsb_params(YcsbMix::kB, /*object_count=*/10'000, events)};
  testing::start_counting_allocations();
  const Trace trace = generator.generate(0xA110C);
  const std::int64_t allocations = testing::stop_counting_allocations();
  return {allocations, trace.queries.size()};
}

TEST(WorkloadAllocationTest, CounterSeesAllocations) {
  // Stored through a volatile pointer, so the pair cannot be elided.
  static std::int64_t* volatile escaped = nullptr;
  testing::start_counting_allocations();
  escaped = new std::int64_t{7};
  const std::int64_t allocations = testing::stop_counting_allocations();
  delete escaped;
  EXPECT_EQ(allocations, 1);
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
