// Allocation gate over whole event-engine runs with the notice path busy:
// open loop, the hardened protocol, congestion batching, drop + duplicate
// + reorder faults on every link and a crash window per cache. A run over
// twice the trace must allocate no more than a run over the trace itself,
// up to a fixed slack: whatever allocates per notice, per flush, per
// retransmit or per crash shows up as a count that grows with the trace.
//
// Drop + crash is a known way to lose a notice for good (the ledger check
// of chaos_open_loop leaves loss out for that reason), so this gate checks
// allocations only, not ledger balance.
#include "allocation_counter.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "net/fault_plan.h"
#include "sim/event_engine.h"
#include "sim/experiment.h"
#include "workload/trace_split.h"

namespace delta::sim {
namespace {

using World = Setup;  // ::testing::Test::Setup shadows sim::Setup in TESTs

SetupParams gate_params(std::int64_t events_per_kind) {
  SetupParams p;
  p.base_level = 4;
  p.total_rows = 4e4;
  p.object_target = 30;
  p.trace_seed = 11;
  p.trace.query_count = events_per_kind;
  p.trace.update_count = events_per_kind;
  // Result and update volume scale with the trace, so the per-event load
  // on the links (and with it the batching) is the same at 1x and 2x.
  p.trace.postwarmup_query_gb =
      0.05 * static_cast<double>(events_per_kind) / 1200.0;
  p.trace.mean_postwarmup_update_mb = 0.02;
  p.trace.hotspot_max_object_gb = 0.01;
  p.benefit_window = 500;
  return p;
}

/// Global allocations of one whole run_one_event call (split, shard set-up,
/// replay, merge and the result's own storage) on `setup`'s trace.
std::int64_t allocations_of_run(const World& setup) {
  const double rate = 100.0;
  const double nominal =
      static_cast<double>(setup.trace().order.size()) / rate;
  EventEngineOptions options;
  options.default_link = net::LinkModel{12.5e6, 0.040};  // 100 Mbit/s, 40 ms
  options.open_loop.enabled = true;
  options.open_loop.arrival = workload::ArrivalProcess::Kind::kPoisson;
  options.open_loop.rate_per_sec = rate;
  options.open_loop.max_in_flight = 64;
  options.protocol.enabled = true;
  options.admission.enabled = true;
  options.notice_batching.enabled = true;
  options.notice_batching.backlog_threshold_seconds = 0.0;
  options.fault_plan.enabled = true;
  options.fault_plan.seed = net::fault_mix64(1);
  options.fault_plan.default_faults.drop = 0.02;
  options.fault_plan.default_faults.duplicate = 0.02;
  options.fault_plan.default_faults.reorder = 0.02;
  for (const std::size_t i : {0u, 1u}) {
    const double down = (0.30 + 0.20 * static_cast<double>(i)) * nominal;
    options.fault_plan.crashes.push_back(net::CrashSchedule{
        "cache-" + std::to_string(i),
        {net::FaultWindow{down, down + 0.10 * nominal}}});
  }
  options.parallel.num_threads = 1;
  testing::start_counting_allocations();
  {
    const EventRunResult r = run_one_event(
        PolicyKind::kBenefit, setup.trace(), setup.cache_capacity(),
        setup.params(), 2, workload::SplitStrategy::kRoundRobin, options);
    EXPECT_EQ(r.replay.combined.queries,
              static_cast<std::int64_t>(setup.trace().queries.size()));
    EXPECT_GT(r.coalesced_notices, 0);
    EXPECT_GT(r.chaos.faults_dropped, 0);
    EXPECT_EQ(r.chaos.crash_restarts, 2);
  }
  return testing::stop_counting_allocations();
}

// The slack covers storage that grows geometrically with the trace:
// doubling the trace adds at most one reallocation to each table that grows
// with it (the cache end's ledger of resident sets, the flight pool, the
// event queue, the result's series and sample rows, the split's and the
// decode's rows): 204 allocations at 1x and 215 at 2x on this run. A
// per-notice, per-flush or per-crash allocation adds hundreds: while
// notices travelled in vectors the same runs took 468 and 817.
TEST(NoticeAllocationTest, RunAllocationsDoNotGrowWithTheTrace) {
  const World once{gate_params(1200)};
  const World twice{gate_params(2400)};
  allocations_of_run(once);  // warm lazily built process-wide tables
  const std::int64_t at_1x = allocations_of_run(once);
  const std::int64_t at_2x = allocations_of_run(twice);
  constexpr std::int64_t kSlack = 32;
  EXPECT_LE(at_2x, at_1x + kSlack) << "1x: " << at_1x << ", 2x: " << at_2x;
}

}  // namespace
}  // namespace delta::sim
