// Crash-stop endpoint failures (ISSUE 10): deterministic process crashes,
// restart recovery, and cold-cache reconvergence.
//
// The contracts pinned here:
//  * zero-crash plans are byte-identical to no plan at all;
//  * a cache crash wipes its soft state, kills every in-flight request
//    (no query leaks), and cold recovery — re-register + ledger replay —
//    reconverges the notice books exactly;
//  * a server crash wipes registrations and ledgers, and caches detect the
//    new incarnation from reply stamps and rebuild via kRecoverRequest;
//  * crashed runs are bit-identical for any thread count;
//  * the prefilter conservatively stands down for crash-windowed replicas
//    without changing results (satellite 1);
//  * kLoadData/kResyncData retry past the attempt budget and converge once
//    a partition outlasting the ladder heals (satellite 2);
//  * a reply to a pre-crash correlation arriving at the restarted cache is
//    counted late and dropped, never applied (satellite 3).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "net/fault_plan.h"
#include "result_identity.h"
#include "sim/event_engine.h"
#include "sim/experiment.h"
#include "workload/trace_split.h"

namespace delta::sim {
namespace {

using World = Setup;  // ::testing::Test::Setup shadows sim::Setup in TESTs

SetupParams crash_params(std::uint64_t seed = 11) {
  SetupParams p;
  p.base_level = 4;
  p.total_rows = 4e4;
  p.object_target = 30;
  p.trace_seed = seed;
  p.trace.query_count = 1200;
  p.trace.update_count = 1200;
  p.trace.postwarmup_query_gb = 0.05;
  p.trace.mean_postwarmup_update_mb = 0.02;
  p.trace.hotspot_max_object_gb = 0.01;
  p.benefit_window = 500;
  return p;
}

/// Objects cheap enough that VCover actually loads a working set — the
/// config whose crash produces a cold-miss burst worth measuring.
SetupParams loading_params(std::uint64_t seed = 11) {
  SetupParams p = crash_params(seed);
  p.total_rows = 400;
  return p;
}

EventEngineOptions chaos_base(double rate) {
  EventEngineOptions options;
  options.default_link = net::LinkModel{12.5e6, 0.040};  // 100 Mbit/s, 40 ms
  options.open_loop.enabled = true;
  options.open_loop.rate_per_sec = rate;
  options.open_loop.max_in_flight = 64;
  options.protocol.enabled = true;
  options.admission.enabled = true;
  return options;
}

void add_crash(EventEngineOptions& options, const std::string& endpoint,
               double down, double heal) {
  options.fault_plan.enabled = true;
  options.fault_plan.crashes.push_back(
      net::CrashSchedule{endpoint, {net::FaultWindow{down, heal}}});
}

void expect_runs_identical(const EventRunResult& a, const EventRunResult& b) {
  EXPECT_EQ(a.replay.combined.queries, b.replay.combined.queries);
  EXPECT_EQ(a.replay.combined.total_traffic, b.replay.combined.total_traffic);
  EXPECT_EQ(a.replay.combined.overhead_traffic,
            b.replay.combined.overhead_traffic);
  const util::StreamingStats& a_latency = a.replay.combined.postwarmup_latency;
  const util::StreamingStats& b_latency = b.replay.combined.postwarmup_latency;
  EXPECT_EQ(a_latency.count(), b_latency.count());
  EXPECT_EQ(a_latency.mean(), b_latency.mean());
  EXPECT_EQ(a_latency.max(), b_latency.max());
  EXPECT_EQ(a.response_p99(), b.response_p99());
  EXPECT_EQ(a.staleness_seconds.count(), b.staleness_seconds.count());
  EXPECT_EQ(a.staleness_seconds.mean(), b.staleness_seconds.mean());
  EXPECT_EQ(a.sim_duration_seconds, b.sim_duration_seconds);
  EXPECT_EQ(a.delivered_messages, b.delivered_messages);
  EXPECT_EQ(a.notice_messages, b.notice_messages);
  EXPECT_EQ(a.chaos, b.chaos);
}

void expect_books_balanced(const EventRunResult& r, std::size_t queries) {
  EXPECT_EQ(r.replay.combined.queries, static_cast<std::int64_t>(queries));
  for (const auto& e : r.per_endpoint) {
    EXPECT_EQ(e.protocol.notices_applied, e.notices_logged);
  }
  EXPECT_EQ(r.chaos.notices_applied, r.chaos.notices_logged);
}

// The zero-fault contract extends to crash schedules: a plan naming an
// endpoint but scheduling no windows never arms the fault layer, so the
// run is byte-identical to one that never saw a plan and every crash
// yardstick reads zero.
TEST(CrashRestartTest, ZeroCrashPlanIsByteIdentical) {
  const World setup{crash_params()};
  const auto run = [&](bool install_empty_schedule) {
    EventEngineOptions options;  // zero-latency closed loop, protocol off
    if (install_empty_schedule) {
      options.fault_plan.enabled = true;
      options.fault_plan.crashes.push_back(
          net::CrashSchedule{"cache-0", {}});
    }
    return run_one_event(PolicyKind::kVCover, setup.trace(),
                         setup.cache_capacity(), setup.params(), 2,
                         workload::SplitStrategy::kRoundRobin, options);
  };
  const EventRunResult baseline = run(false);
  const EventRunResult planned = run(true);
  expect_runs_identical(planned, baseline);
  EXPECT_EQ(planned.chaos, ChaosYardsticks{});
}

// The tentpole, cache side: cache-0 dies for 10% of the run and restarts
// cold. The crash kills its in-flight requests (accounted failed, never
// leaked), the transport eats everything to/from it while down, and the
// heal-time recovery — re-register + ledger replay under a fresh epoch —
// balances the notice books exactly.
TEST(CrashRestartTest, CacheCrashRestartConvergesAndReplaysMissedNotices) {
  const World setup{crash_params()};
  const double rate = 200.0;
  const double duration =
      static_cast<double>(setup.trace().order.size()) / rate;
  EventEngineOptions options = chaos_base(rate);
  options.open_loop.max_in_flight = 4096;
  add_crash(options, "cache-0", 0.40 * duration, 0.50 * duration);
  const EventRunResult r = run_one_event(
      PolicyKind::kReplica, setup.trace(), setup.cache_capacity(),
      setup.params(), 2, workload::SplitStrategy::kRoundRobin, options);

  EXPECT_EQ(r.chaos.crash_restarts, 1);
  EXPECT_GT(r.chaos.crash_dropped, 0);
  EXPECT_GT(r.chaos.crash_downtime_seconds, 0.0);
  // Recovery launched at the heal instant and completed: the reconvergence
  // clock ran for at least the recover round trip.
  EXPECT_GE(r.chaos.resyncs, 1);
  EXPECT_GT(r.chaos.max_reconvergence_seconds, 0.0);
  EXPECT_GT(r.chaos.replayed_notices, 0);
  expect_books_balanced(r, setup.trace().queries.size());
}

// Cold-cache reconvergence: a VCover cache with a loaded working set dies
// mid-run. The restarted process re-warms by re-loading on demand — the
// cold-miss burst — and the books still balance.
TEST(CrashRestartTest, CacheCrashColdRestartReloadsWorkingSet) {
  const World setup{loading_params()};
  const double rate = 200.0;
  const double duration =
      static_cast<double>(setup.trace().order.size()) / rate;
  EventEngineOptions options = chaos_base(rate);
  options.open_loop.max_in_flight = 4096;
  add_crash(options, "cache-0", 0.40 * duration, 0.50 * duration);
  const EventRunResult r = run_one_event(
      PolicyKind::kVCover, setup.trace(), setup.cache_capacity(),
      setup.params(), 2, workload::SplitStrategy::kRoundRobin, options);

  EXPECT_EQ(r.chaos.crash_restarts, 1);
  EXPECT_GT(r.chaos.cold_misses, 0);
  EXPECT_GT(r.chaos.max_reconvergence_seconds, 0.0);
  expect_books_balanced(r, setup.trace().queries.size());
}

// The crashed VCover replay pinned to recorded figures. A crash wipes the
// UpdateManager, which releases its update vertices in object-id order;
// that order fixes the solver node indices every post-crash vertex gets.
// Updates here outweigh queries, so both crashed caches still hold
// materialized update groups when they die. Cross-thread-count identity
// cannot see a change that shifts every thread count alike, so the replay
// is held to a fingerprint at T = 1 and T = 4.
TEST(CrashRestartTest, VCoverCacheCrashReplayIsPinned) {
  SetupParams p = loading_params();
  p.trace.postwarmup_query_gb = 2.0;
  p.trace.mean_postwarmup_update_mb = 10.0;
  const World setup{p};
  const double rate = 200.0;
  const double duration =
      static_cast<double>(setup.trace().order.size()) / rate;
  for (const std::size_t threads : {1u, 4u}) {
    SCOPED_TRACE(::testing::Message() << "T=" << threads);
    EventEngineOptions options = chaos_base(rate);
    options.open_loop.max_in_flight = 4096;
    add_crash(options, "cache-0", 0.40 * duration, 0.50 * duration);
    add_crash(options, "cache-2", 0.60 * duration, 0.65 * duration);
    options.parallel.num_threads = threads;
    const EventRunResult r = run_one_event(
        PolicyKind::kVCover, setup.trace(), setup.cache_capacity(),
        setup.params(), 4, workload::SplitStrategy::kHashByRegion, options);
    EXPECT_EQ(delta::testing::replay_fingerprint(r.replay),
              5953162383650272337ULL);
    EXPECT_EQ(r.chaos.crash_restarts, 2);
    EXPECT_EQ(r.chaos.cold_misses, 3);
    EXPECT_EQ(r.delivered_messages, 6312);
    EXPECT_EQ(r.notice_messages, 1225);
    EXPECT_EQ(r.response_p99(), 4.110942568877257);
    EXPECT_EQ(r.staleness_seconds.sum(), 31486.970778765044);
    expect_books_balanced(r, setup.trace().queries.size());
  }
}

// The tentpole, server side: the repository process dies for 10% of the
// run. Its registration rows, dedup windows, and notice ledgers are gone;
// caches detect the restart from the incarnation stamp on the first
// post-heal reply (the suspicion probe guarantees such a reply exists) and
// rebuild their registrations with kRecoverRequest. The epoch-based ledger
// accounting keeps logged == applied through the wipe.
TEST(CrashRestartTest, ServerCrashRestartReregistersAndConverges) {
  const World setup{loading_params()};
  const double rate = 200.0;
  const double duration =
      static_cast<double>(setup.trace().order.size()) / rate;
  EventEngineOptions options = chaos_base(rate);
  options.open_loop.max_in_flight = 4096;
  add_crash(options, "server", 0.45 * duration, 0.55 * duration);
  const EventRunResult r = run_one_event(
      PolicyKind::kVCover, setup.trace(), setup.cache_capacity(),
      setup.params(), 2, workload::SplitStrategy::kRoundRobin, options);

  EXPECT_EQ(r.chaos.crash_restarts, 1);  // the server, counted once
  EXPECT_GT(r.chaos.crash_dropped, 0);
  EXPECT_GT(r.chaos.timeouts, 0);
  // Every cache detected the new incarnation and ran a recovery resync.
  EXPECT_GE(r.chaos.resyncs, 2);
  EXPECT_GT(r.chaos.max_reconvergence_seconds, 0.0);
  expect_books_balanced(r, setup.trace().queries.size());
}

// Determinism under crashes: both crash sides are pure functions of the
// plan (static windows, timing-only checks), so a crashed run reproduces
// the sequential run bit-for-bit at any thread count.
TEST(CrashRestartTest, CrashRunsBitIdenticalAcrossThreadCounts) {
  const World setup{loading_params()};
  const double rate = 500.0;
  const double duration =
      static_cast<double>(setup.trace().order.size()) / rate;
  const auto run = [&](bool server_crash, std::size_t threads) {
    EventEngineOptions options = chaos_base(rate);
    if (server_crash) {
      add_crash(options, "server", 0.45 * duration, 0.55 * duration);
    } else {
      add_crash(options, "cache-0", 0.30 * duration, 0.40 * duration);
      add_crash(options, "cache-2", 0.55 * duration, 0.65 * duration);
    }
    options.parallel.num_threads = threads;
    return run_one_event(PolicyKind::kVCover, setup.trace(),
                         setup.cache_capacity(), setup.params(), 4,
                         workload::SplitStrategy::kHashByRegion, options);
  };
  for (const bool server_crash : {false, true}) {
    SCOPED_TRACE(::testing::Message()
                 << (server_crash ? "server crash" : "cache crashes"));
    const EventRunResult sequential = run(server_crash, 1);
    EXPECT_GT(sequential.chaos.crash_restarts, 0);
    EXPECT_GT(sequential.chaos.crash_dropped, 0);
    for (const std::size_t threads : {2u, 4u, 8u}) {
      SCOPED_TRACE(::testing::Message() << "T=" << threads);
      expect_runs_identical(run(server_crash, threads), sequential);
    }
  }
}

// Satellite 1: crash-windowed replicas conservatively take the unfiltered
// update path, and the mixed run (cache-0 crashes, cache-1 still
// prefilters) is bit-identical to the fully unfiltered replay.
TEST(CrashRestartTest, PrefilterEquivalenceUnderCrashPlan) {
  const World setup{loading_params()};
  const double rate = 500.0;
  const double duration =
      static_cast<double>(setup.trace().order.size()) / rate;
  const auto run = [&](bool prefilter) {
    EventEngineOptions options = chaos_base(rate);
    add_crash(options, "cache-0", 0.40 * duration, 0.50 * duration);
    options.prefilter_updates = prefilter;
    // Region split: each replica's touch set is a strict subset of the
    // object space, so the surviving replicas have updates to skip.
    return run_one_event(PolicyKind::kVCover, setup.trace(),
                         setup.cache_capacity(), setup.params(), 4,
                         workload::SplitStrategy::kHashByRegion, options);
  };
  const EventRunResult filtered = run(true);
  const EventRunResult full = run(false);
  // The crash-free replica still prefilters; the crashed one stands down.
  EXPECT_GT(filtered.prefiltered_updates, 0);
  EXPECT_EQ(full.prefiltered_updates, 0);
  expect_runs_identical(filtered, full);
}

// Satellite 2: a hard partition that outlasts the whole retry ladder. Data
// requests exhaust their budget and fail, but kLoadData keeps retrying
// past it (budget_exceeded_retries counts those) — so once the link heals,
// the stranded loads complete and the heal resync balances the books.
TEST(CrashRestartTest, RetryPastBudgetOutlastsPartitionAndConverges) {
  const World setup{loading_params()};
  const double rate = 200.0;
  const double duration =
      static_cast<double>(setup.trace().order.size()) / rate;
  EventEngineOptions options = chaos_base(rate);
  options.open_loop.max_in_flight = 4096;
  options.fault_plan.enabled = true;
  for (int i = 0; i < 2; ++i) {
    options.fault_plan.partitions.push_back(net::LinkPartition{
        "server", "cache-" + std::to_string(i), /*duplex=*/true,
        {net::FaultWindow{0.30 * duration, 0.75 * duration}}});
  }
  const EventRunResult r = run_one_event(
      PolicyKind::kVCover, setup.trace(), setup.cache_capacity(),
      setup.params(), 2, workload::SplitStrategy::kRoundRobin, options);

  EXPECT_GT(r.chaos.failed_requests, 0);
  EXPECT_GT(r.chaos.budget_exceeded_retries, 0);
  EXPECT_EQ(r.chaos.crash_restarts, 0);  // a partition, not a crash
  expect_books_balanced(r, setup.trace().queries.size());
}

// Satellite 3: a crash window shorter than the round trip. Replies to
// requests the dead process sent are still in flight across the restart;
// they land at the restarted cache, whose pending table no longer knows
// their correlation ids — counted late, dropped, never applied.
TEST(CrashRestartTest, LateReplyAfterRestartIsDroppedNotApplied) {
  const World setup{loading_params()};
  const double rate = 500.0;
  const double duration =
      static_cast<double>(setup.trace().order.size()) / rate;
  EventEngineOptions options = chaos_base(rate);
  // 40 ms each way -> 80+ ms round trip; the 50 ms outage fits inside it.
  const double down = 0.50 * duration;
  add_crash(options, "cache-0", down, down + 0.050);
  add_crash(options, "cache-1", down, down + 0.050);
  const EventRunResult r = run_one_event(
      PolicyKind::kVCover, setup.trace(), setup.cache_capacity(),
      setup.params(), 2, workload::SplitStrategy::kRoundRobin, options);

  EXPECT_EQ(r.chaos.crash_restarts, 2);
  EXPECT_GT(r.chaos.late_replies, 0);
  expect_books_balanced(r, setup.trace().queries.size());
}

}  // namespace
}  // namespace delta::sim
