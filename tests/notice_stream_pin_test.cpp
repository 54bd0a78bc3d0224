// Pinned figures for the batched notice stream: runs in which congestion
// batching merges invalidation notices, piggybacks them on replies, and a
// resync replays them. Thread-count identity cannot see a change that
// shifts every thread count alike, so each run is held to recorded figures
// at T = 1 and T = 4: the replay fingerprint, the message and notice
// counts, the protocol's replay/dedup counters and the staleness
// yardsticks that date every notice from its ingest stamp.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "net/fault_plan.h"
#include "result_identity.h"
#include "sim/event_engine.h"
#include "sim/experiment.h"
#include "workload/trace_split.h"

namespace delta::sim {
namespace {

using World = Setup;  // ::testing::Test::Setup shadows sim::Setup in TESTs

/// chaos_open_loop's world at test scale: MB-scale objects and results,
/// so the 100 Mbit links carry the load and batching engages only while a
/// link is actually busy.
SetupParams pin_params() {
  SetupParams p;
  p.base_level = 4;
  p.total_rows = 4e4;
  p.object_target = 30;
  p.trace_seed = 11;
  p.trace.query_count = 1200;
  p.trace.update_count = 1200;
  p.trace.postwarmup_query_gb = 0.05;
  p.trace.mean_postwarmup_update_mb = 0.02;
  p.trace.hotspot_max_object_gb = 0.01;
  p.benefit_window = 500;
  return p;
}

/// Open loop over 100 Mbit/40 ms links with batching gated at any backlog.
EventEngineOptions batching_base(double rate) {
  EventEngineOptions options;
  options.default_link = net::LinkModel{12.5e6, 0.040};
  options.open_loop.enabled = true;
  options.open_loop.arrival = workload::ArrivalProcess::Kind::kPoisson;
  options.open_loop.rate_per_sec = rate;
  options.open_loop.max_in_flight = 64;
  options.notice_batching.enabled = true;
  options.notice_batching.backlog_threshold_seconds = 0.0;
  return options;
}

void add_crash(EventEngineOptions& options, const std::string& endpoint,
               double down, double heal) {
  options.fault_plan.enabled = true;
  options.fault_plan.crashes.push_back(
      net::CrashSchedule{endpoint, {net::FaultWindow{down, heal}}});
}

/// The figures each run is pinned to.
struct NoticePin {
  std::uint64_t fingerprint = 0;
  std::int64_t delivered_messages = 0;
  std::int64_t notice_messages = 0;
  std::int64_t coalesced_notices = 0;
  std::int64_t replayed_notices = 0;
  std::int64_t duplicate_notices_suppressed = 0;
  double staleness_sum = 0.0;
  double max_recovery_staleness_seconds = 0.0;
};

void expect_pinned(const EventRunResult& r, const NoticePin& pin) {
  EXPECT_EQ(delta::testing::replay_fingerprint(r.replay), pin.fingerprint);
  EXPECT_EQ(r.delivered_messages, pin.delivered_messages);
  EXPECT_EQ(r.notice_messages, pin.notice_messages);
  EXPECT_EQ(r.coalesced_notices, pin.coalesced_notices);
  EXPECT_EQ(r.chaos.replayed_notices, pin.replayed_notices);
  EXPECT_EQ(r.chaos.duplicate_notices_suppressed,
            pin.duplicate_notices_suppressed);
  EXPECT_EQ(r.staleness_seconds.sum(), pin.staleness_sum);
  EXPECT_EQ(r.chaos.max_recovery_staleness_seconds,
            pin.max_recovery_staleness_seconds);
}

/// Runs `policy` over `endpoints` caches at T = 1 and T = 4 and checks
/// each run against `pin` and `extra`.
template <typename Check>
void expect_pinned_at_1_and_4(PolicyKind policy, const World& setup,
                              std::size_t endpoints,
                              workload::SplitStrategy strategy,
                              EventEngineOptions options,
                              const NoticePin& pin, Check extra) {
  for (const std::size_t threads : {1u, 4u}) {
    SCOPED_TRACE(::testing::Message() << "T=" << threads);
    options.parallel.num_threads = threads;
    const EventRunResult r =
        run_one_event(policy, setup.trace(), setup.cache_capacity(),
                      setup.params(), endpoints, strategy, options);
    expect_pinned(r, pin);
    extra(r);
  }
}

// chaos_open_loop's shape at test scale: Benefit writes beside reads, the
// hardened protocol with admission, notice batching, 2% duplicated
// messages on every link, and both caches crash-stopping once. Batching
// merges and piggybacks notices; each cache's recovery replays the
// notices it missed while down.
TEST(NoticeStreamPinTest, BenefitOpenLoopChaosWithBatchingIsPinned) {
  const World setup{pin_params()};
  const double rate = 100.0;
  const double nominal =
      static_cast<double>(setup.trace().order.size()) / rate;
  EventEngineOptions options = batching_base(rate);
  options.open_loop.seed = net::fault_mix64(1 ^ 0x0A11);
  options.protocol.enabled = true;
  options.admission.enabled = true;
  options.fault_plan.enabled = true;
  options.fault_plan.seed = net::fault_mix64(1);
  options.fault_plan.default_faults.duplicate = 0.02;
  add_crash(options, "cache-0", 0.30 * nominal, 0.40 * nominal);
  add_crash(options, "cache-1", 0.50 * nominal, 0.60 * nominal);
  expect_pinned_at_1_and_4(
      PolicyKind::kBenefit, setup, 2, workload::SplitStrategy::kRoundRobin,
      options,
      NoticePin{128716398042340984ULL, 4497, 2309, 91, 1854, 1678,
                48.433023898535161, 2.267205029835762},
      [&](const EventRunResult& r) {
        EXPECT_GT(r.coalesced_notices, 0);
        EXPECT_GT(r.chaos.replayed_notices, 0);
        EXPECT_EQ(r.chaos.crash_restarts, 2);
        EXPECT_EQ(r.chaos.notices_applied, r.chaos.notices_logged);
      });
}

// A server crash with batching on: the restarted server's ledger is read
// from a fresh base, and each cache's kRecoverRequest carries its resident
// set and is answered with the replay of the new incarnation's notices.
TEST(NoticeStreamPinTest, ServerCrashWithBatchingIsPinned) {
  const World setup{pin_params()};
  const double rate = 200.0;
  const double nominal =
      static_cast<double>(setup.trace().order.size()) / rate;
  EventEngineOptions options = batching_base(rate);
  options.open_loop.max_in_flight = 4096;
  options.protocol.enabled = true;
  options.admission.enabled = true;
  add_crash(options, "server", 0.45 * nominal, 0.55 * nominal);
  expect_pinned_at_1_and_4(
      PolicyKind::kBenefit, setup, 2, workload::SplitStrategy::kRoundRobin,
      options,
      NoticePin{12743703288599585325ULL, 4456, 1550, 820, 706, 706,
                430.00584682715464, 0.0},
      [&](const EventRunResult& r) {
        EXPECT_GT(r.coalesced_notices, 0);
        EXPECT_GT(r.chaos.replayed_notices, 0);
        EXPECT_EQ(r.chaos.crash_restarts, 1);
        EXPECT_EQ(r.chaos.notices_applied, r.chaos.notices_logged);
      });
}

// Batching with the protocol off: notices carry no ingest stamps, so the
// staleness observer dates every merged or piggybacked notice from its
// carrier's send instant.
TEST(NoticeStreamPinTest, BatchingWithoutProtocolIsPinned) {
  const World setup{pin_params()};
  EventEngineOptions options = batching_base(100.0);
  expect_pinned_at_1_and_4(
      PolicyKind::kBenefit, setup, 2, workload::SplitStrategy::kRoundRobin,
      options,
      NoticePin{3146103549763707180ULL, 4674, 2392, 8, 0, 0,
                30.085372312814123, 0.0},
      [&](const EventRunResult& r) {
        EXPECT_GT(r.coalesced_notices, 0);
        EXPECT_EQ(r.chaos, ChaosYardsticks{});
      });
}

}  // namespace
}  // namespace delta::sim
