// The single-cache loop's lookahead prefetch (sim/replica.h) turns on only
// for repositories of at least kLookaheadMinObjects objects, a size no
// golden table reaches. This suite replays a YCSB-B world twice that size,
// where the loop prefetches every event's rows, and holds it to two
// references:
//
//  * the event engine at N = 1 over zero-latency links, which replays the
//    same decisions and never prefetches: every policy's counters and
//    traffic totals must match, compared field by field like the golden
//    rows;
//  * a VCover fingerprint (counters, traffic, every series point and the
//    latency moments) recorded before the lookahead existed.
//
// A prefetch reads no value and writes no state, so neither may move.
#include <gtest/gtest.h>

#include <cstdint>

#include "result_identity.h"
#include "sim/experiment.h"
#include "sim/replica.h"
#include "workload/synthetic_trace.h"

namespace delta::sim {
namespace {

using delta::testing::Fnv1a;

constexpr PolicyKind kAllKinds[] = {PolicyKind::kNoCache,
                                    PolicyKind::kReplica,
                                    PolicyKind::kBenefit, PolicyKind::kVCover,
                                    PolicyKind::kSOptimal};

/// The world's object count: fixed, so the pinned fingerprint does not
/// depend on the gate, and at least twice the gate.
constexpr std::int64_t kObjects = std::int64_t{1} << 18;
static_assert(kObjects >=
              2 * static_cast<std::int64_t>(kLookaheadMinObjects));

/// YCSB-B over kObjects objects, ~40k events, and a cache of 30% of the
/// repository.
struct LargeWorld {
  workload::Trace trace;
  Bytes capacity;
  SetupParams params;

  LargeWorld() {
    trace = workload::SyntheticTraceGenerator{
        workload::ycsb_params(workload::YcsbMix::kB, kObjects, 40'000)}
                .generate(/*seed=*/7);
    Bytes server;
    for (const Bytes b : trace.initial_object_bytes) server += b;
    capacity = Bytes{static_cast<std::int64_t>(server.as_double() * 0.30)};
    params.benefit_window = 5'000;
  }
};

const LargeWorld& world() {
  static const LargeWorld w;
  return w;
}

/// The fields a golden row pins: counters and traffic totals.
void expect_same_rows(const RunResult& a, const RunResult& b) {
  EXPECT_EQ(a.policy_name, b.policy_name);
  EXPECT_EQ(a.queries, b.queries);
  EXPECT_EQ(a.cache_fresh, b.cache_fresh);
  EXPECT_EQ(a.cache_after_updates, b.cache_after_updates);
  EXPECT_EQ(a.shipped, b.shipped);
  EXPECT_EQ(a.objects_loaded, b.objects_loaded);
  EXPECT_EQ(a.total_traffic, b.total_traffic);
  EXPECT_EQ(a.postwarmup_traffic, b.postwarmup_traffic);
  for (std::size_t m = 0; m < 3; ++m) {
    EXPECT_EQ(a.postwarmup_by_mechanism[m], b.postwarmup_by_mechanism[m])
        << "mechanism " << m;
  }
  EXPECT_EQ(a.overhead_traffic, b.overhead_traffic);
}

/// Hash of a run: the row fields, every series point and the post-warm-up
/// latency moments.
std::uint64_t run_fingerprint(const RunResult& r) {
  Fnv1a h;
  h.add(r.queries);
  h.add(r.cache_fresh);
  h.add(r.cache_after_updates);
  h.add(r.shipped);
  h.add(r.objects_loaded);
  h.add(r.total_traffic.count());
  h.add(r.postwarmup_traffic.count());
  for (const Bytes b : r.postwarmup_by_mechanism) h.add(b.count());
  h.add(r.overhead_traffic.count());
  h.add(static_cast<std::uint64_t>(r.series.points().size()));
  for (const util::CumulativeSeries::Point& p : r.series.points()) {
    h.add(p.event_index);
    h.add(p.value);
  }
  h.add(r.postwarmup_latency.count());
  h.add(r.postwarmup_latency.mean());
  h.add(r.postwarmup_latency.variance());
  h.add(r.postwarmup_latency.min());
  h.add(r.postwarmup_latency.max());
  h.add(r.postwarmup_latency.sum());
  return h.value();
}

TEST(SimLookaheadTest, WorldIsAboveTheGate) {
  EXPECT_EQ(world().trace.initial_object_bytes.size(),
            static_cast<std::size_t>(kObjects));
  EXPECT_GE(world().trace.order.size(), 39'000u);
}

TEST(SimLookaheadTest, RunOneMatchesEventEngineForEveryPolicy) {
  const LargeWorld& w = world();
  for (const PolicyKind kind : kAllKinds) {
    SCOPED_TRACE(to_string(kind));
    const RunResult sync = run_one(kind, w.trace, w.capacity, w.params);
    const EventRunResult event =
        run_one_event(kind, w.trace, w.capacity, w.params, 1,
                      workload::SplitStrategy::kRoundRobin);
    expect_same_rows(sync, event.replay.combined);
    // VCover takes the fresh, shipped and loading paths, so each reads
    // rows the lookahead prefetched.
    if (kind == PolicyKind::kVCover) {
      EXPECT_GT(sync.objects_loaded, 0);
      EXPECT_GT(sync.cache_fresh, 0);
      EXPECT_GT(sync.shipped, 0);
    }
  }
}

// Recorded with the loop as it was before the lookahead was added.
constexpr std::uint64_t kVCoverFingerprint = 1573534694302236315ULL;

TEST(SimLookaheadTest, VCoverMatchesFingerprintFromBeforeTheLookahead) {
  const LargeWorld& w = world();
  const RunResult r = run_one(PolicyKind::kVCover, w.trace, w.capacity,
                              w.params);
  EXPECT_EQ(run_fingerprint(r), kVCoverFingerprint);
}

}  // namespace
}  // namespace delta::sim
