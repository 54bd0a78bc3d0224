// Golden regression test: the full simulation output for a fixed-seed trace
// is pinned, per policy, so a refactor anywhere in the stack (htm → workload
// → cache → core → sim) cannot silently change simulation results. All
// randomness flows through util::Rng (xoshiro256**), so these numbers are
// stable across platforms and standard libraries.
//
// The parallel engine must reproduce the same goldens for every thread
// count — that is asserted here too, not just sequential-vs-parallel
// equality, so a bug that shifted BOTH engines the same way still trips.
//
// The trace itself is pinned too, by a fingerprint over every query,
// update and object size: a geometry change (htm cover/locate, storage row
// estimates) fails at the trace, not only through the policy outcomes.
//
// To regenerate after an *intentional* behavior change, run
//   ./build/tests/sim_golden_test
//       --gtest_also_run_disabled_tests --gtest_filter='*PrintGoldenTables*'
// (one command line) and paste the printed rows and fingerprint below.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <iostream>
#include <string>

#include "result_identity.h"
#include "sim/experiment.h"
#include "sim/multi_cache.h"
#include "workload/trace_split.h"

namespace delta::sim {
namespace {

using World = Setup;  // ::testing::Test::Setup shadows sim::Setup in TESTs
using delta::testing::Fnv1a;
using delta::testing::replay_fingerprint;

/// The pinned world: small enough to replay five policies in seconds, big
/// enough that every mechanism (shipping, update pull, loading, eviction)
/// fires for every policy.
SetupParams golden_params() {
  SetupParams p;
  p.base_level = 4;
  p.total_rows = 4e7;
  p.object_target = 30;
  p.trace_seed = 2718;
  p.trace.query_count = 2000;
  p.trace.update_count = 2000;
  p.trace.postwarmup_query_gb = 8.0;
  p.trace.mean_postwarmup_update_mb = 2.0;
  p.trace.hotspot_max_object_gb = 1.0;
  p.benefit_window = 500;
  return p;
}

constexpr PolicyKind kAllKinds[] = {PolicyKind::kNoCache,
                                    PolicyKind::kReplica,
                                    PolicyKind::kBenefit, PolicyKind::kVCover,
                                    PolicyKind::kSOptimal};

struct GoldenRun {
  const char* policy;
  std::int64_t queries;
  std::int64_t cache_fresh;
  std::int64_t cache_after_updates;
  std::int64_t shipped;
  std::int64_t objects_loaded;
  std::int64_t total_traffic;
  std::int64_t postwarmup_traffic;
  std::int64_t by_query_ship;
  std::int64_t by_update_ship;
  std::int64_t by_object_load;
  std::int64_t overhead;
};

void expect_matches(const RunResult& r, const GoldenRun& g) {
  SCOPED_TRACE(g.policy);
  EXPECT_EQ(r.policy_name, g.policy);
  EXPECT_EQ(r.queries, g.queries);
  EXPECT_EQ(r.cache_fresh, g.cache_fresh);
  EXPECT_EQ(r.cache_after_updates, g.cache_after_updates);
  EXPECT_EQ(r.shipped, g.shipped);
  EXPECT_EQ(r.objects_loaded, g.objects_loaded);
  EXPECT_EQ(r.total_traffic.count(), g.total_traffic);
  EXPECT_EQ(r.postwarmup_traffic.count(), g.postwarmup_traffic);
  EXPECT_EQ(r.postwarmup_by_mechanism[0].count(), g.by_query_ship);
  EXPECT_EQ(r.postwarmup_by_mechanism[1].count(), g.by_update_ship);
  EXPECT_EQ(r.postwarmup_by_mechanism[2].count(), g.by_object_load);
  EXPECT_EQ(r.overhead_traffic.count(), g.overhead);
}

void print_row(const RunResult& r) {
  std::cout << "    {\"" << r.policy_name << "\", " << r.queries << ", "
            << r.cache_fresh << ", " << r.cache_after_updates << ", "
            << r.shipped << ", " << r.objects_loaded << ", "
            << r.total_traffic.count() << ", " << r.postwarmup_traffic.count()
            << ", " << r.postwarmup_by_mechanism[0].count() << ", "
            << r.postwarmup_by_mechanism[1].count() << ", "
            << r.postwarmup_by_mechanism[2].count() << ", "
            << r.overhead_traffic.count() << "},\n";
}

/// Hash of everything the generator derives from the sky geometry: per
/// query its cost, time, tolerance, base cover and objects; per update its
/// cost, rows, object and base index; and the initial object sizes.
std::uint64_t trace_fingerprint(const workload::Trace& trace) {
  Fnv1a h;
  h.add(static_cast<std::uint64_t>(trace.queries.size()));
  for (const workload::Query& q : trace.queries) {
    h.add(q.cost.count());
    h.add(q.time);
    h.add(q.staleness_tolerance);
    h.add(static_cast<std::uint64_t>(q.base_cover.size()));
    for (const std::int32_t idx : q.base_cover) h.add(idx);
    h.add(static_cast<std::uint64_t>(q.objects.size()));
    for (const ObjectId o : q.objects) h.add(o.value());
  }
  h.add(static_cast<std::uint64_t>(trace.updates.size()));
  for (const workload::Update& u : trace.updates) {
    h.add(u.cost.count());
    h.add(u.rows);
    h.add(u.object.value());
    h.add(u.base_index);
  }
  h.add(static_cast<std::uint64_t>(trace.initial_object_bytes.size()));
  for (const Bytes b : trace.initial_object_bytes) h.add(b.count());
  return h.value();
}

// ----------------------------------------------------------- golden tables

constexpr std::uint64_t kGoldenTraceFingerprint = 5493162802899240070ULL;

// Single-cache run_one over the golden trace, one row per policy.
constexpr GoldenRun kSingleCacheGolden[] = {
    {"NoCache", 2000, 0, 0, 2000, 0, 14635445515, 7999999508, 7999999508, 0, 0, 256000},
    {"Replica", 2000, 2000, 0, 0, 0, 3544553626, 2723999319, 0, 2723999319, 0, 384000},
    {"Benefit", 2000, 286, 0, 1714, 0, 14878100589, 7634332058, 7633086983, 1245075, 0, 347904},
    {"VCover", 2000, 1328, 2, 670, 3, 7707438424, 1238688276, 1218079838, 20608438, 0, 93824},
    {"SOptimal", 2000, 1854, 0, 146, 0, 4874712980, 1256046449, 1208306382, 47740067, 0, 39616},
};

// Multi-endpoint run_one_multi (N=4) combined + per-endpoint rows, one
// table per policy and split strategy, each with its replay fingerprint.
// The same tables must hold for every thread count.
struct GoldenMulti {
  PolicyKind kind;
  workload::SplitStrategy strategy;
  GoldenRun combined;
  std::array<GoldenRun, 4> per_endpoint;
  std::uint64_t fingerprint;
};

const GoldenMulti kMultiGolden[] = {
    {PolicyKind::kNoCache, workload::SplitStrategy::kRoundRobin,
     {"NoCache", 2000, 0, 0, 2000, 0, 14635445515, 7999999508, 7999999508, 0, 0, 256000},
     {{
         {"NoCache", 500, 0, 0, 500, 0, 3926449577, 2069765300, 2069765300, 0, 0, 32000},
         {"NoCache", 500, 0, 0, 500, 0, 3553226289, 1959765810, 1959765810, 0, 0, 32000},
         {"NoCache", 500, 0, 0, 500, 0, 3613683142, 1886325340, 1886325340, 0, 0, 32000},
         {"NoCache", 500, 0, 0, 500, 0, 3542086507, 2084143058, 2084143058, 0, 0, 32000},
     }},
     7059565256659365152ULL},
    {PolicyKind::kNoCache, workload::SplitStrategy::kHashByRegion,
     {"NoCache", 2000, 0, 0, 2000, 0, 14635445515, 7999999508, 7999999508, 0, 0, 256000},
     {{
         {"NoCache", 315, 0, 0, 315, 0, 875668499, 534687299, 534687299, 0, 0, 20160},
         {"NoCache", 20, 0, 0, 20, 0, 7947222, 3399751, 3399751, 0, 0, 1280},
         {"NoCache", 1097, 0, 0, 1097, 0, 4377696895, 2341456243, 2341456243, 0, 0, 70208},
         {"NoCache", 568, 0, 0, 568, 0, 9374132899, 5120456215, 5120456215, 0, 0, 36352},
     }},
     13913052860359995444ULL},
    {PolicyKind::kReplica, workload::SplitStrategy::kRoundRobin,
     {"Replica", 2000, 2000, 0, 0, 0, 14178214504, 10895997276, 0, 10895997276, 0, 1536000},
     {{
         {"Replica", 500, 500, 0, 0, 0, 3544553626, 2723999319, 0, 2723999319, 0, 256000},
         {"Replica", 500, 500, 0, 0, 0, 3544553626, 2723999319, 0, 2723999319, 0, 256000},
         {"Replica", 500, 500, 0, 0, 0, 3544553626, 2723999319, 0, 2723999319, 0, 256000},
         {"Replica", 500, 500, 0, 0, 0, 3544553626, 2723999319, 0, 2723999319, 0, 256000},
     }},
     1784750031407909297ULL},
    {PolicyKind::kReplica, workload::SplitStrategy::kHashByRegion,
     {"Replica", 2000, 2000, 0, 0, 0, 14178214504, 10895997276, 0, 10895997276, 0, 1536000},
     {{
         {"Replica", 315, 315, 0, 0, 0, 3544553626, 2723999319, 0, 2723999319, 0, 256000},
         {"Replica", 20, 20, 0, 0, 0, 3544553626, 2723999319, 0, 2723999319, 0, 256000},
         {"Replica", 1097, 1097, 0, 0, 0, 3544553626, 2723999319, 0, 2723999319, 0, 256000},
         {"Replica", 568, 568, 0, 0, 0, 3544553626, 2723999319, 0, 2723999319, 0, 256000},
     }},
     4286437455961006598ULL},
    {PolicyKind::kBenefit, workload::SplitStrategy::kRoundRobin,
     {"Benefit", 2000, 0, 0, 2000, 0, 14635445515, 7999999508, 7999999508, 0, 0, 768000},
     {{
         {"Benefit", 500, 0, 0, 500, 0, 3926449577, 2069765300, 2069765300, 0, 0, 160000},
         {"Benefit", 500, 0, 0, 500, 0, 3553226289, 1959765810, 1959765810, 0, 0, 160000},
         {"Benefit", 500, 0, 0, 500, 0, 3613683142, 1886325340, 1886325340, 0, 0, 160000},
         {"Benefit", 500, 0, 0, 500, 0, 3542086507, 2084143058, 2084143058, 0, 0, 160000},
     }},
     7059565256659365152ULL},
    {PolicyKind::kBenefit, workload::SplitStrategy::kHashByRegion,
     {"Benefit", 2000, 284, 0, 1716, 0, 12093558255, 4528109110, 4526864035, 1245075, 0, 732288},
     {{
         {"Benefit", 315, 0, 0, 315, 0, 875668499, 534687299, 534687299, 0, 0, 148160},
         {"Benefit", 20, 0, 0, 20, 0, 7947222, 3399751, 3399751, 0, 0, 129280},
         {"Benefit", 1097, 0, 0, 1097, 0, 4377696895, 2341456243, 2341456243, 0, 0, 198208},
         {"Benefit", 568, 284, 0, 284, 0, 6832245639, 1648565817, 1647320742, 1245075, 0, 146496},
     }},
     7121637339079090196ULL},
    {PolicyKind::kVCover, workload::SplitStrategy::kRoundRobin,
     {"VCover", 2000, 440, 2, 1558, 8, 18700273193, 11249914867, 5501706060, 354266, 5747854541, 201344},
     {{
         {"VCover", 500, 118, 0, 382, 2, 4923170220, 3066485943, 1422983716, 0, 1643502227, 24704},
         {"VCover", 500, 110, 1, 389, 2, 4575325703, 2981865224, 1338362997, 177133, 1643325094, 25280},
         {"VCover", 500, 95, 0, 405, 2, 4751133805, 3023776003, 1380273776, 0, 1643502227, 26176},
         {"VCover", 500, 117, 1, 382, 2, 4450643465, 2177787697, 1360085571, 177133, 817524993, 24832},
     }},
     16968789730594499583ULL},
    {PolicyKind::kVCover, workload::SplitStrategy::kHashByRegion,
     {"VCover", 2000, 709, 3, 1288, 5, 13030291767, 5573712881, 3028062329, 20785571, 2524864981, 175872},
     {{
         {"VCover", 315, 0, 0, 315, 0, 875668499, 534687299, 534687299, 0, 0, 20160},
         {"VCover", 20, 0, 0, 20, 0, 7947222, 3399751, 3399751, 0, 0, 1280},
         {"VCover", 1097, 366, 2, 729, 2, 5057927325, 2273469278, 1000644002, 20608438, 1252216838, 52736},
         {"VCover", 568, 343, 1, 224, 3, 7088748721, 2762156553, 1489331277, 177133, 1272648143, 17152},
     }},
     15086242892765269627ULL},
    {PolicyKind::kSOptimal, workload::SplitStrategy::kRoundRobin,
     {"SOptimal", 2000, 1488, 0, 512, 0, 13317431299, 2298820468, 2200850184, 97970284, 0, 109056},
     {{
         {"SOptimal", 500, 467, 0, 33, 0, 3663270388, 452654723, 404914656, 47740067, 0, 16000},
         {"SOptimal", 500, 285, 0, 215, 0, 3405706413, 830296919, 829051844, 1245075, 0, 14272},
         {"SOptimal", 500, 461, 0, 39, 0, 3203838813, 207647691, 159907624, 47740067, 0, 16384},
         {"SOptimal", 500, 275, 0, 225, 0, 3044615685, 808221135, 806976060, 1245075, 0, 14912},
     }},
     10910711034465038358ULL},
    {PolicyKind::kSOptimal, workload::SplitStrategy::kHashByRegion,
     {"SOptimal", 2000, 1582, 0, 418, 0, 8290999225, 1591404587, 1495924453, 95480134, 0, 95360},
     {{
         {"SOptimal", 315, 0, 0, 315, 0, 875668499, 534687299, 534687299, 0, 0, 20160},
         {"SOptimal", 20, 0, 0, 20, 0, 7947222, 3399751, 3399751, 0, 0, 1280},
         {"SOptimal", 1097, 1089, 0, 8, 0, 2952530835, 52556737, 4816670, 47740067, 0, 14400},
         {"SOptimal", 568, 493, 0, 75, 0, 4454852669, 1000760800, 953020733, 47740067, 0, 18688},
     }},
     7419243862302488334ULL},
};

// ----------------------------------------------------------------- tests

void expect_matches(const MultiRunResult& multi, const GoldenMulti& golden) {
  SCOPED_TRACE(::testing::Message() << to_string(golden.kind) << " "
                                    << workload::to_string(golden.strategy));
  expect_matches(multi.combined, golden.combined);
  ASSERT_EQ(multi.per_endpoint.size(), golden.per_endpoint.size());
  for (std::size_t e = 0; e < golden.per_endpoint.size(); ++e) {
    expect_matches(multi.per_endpoint[e], golden.per_endpoint[e]);
  }
  EXPECT_EQ(replay_fingerprint(multi), golden.fingerprint);
}

/// The event engine's counters and traffic match the sync goldens, but its
/// simulated response times differ from the sync proxy, so only the
/// GoldenRun rows apply (not the fingerprint).
void expect_rows_match(const MultiRunResult& multi, const GoldenMulti& golden) {
  SCOPED_TRACE(workload::to_string(golden.strategy));
  expect_matches(multi.combined, golden.combined);
  ASSERT_EQ(multi.per_endpoint.size(), golden.per_endpoint.size());
  for (std::size_t e = 0; e < golden.per_endpoint.size(); ++e) {
    expect_matches(multi.per_endpoint[e], golden.per_endpoint[e]);
  }
}

TEST(SimGoldenTest, TraceMatchesGoldenFingerprint) {
  const World setup{golden_params()};
  EXPECT_EQ(trace_fingerprint(setup.trace()), kGoldenTraceFingerprint);
}

TEST(SimGoldenTest, SingleCachePolicyRunsMatchGoldenTable) {
  const World setup{golden_params()};
  for (std::size_t i = 0; i < std::size(kAllKinds); ++i) {
    const RunResult r = run_one(kAllKinds[i], setup.trace(),
                                setup.cache_capacity(), setup.params());
    expect_matches(r, kSingleCacheGolden[i]);
  }
}

TEST(SimGoldenTest, MultiEndpointRunsMatchGoldenTable) {
  const World setup{golden_params()};
  for (const GoldenMulti& golden : kMultiGolden) {
    expect_matches(run_one_multi(golden.kind, setup.trace(),
                                 setup.cache_capacity(), setup.params(), 4,
                                 golden.strategy),
                   golden);
  }
}

// Every thread count reproduces the pinned goldens (not merely "matches
// T=1": if every thread count drifted together, this still fails).
TEST(SimGoldenTest, ParallelEngineReproducesGoldensForEveryThreadCount) {
  const World setup{golden_params()};
  for (const GoldenMulti& golden : kMultiGolden) {
    for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
      SCOPED_TRACE(::testing::Message() << "T=" << threads);
      expect_matches(run_one_multi(golden.kind, setup.trace(),
                                   setup.cache_capacity(), setup.params(), 4,
                                   golden.strategy, PolicyOverrides{}, 2000,
                                   ParallelOptions{threads}),
                     golden);
    }
  }
}

// The event-driven engine over zero-latency links must reproduce the same
// pinned tables byte-for-byte: DelayedTransport delivery degenerates to
// synchronous order when every link is instantaneous, so any divergence
// means the asynchronous protocol changed replay semantics, not just
// timing. Single-cache rows cover all five policies; the multi tables the
// VCover N=4 splits. (At zero latency the simulated response times reduce
// to the execution surcharges and staleness to zero — the WAN behavior is
// covered by event_engine_test.)
TEST(SimGoldenTest, EventEngineAtZeroLatencyMatchesGoldenTables) {
  const World setup{golden_params()};
  for (std::size_t i = 0; i < std::size(kAllKinds); ++i) {
    const EventRunResult r = run_one_event(
        kAllKinds[i], setup.trace(), setup.cache_capacity(), setup.params(),
        1, workload::SplitStrategy::kRoundRobin);
    expect_matches(r.replay.combined, kSingleCacheGolden[i]);
    EXPECT_EQ(r.staleness_seconds.max(), 0.0) << kSingleCacheGolden[i].policy;
  }
  for (const GoldenMulti& golden : kMultiGolden) {
    if (golden.kind != PolicyKind::kVCover) continue;
    const EventRunResult multi = run_one_event(
        PolicyKind::kVCover, setup.trace(), setup.cache_capacity(),
        setup.params(), 4, golden.strategy);
    expect_rows_match(multi.replay, golden);
  }
}

// The parallel per-partition event engine must reproduce the same pinned
// tables for every thread count at zero latency — the partitions replay
// replica worlds whose merge is the sequential stream, so no thread count
// may perturb a single byte (and if both engines drifted together, the
// pinned constants still catch it).
TEST(SimGoldenTest, ParallelEventEngineReproducesGoldensForEveryThreadCount) {
  const World setup{golden_params()};
  for (const GoldenMulti& golden : kMultiGolden) {
    if (golden.kind != PolicyKind::kVCover) continue;
    for (const std::size_t threads : {2u, 4u, 8u}) {
      EventEngineOptions options;
      options.parallel.num_threads = threads;
      const EventRunResult multi = run_one_event(
          PolicyKind::kVCover, setup.trace(), setup.cache_capacity(),
          setup.params(), 4, golden.strategy, options);
      SCOPED_TRACE(::testing::Message() << "T=" << threads);
      expect_rows_match(multi.replay, golden);
      EXPECT_EQ(multi.staleness_seconds.max(), 0.0);
      EXPECT_EQ(multi.dispatch_lag_seconds.max(), 0.0);
    }
  }
}

// Regeneration helper, not a test: prints the golden tables in source form.
TEST(SimGoldenTest, DISABLED_PrintGoldenTables) {
  const World setup{golden_params()};
  std::cout << "constexpr std::uint64_t kGoldenTraceFingerprint = "
            << trace_fingerprint(setup.trace()) << "ULL;\n\n";
  std::cout << "constexpr GoldenRun kSingleCacheGolden[] = {\n";
  for (const PolicyKind kind : kAllKinds) {
    print_row(run_one(kind, setup.trace(), setup.cache_capacity(),
                      setup.params()));
  }
  std::cout << "};\n\nconst GoldenMulti kMultiGolden[] = {\n";
  for (const PolicyKind kind : kAllKinds) {
    for (const auto strategy : {workload::SplitStrategy::kRoundRobin,
                                workload::SplitStrategy::kHashByRegion}) {
      const MultiRunResult multi =
          run_one_multi(kind, setup.trace(), setup.cache_capacity(),
                        setup.params(), 4, strategy);
      std::cout << "    {PolicyKind::k" << to_string(kind)
                << ", workload::SplitStrategy::"
                << (strategy == workload::SplitStrategy::kRoundRobin
                        ? "kRoundRobin"
                        : "kHashByRegion")
                << ",\n ";
      print_row(multi.combined);
      std::cout << "     {{\n";
      for (const RunResult& r : multi.per_endpoint) {
        std::cout << "     ";
        print_row(r);
      }
      std::cout << "     }},\n     " << replay_fingerprint(multi)
                << "ULL},\n";
    }
  }
  std::cout << "};\n";
}

}  // namespace
}  // namespace delta::sim
