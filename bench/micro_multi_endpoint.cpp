// Micro benchmark: multi-endpoint scaling sweep on the event engine over
// zero-latency links. N cache endpoints (N ∈ {1, 2, 4, 8}), each with its
// own repository replica, its own VCover instance and an equal slice of
// the total cache budget; queries split round-robin and by sky-region
// hash.
//
// Part 1 — sharding sweep (one thread). Reported per (strategy, N):
// post-warm-up figure traffic (combined and the per-endpoint min/max
// spread), cache answer fraction, and wall time. The N=1 row is the
// single-cache baseline — its counters and traffic match sim::run_one
// exactly, so the sweep isolates the effect of sharding alone.
// Round-robin destroys spatial locality (every endpoint sees every hot
// region but holds only 1/N of the cache), while hash-by-region keeps each
// region's queries on one endpoint; the gap between the two rows is the
// value of locality-aware sharding.
//
// Part 2 — thread sweep (hash strategy): N ∈ {1, 2, 4, 8} ×
// T ∈ {1, 2, 4, 8} worker threads. Each cell verifies its combined and
// per-endpoint figures against the T=1 run (the determinism guarantee;
// exit 1 on divergence), then reports wall time and speedup over T=1 for
// the same N. Every partition walks the full merged event stream, at T=1
// too: speedup approaches T while per-query policy work dominates (the
// paper's regime — queries carry GB, updates MB) and degrades on
// update-dominated traces, where the replicated walk is the bottleneck.
// A T>N cell cannot beat T=N (one worker per endpoint), and a single-core
// host shows a uniform slowdown — the determinism columns are the point
// there.
//
//   ./build/bench/micro_multi_endpoint [key=value ...]
//     queries=40000 updates=40000 objects=68 cache_frac=0.3 seed=1
#include <algorithm>
#include <iostream>
#include <vector>

#include "bench_common.h"
#include "util/thread_pool.h"
#include "workload/trace_split.h"

int main(int argc, char** argv) try {
  using namespace delta;
  const auto cfg = util::Config::from_args(argc, argv);
  sim::SetupParams params = bench::setup_from_config(cfg);
  // Sweep-friendly defaults: the paper-scale 250k+250k trace takes minutes
  // per cell; 40k+40k keeps the full sweep under a minute.
  if (!cfg.has("queries")) params.trace.query_count = 40'000;
  if (!cfg.has("updates")) params.trace.update_count = 40'000;
  params.trace.postwarmup_query_gb =
      cfg.get_double("query_gb", 300.0) *
      static_cast<double>(params.trace.query_count) / 250'000.0;
  const sim::PolicyOverrides overrides = bench::overrides_from_config(cfg);
  cfg.reject_unread_keys();

  const sim::Setup setup{params};
  const Bytes total_cache = setup.cache_capacity();
  bench::print_header("multi-endpoint scaling sweep", params,
                      setup.server_bytes(), total_cache);
  sim::EventEngineOptions engine;
  engine.series_stride = 5000;

  std::cout << "strategy        N  per-EP cache  postwarmup GB  "
               "EP min..max GB  at-cache  wall s\n";
  for (const auto strategy : {workload::SplitStrategy::kRoundRobin,
                              workload::SplitStrategy::kHashByRegion}) {
    for (const std::size_t n : {1u, 2u, 4u, 8u}) {
      const Bytes per_endpoint{static_cast<std::int64_t>(
          total_cache.as_double() / static_cast<double>(n))};
      const sim::MultiRunResult result =
          sim::run_one_event(sim::PolicyKind::kVCover, setup.trace(),
                             per_endpoint, params, n, strategy, engine,
                             overrides)
              .replay;
      double lo = result.per_endpoint[0].postwarmup_traffic.as_double();
      double hi = lo;
      for (const sim::RunResult& r : result.per_endpoint) {
        lo = std::min(lo, r.postwarmup_traffic.as_double());
        hi = std::max(hi, r.postwarmup_traffic.as_double());
      }
      const auto& c = result.combined;
      const double at_cache =
          static_cast<double>(c.cache_fresh + c.cache_after_updates) /
          static_cast<double>(std::max<std::int64_t>(c.queries, 1));
      std::cout << workload::to_string(strategy)
                << (strategy == workload::SplitStrategy::kRoundRobin ? "     "
                                                                     : "  ")
                << n << "  " << bench::gb(per_endpoint) << "          "
                << bench::gb(c.postwarmup_traffic) << "           "
                << bench::gb(lo) << ".." << bench::gb(hi) << "      "
                << util::fixed(at_cache * 100, 1) << "%    "
                << util::fixed(c.wall_seconds, 2) << "\n";
    }
  }

  // ---- part 2: thread sweep ----
  std::cout << "\nthread sweep (hash_by_region), "
            << util::ThreadPool::hardware_threads()
            << " hardware threads\n"
            << "N  T  wall s  speedup vs T=1  combined figures\n";
  // Full-figure determinism gate: any divergence in the traffic accounting,
  // decision counters, series, or latency statistics fails the bench. Keep
  // the field list in step with tests/result_identity.h's ExpectIdentical,
  // the shared test helper (kept separate because it reports per-field
  // gtest diagnostics this bool cannot).
  const auto identical = [](const sim::RunResult& a, const sim::RunResult& b) {
    if (a.series.points().size() != b.series.points().size()) return false;
    for (std::size_t k = 0; k < a.series.points().size(); ++k) {
      if (a.series.points()[k].event_index != b.series.points()[k].event_index ||
          a.series.points()[k].value != b.series.points()[k].value) {
        return false;
      }
    }
    return a.total_traffic == b.total_traffic &&
           a.postwarmup_traffic == b.postwarmup_traffic &&
           a.postwarmup_by_mechanism == b.postwarmup_by_mechanism &&
           a.overhead_traffic == b.overhead_traffic &&
           a.warmup_end == b.warmup_end && a.queries == b.queries &&
           a.cache_fresh == b.cache_fresh &&
           a.cache_after_updates == b.cache_after_updates &&
           a.shipped == b.shipped && a.objects_loaded == b.objects_loaded &&
           a.postwarmup_latency.count() == b.postwarmup_latency.count() &&
           a.postwarmup_latency.mean() == b.postwarmup_latency.mean() &&
           a.postwarmup_latency.variance() == b.postwarmup_latency.variance() &&
           a.postwarmup_latency.min() == b.postwarmup_latency.min() &&
           a.postwarmup_latency.max() == b.postwarmup_latency.max() &&
           a.postwarmup_latency.sum() == b.postwarmup_latency.sum();
  };
  bool all_match = true;
  for (const std::size_t n : {1u, 2u, 4u, 8u}) {
    const Bytes per_endpoint{static_cast<std::int64_t>(
        total_cache.as_double() / static_cast<double>(n))};
    double baseline_seconds = 0.0;
    sim::MultiRunResult baseline;
    for (const std::size_t t : {1u, 2u, 4u, 8u}) {
      engine.parallel.num_threads = t;
      sim::MultiRunResult result =
          sim::run_one_event(sim::PolicyKind::kVCover, setup.trace(),
                             per_endpoint, params, n,
                             workload::SplitStrategy::kHashByRegion, engine,
                             overrides)
              .replay;
      const double wall = result.combined.wall_seconds;
      if (t == 1) {
        baseline_seconds = wall;
        baseline = std::move(result);
      }
      const sim::MultiRunResult& probe = t == 1 ? baseline : result;
      bool match = identical(probe.combined, baseline.combined) &&
                   probe.per_endpoint.size() == baseline.per_endpoint.size();
      for (std::size_t e = 0; match && e < probe.per_endpoint.size(); ++e) {
        match = identical(probe.per_endpoint[e], baseline.per_endpoint[e]);
      }
      all_match = all_match && match;
      std::cout << n << "  " << t << "  " << util::fixed(wall, 3) << "    "
                << util::fixed(baseline_seconds / std::max(wall, 1e-9), 2)
                << "x           " << (match ? "== T=1" : "!= T=1 (BUG)")
                << "\n";
    }
  }
  if (!all_match) {
    std::cerr << "determinism violation: a parallel run diverged from T=1\n";
    return 1;
  }
  return 0;
} catch (const std::invalid_argument& e) {
  return delta::util::report_bad_argument(e);
}
