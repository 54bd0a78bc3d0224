// Micro benchmark A7: substrate throughput — HTM point location and region
// covers (the q -> B(q) semantic mapping), Greedy-Dual-Size batch
// decisions, and trace-generation throughput. These bound the middleware's
// per-event bookkeeping cost.
#include <benchmark/benchmark.h>

#include <atomic>
#include <memory>

#include "cache/cache_store.h"
#include "cache/gds.h"
#include "htm/cover.h"
#include "htm/partition_map.h"
#include "storage/density_model.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "workload/trace_generator.h"

namespace {

using namespace delta;

void BM_HtmLocate(benchmark::State& state) {
  util::Rng rng{1};
  std::vector<htm::Vec3> points;
  for (int i = 0; i < 1024; ++i) {
    points.push_back(htm::normalized(
        {rng.normal(0, 1), rng.normal(0, 1), rng.normal(0, 1)}));
  }
  const int level = static_cast<int>(state.range(0));
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(htm::locate(points[i++ & 1023], level));
  }
}
BENCHMARK(BM_HtmLocate)->Arg(5)->Arg(8);

void BM_HtmConeCover(benchmark::State& state) {
  util::Rng rng{2};
  std::vector<htm::Region> cones;
  for (int i = 0; i < 256; ++i) {
    cones.push_back(htm::Cone{
        htm::normalized({rng.normal(0, 1), rng.normal(0, 1),
                         rng.normal(0, 1)}),
        rng.uniform(0.005, 0.05)});
  }
  const int level = static_cast<int>(state.range(0));
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(htm::cover_region(cones[i++ & 255], level));
  }
}
BENCHMARK(BM_HtmConeCover)->Arg(5)->Arg(6);

void BM_GdsBatchDecision(benchmark::State& state) {
  const std::size_t resident = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    // Ids [0, resident) warm the store; the two after them contend.
    cache::CacheStore store{Bytes{static_cast<std::int64_t>(resident) * 100},
                            resident + 2};
    cache::GreedyDualSize gds{&store};
    std::vector<cache::LoadCandidate> warm;
    for (std::size_t i = 0; i < resident; ++i) {
      warm.push_back({ObjectId{static_cast<std::int64_t>(i)}, Bytes{100},
                      Bytes{100}});
    }
    const auto d0 = gds.decide_batch(warm);
    for (const ObjectId o : d0.load) store.load(o, Bytes{100});
    state.ResumeTiming();
    // One contended batch: two candidates that force evictions.
    const auto fresh = static_cast<std::int64_t>(resident);
    const std::vector<cache::LoadCandidate> batch{
        {ObjectId{fresh}, Bytes{150}, Bytes{150}},
        {ObjectId{fresh + 1}, Bytes{150}, Bytes{150}}};
    benchmark::DoNotOptimize(gds.decide_batch(batch));
  }
}
BENCHMARK(BM_GdsBatchDecision)->Arg(16)->Arg(64)->Arg(256);

void BM_TraceGeneration(benchmark::State& state) {
  const auto events = state.range(0);
  auto density = std::make_shared<storage::DensityModel>(4, 7);
  density->scale_to_total_rows(4e7);
  const auto map = std::make_shared<htm::PartitionMap>(
      htm::PartitionMap::build(4, density->weights(), 30));
  workload::TraceParams params;
  params.query_count = events / 2;
  params.update_count = events / 2;
  params.postwarmup_query_gb = 1.0;
  params.hotspot_max_object_gb = 1.0;
  const workload::TraceGenerator generator{map, *density, params};
  std::uint64_t seed = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(generator.generate(++seed));
  }
  state.SetItemsProcessed(state.iterations() * events);
}
BENCHMARK(BM_TraceGeneration)->Arg(2000)->Arg(8000)
    ->Unit(benchmark::kMillisecond);

// Work-stealing substrate (ISSUE 9): 64 jobs with a zipf-like skewed cost
// profile (job j spins ~1/(j+1) of the heaviest job's work), LPT-packed
// onto T workers and drained through util::parallel_for_dynamic. Measures
// the scheduling + stealing overhead the parallel replay engines pay on a
// deliberately imbalanced shard set — the case stealing exists for.
void BM_ParallelForDynamicSkewed(benchmark::State& state) {
  const auto threads = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kJobs = 64;
  constexpr std::size_t kHeaviestSpin = 1 << 14;
  std::vector<double> weights(kJobs);
  for (std::size_t j = 0; j < kJobs; ++j) {
    weights[j] = static_cast<double>(kHeaviestSpin / (j + 1));
  }
  const auto assignment = util::lpt_assignment(weights, threads);
  for (auto _ : state) {
    std::atomic<std::uint64_t> sink{0};
    util::parallel_for_dynamic(kJobs, assignment, [&](std::size_t j) {
      const auto spins = static_cast<std::uint64_t>(weights[j]);
      std::uint64_t acc = j;
      for (std::uint64_t s = 0; s < spins; ++s) {
        acc = acc * 6364136223846793005ULL + 1442695040888963407ULL;
      }
      sink.fetch_add(acc, std::memory_order_relaxed);
    });
    benchmark::DoNotOptimize(sink.load());
  }
  state.SetItemsProcessed(state.iterations() * kJobs);
}
BENCHMARK(BM_ParallelForDynamicSkewed)->Arg(1)->Arg(2)->Arg(4);

}  // namespace

BENCHMARK_MAIN();
