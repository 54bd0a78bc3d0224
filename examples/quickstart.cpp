// Quickstart: build a small synthetic sky, generate a workload trace, run
// Delta's VCover policy through the middleware, and print what happened.
//
//   ./build/examples/quickstart [key=value ...]
//
// This walks the full public API surface: density model -> partition map ->
// trace generator -> DeltaSystem + VCoverPolicy -> simulator -> metrics.
#include <iostream>
#include <memory>

#include "core/vcover_policy.h"
#include "htm/partition_map.h"
#include "sim/simulator.h"
#include "storage/density_model.h"
#include "util/config.h"
#include "util/format.h"
#include "workload/trace_generator.h"

int main(int argc, char** argv) try {
  using namespace delta;
  const auto cfg = util::Config::from_args(argc, argv);
  const std::int64_t sky_seed = cfg.get_int("sky_seed", 7);
  const std::int64_t objects = cfg.get_int("objects", 24);
  const std::int64_t queries = cfg.get_int("queries", 5000);
  const std::int64_t updates = cfg.get_int("updates", 5000);
  const std::int64_t seed = cfg.get_int("seed", 1);
  const double cache_frac = cfg.get_double("cache_frac", 0.3);
  cfg.reject_unread_keys();

  // 1. A synthetic sky at HTM level 4, scaled to ~8 GB of catalog data,
  //    partitioned into ~24 spatial data objects.
  auto density = std::make_shared<storage::DensityModel>(
      /*base_level=*/4, /*seed=*/sky_seed);
  density->scale_to_total_rows(4e6);  // 4M rows * 2 KiB = 8 GiB
  const auto map = std::make_shared<htm::PartitionMap>(
      htm::PartitionMap::build(4, density->weights(),
                               static_cast<std::size_t>(objects)));
  std::cout << "sky: " << map->object_count() << " data objects over a "
            << "level-4 HTM grid\n";

  // 2. A workload: 5k queries + 5k updates, calibrated to ~4 GB of query
  //    results and ~1 MB mean updates.
  workload::TraceParams tp;
  tp.query_count = queries;
  tp.update_count = updates;
  tp.postwarmup_query_gb = 4.0;
  tp.mean_postwarmup_update_mb = 1.0;
  tp.hotspot_max_object_gb = 1.0;
  const workload::TraceGenerator generator{map, *density, tp};
  const workload::Trace trace =
      generator.generate(static_cast<std::uint64_t>(seed));
  std::cout << "trace: " << trace.queries.size() << " queries + "
            << trace.updates.size() << " updates; post-warm-up query bytes "
            << util::human_bytes(
                   trace.total_query_cost(trace.info.warmup_end_event))
            << "\n";

  // 3. The middleware: repository + cache joined by a metered transport,
  //    with VCover deciding between query shipping, update shipping and
  //    object loading.
  core::DeltaSystem system{&trace};
  core::VCoverOptions options;
  Bytes server;
  for (const Bytes b : trace.initial_object_bytes) server += b;
  options.cache_capacity = Bytes{
      static_cast<std::int64_t>(server.as_double() * cache_frac)};
  core::VCoverPolicy policy{&system.cache(), options};
  std::cout << "cache: " << util::human_bytes(options.cache_capacity)
            << " (" << cache_frac * 100
            << "% of the " << util::human_bytes(server) << " repository)\n\n";

  // 4. Replay the merged event sequence.
  const sim::RunResult result = sim::run_policy(trace, system, policy);

  // 5. Report.
  std::cout << "=== results (post-warm-up) ===\n";
  std::cout << "traffic total:   "
            << util::human_bytes(result.postwarmup_traffic) << "\n";
  std::cout << "  query shipping: "
            << util::human_bytes(result.postwarmup_by_mechanism[0]) << "\n";
  std::cout << "  update shipping: "
            << util::human_bytes(result.postwarmup_by_mechanism[1]) << "\n";
  std::cout << "  object loading: "
            << util::human_bytes(result.postwarmup_by_mechanism[2]) << "\n";
  std::cout << "queries answered at cache: "
            << result.cache_fresh + result.cache_after_updates << " / "
            << result.queries << "\n";
  std::cout << "objects loaded: " << policy.loads()
            << ", evicted: " << policy.evictions() << "\n";
  std::cout << "interaction graph peak: "
            << policy.update_manager().peak_graph_nodes() << " vertices, "
            << policy.update_manager().covers_computed()
            << " covers computed\n";
  std::cout << "mean response-time proxy: "
            << util::fixed(result.postwarmup_latency.mean() * 1000, 1)
            << " ms\n";
  const Bytes nocache = trace.total_query_cost(trace.info.warmup_end_event);
  std::cout << "vs NoCache: " << util::human_bytes(nocache) << " ("
            << util::compare_to(result.postwarmup_traffic, nocache)
            << " traffic)\n";
  return 0;
} catch (const std::invalid_argument& e) {
  return delta::util::report_bad_argument(e);
}
