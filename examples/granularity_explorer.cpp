// Granularity explorer: how the choice of data-object size changes Delta's
// behaviour (the Fig. 8b question, interactively). Builds one sky, re-maps
// one workload across several partition granularities and shows where the
// traffic, the load churn and the interaction-graph pressure go.
//
//   ./build/examples/granularity_explorer [granularities=8,32,128 ...]
#include <iostream>

#include "core/vcover_policy.h"
#include "sim/experiment.h"
#include "util/config.h"
#include "util/format.h"

int main(int argc, char** argv) try {
  using namespace delta;
  const auto cfg = util::Config::from_args(argc, argv);

  sim::SetupParams params;
  params.base_level = 4;
  params.total_rows = 4e7;
  params.object_target = 32;
  params.trace.query_count = cfg.get_int("queries", 20'000);
  params.trace.update_count = cfg.get_int("updates", 20'000);
  params.trace.postwarmup_query_gb = 20.0;
  params.trace.mean_postwarmup_update_mb = 1.0;
  params.trace.hotspot_max_object_gb = 1.5;
  params.trace_seed = static_cast<std::uint64_t>(cfg.get_int("seed", 5));
  const auto granularities =
      cfg.get_int_list("granularities", {8, 16, 32, 64, 128, 256});
  cfg.reject_unread_keys();

  sim::Setup setup{params};

  std::cout << "One sky (" << util::human_bytes(setup.server_bytes())
            << "), one workload, " << granularities.size()
            << " partitionings; cache "
            << util::human_bytes(setup.cache_capacity()) << "\n\n";

  util::TablePrinter table{{"objects", "median obj", "traffic", "loads",
                            "evictions", "cache answers", "graph peak"}};
  workload::Trace& trace = setup.mutable_trace();
  for (const std::int64_t target : granularities) {
    const auto map =
        setup.map_with_objects(static_cast<std::size_t>(target));
    trace.remap(*map);

    core::DeltaSystem system{&trace};
    core::VCoverOptions options;
    options.cache_capacity = setup.cache_capacity();
    core::VCoverPolicy policy{&system.cache(), options};
    const auto result = sim::run_policy(trace, system, policy);

    // Median non-empty object size under this partitioning.
    std::vector<std::int64_t> sizes;
    for (const Bytes b : trace.initial_object_bytes) {
      if (b.count() > 0) sizes.push_back(b.count());
    }
    std::sort(sizes.begin(), sizes.end());
    const Bytes median{sizes.empty() ? 0 : sizes[sizes.size() / 2]};

    table.add_row({std::to_string(map->object_count()),
                   util::human_bytes(median),
                   util::human_bytes(result.postwarmup_traffic),
                   std::to_string(policy.loads()),
                   std::to_string(policy.evictions()),
                   std::to_string(result.cache_fresh +
                                  result.cache_after_updates),
                   std::to_string(policy.update_manager().peak_graph_nodes())});
  }
  table.print(std::cout);
  std::cout << "\nCoarse objects waste cache space and make loads "
               "expensive; fine objects pack the cache tightly at the cost "
               "of more load decisions and graph bookkeeping.\n";
  return 0;
} catch (const std::invalid_argument& e) {
  return delta::util::report_bad_argument(e);
}
