// Multi-cache demo: several cache endpoints, each running its own VCover
// policy instance against its own repository replica, with queries sharded
// across endpoints by sky region.
//
//   ./build/examples/multi_cache_demo [key=value ...]
//     endpoints=3 strategy=hash|rr queries=5000 updates=5000 cache_frac=0.3
//     threads=1   (0 = one per hardware core; >1 replays the endpoints on
//                  a worker pool, byte-identical to threads=1)
//
// This walks the multi-endpoint API surface: trace -> split strategy ->
// run_one_event (zero-latency links) -> per-endpoint RunResults + combined
// figures, and checks the accounting identity (per-endpoint traffic sums
// to the aggregate).
#include <iostream>
#include <string>

#include "sim/experiment.h"
#include "util/config.h"
#include "util/format.h"
#include "workload/trace_split.h"

int main(int argc, char** argv) try {
  using namespace delta;
  const auto cfg = util::Config::from_args(argc, argv);

  // 1. A small world: ~8 GB repository over ~24 spatial objects.
  sim::SetupParams params;
  params.base_level = 4;
  params.sky_seed = static_cast<std::uint64_t>(cfg.get_int("sky_seed", 7));
  params.total_rows = 4e6;
  params.object_target = static_cast<std::size_t>(cfg.get_int("objects", 24));
  params.trace_seed = static_cast<std::uint64_t>(cfg.get_int("seed", 1));
  params.trace.query_count = cfg.get_int("queries", 5000);
  params.trace.update_count = cfg.get_int("updates", 5000);
  // Keep per-query magnitudes fixed as the trace length is overridden.
  params.trace.postwarmup_query_gb =
      4.0 * static_cast<double>(params.trace.query_count) / 5000.0;
  params.trace.mean_postwarmup_update_mb = 1.0;
  params.trace.hotspot_max_object_gb = 1.0;

  const std::int64_t endpoints_arg = cfg.get_int("endpoints", 3);
  if (endpoints_arg < 1 || endpoints_arg > 1024) {
    std::cerr << "endpoints must be in [1, 1024], got " << endpoints_arg
              << "\n";
    return 2;
  }
  const auto endpoints = static_cast<std::size_t>(endpoints_arg);
  const std::string strategy_arg = cfg.get_string("strategy", "hash");
  if (strategy_arg != "hash" && strategy_arg != "rr") {
    std::cerr << "strategy must be 'hash' or 'rr', got '" << strategy_arg
              << "'\n";
    return 2;
  }
  const workload::SplitStrategy strategy =
      strategy_arg == "rr" ? workload::SplitStrategy::kRoundRobin
                           : workload::SplitStrategy::kHashByRegion;
  // Each endpoint is its own cache workstation with its own disk, so each
  // is provisioned cache_frac of the repository (bench/micro_multi_endpoint
  // sweeps the other regime: one fixed budget sliced across endpoints).
  const double frac = cfg.get_double("cache_frac", 0.3);
  const std::int64_t threads_arg = cfg.get_int("threads", 1);
  cfg.reject_unread_keys();
  if (threads_arg < 0 || threads_arg > 1024) {
    std::cerr << "threads must be in [0, 1024], got " << threads_arg << "\n";
    return 2;
  }
  const sim::Setup setup{params};
  const Bytes per_endpoint{
      static_cast<std::int64_t>(setup.server_bytes().as_double() * frac)};
  sim::EventEngineOptions engine;
  engine.parallel.num_threads = static_cast<std::size_t>(threads_arg);

  std::cout << "world: " << setup.map()->object_count() << " objects, "
            << util::human_bytes(setup.server_bytes()) << " repository; "
            << endpoints << " cache endpoints ("
            << util::human_bytes(per_endpoint) << " each), split="
            << workload::to_string(strategy) << ", threads="
            << (threads_arg == 0 ? std::string{"auto"}
                                          : std::to_string(threads_arg))
            << "\n\n";

  // 2. N cache endpoints, one repository replica and VCover policy each.
  const sim::MultiRunResult result =
      sim::run_one_event(sim::PolicyKind::kVCover, setup.trace(),
                         per_endpoint, params, endpoints, strategy, engine)
          .replay;

  // 3. Per-endpoint report.
  std::cout << "endpoint      queries  at-cache  post-warm-up traffic\n";
  Bytes sum;
  for (std::size_t i = 0; i < result.per_endpoint.size(); ++i) {
    const sim::RunResult& r = result.per_endpoint[i];
    sum += r.postwarmup_traffic;
    std::cout << "cache-" << i << "        " << r.queries << "     "
              << r.cache_fresh + r.cache_after_updates << "      "
              << util::human_bytes(r.postwarmup_traffic) << "\n";
  }
  std::cout << "combined       " << result.combined.queries << "     "
            << result.combined.cache_fresh +
                   result.combined.cache_after_updates
            << "      " << util::human_bytes(result.combined.postwarmup_traffic)
            << "\n\n";

  // 4. The accounting identity the architecture guarantees.
  std::cout << "per-endpoint sum " << util::human_bytes(sum)
            << (sum == result.combined.postwarmup_traffic
                    ? " == combined (exact)"
                    : " != combined (BUG)")
            << "\n";
  const Bytes nocache = setup.trace().total_query_cost(
      setup.trace().info.warmup_end_event);
  std::cout << "vs NoCache: " << util::human_bytes(nocache) << " ("
            << util::compare_to(result.combined.postwarmup_traffic, nocache)
            << " traffic)\n";
  return sum == result.combined.postwarmup_traffic ? 0 : 1;
} catch (const std::invalid_argument& e) {
  return delta::util::report_bad_argument(e);
}
