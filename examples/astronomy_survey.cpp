// Astronomy-survey scenario: the paper's §6 evaluation in miniature, as an
// application would drive it — compares all five policies on an SDSS-style
// workload and prints the decision narrative (what each policy shipped,
// loaded and answered locally), plus the response-time proxy that motivates
// the preshipping extension.
//
//   ./build/examples/astronomy_survey [queries=N updates=N objects=K ...]
#include <iostream>

#include "sim/experiment.h"
#include "util/config.h"
#include "util/format.h"

int main(int argc, char** argv) try {
  using namespace delta;
  const auto cfg = util::Config::from_args(argc, argv);

  sim::SetupParams params;
  params.base_level = 4;  // example scale: fast enough for a laptop demo
  params.total_rows = cfg.get_double("total_rows", 4e7);
  params.object_target = static_cast<std::size_t>(cfg.get_int("objects", 40));
  params.trace.query_count = cfg.get_int("queries", 30'000);
  params.trace.update_count = cfg.get_int("updates", 30'000);
  params.trace.postwarmup_query_gb = cfg.get_double("query_gb", 30.0);
  params.trace.mean_postwarmup_update_mb = cfg.get_double("update_mb", 1.0);
  params.trace.hotspot_max_object_gb = 1.5;
  params.cache_fraction = cfg.get_double("cache_frac", 0.30);
  params.benefit_window = cfg.get_int("benefit_window", 6000);
  params.trace_seed = static_cast<std::uint64_t>(cfg.get_int("seed", 42));

  sim::Setup setup{params};
  std::cout << "Survey repository: " << setup.map()->object_count()
            << " spatial objects, "
            << util::human_bytes(setup.server_bytes()) << "; cache "
            << util::human_bytes(setup.cache_capacity()) << "\n";
  std::cout << "Workload: " << params.trace.query_count << " queries + "
            << params.trace.update_count
            << " updates (cone searches, range scans, self-joins, "
               "aggregations, scan chunks)\n\n";

  const auto results = sim::run_all_policies(
      setup.trace(), setup.cache_capacity(), params, /*stride=*/1000);

  util::TablePrinter table{{"policy", "traffic", "q-ship", "u-ship", "loads",
                            "cache answers", "mean latency"}};
  double vcover = 0.0;
  double nocache = 0.0;
  for (const auto& r : results) {
    table.add_row({r.policy_name,
                   util::human_bytes(r.postwarmup_traffic),
                   util::human_bytes(r.postwarmup_by_mechanism[0]),
                   util::human_bytes(r.postwarmup_by_mechanism[1]),
                   util::human_bytes(r.postwarmup_by_mechanism[2]),
                   std::to_string(r.cache_fresh + r.cache_after_updates) +
                       "/" + std::to_string(r.queries),
                   util::fixed(r.postwarmup_latency.mean() * 1000, 1) +
                       " ms"});
    if (r.policy_name == "VCover") vcover = r.postwarmup_traffic.as_double();
    if (r.policy_name == "NoCache") {
      nocache = r.postwarmup_traffic.as_double();
    }
  }
  std::cout << "Post-warm-up comparison:\n";
  table.print(std::cout);
  std::cout << "\nDelta (VCover) moved "
            << util::fixed((1.0 - vcover / nocache) * 100.0, 1)
            << "% less data than routing every query to the repository.\n";
  return 0;
} catch (const std::invalid_argument& e) {
  return delta::util::report_bad_argument(e);
}
