// Extension E1 (paper §4 Discussion): preshipping. Proactively pushing
// updates for hot cached objects trades extra update traffic for response
// time: currency-constrained queries find their objects already fresh
// instead of waiting for a synchronous update ship. Reports the traffic /
// latency trade-off across preship heat thresholds.
#include <iostream>

#include "bench_common.h"

int main(int argc, char** argv) try {
  using namespace delta;
  const auto cfg = util::Config::from_args(argc, argv);
  sim::SetupParams params = bench::setup_from_config(cfg);
  sim::Setup setup{params};
  const Bytes cache = setup.cache_capacity();
  std::cout << "=== Extension E1: preshipping updates for hot objects ===\n\n";

  util::TablePrinter table{{"variant", "traffic GB", "u-ship GB",
                            "mean latency ms", "p-latency @cache+updates",
                            "cache answers"}};
  struct Variant {
    const char* name;
    bool preship;
    double threshold;
  };
  const Variant variants[] = {
      {"no preshipping (baseline)", false, 0.0},
      {"preship, heat threshold 6", true, 6.0},
      {"preship, heat threshold 3", true, 3.0},
      {"preship, heat threshold 1.5", true, 1.5},
  };
  for (const Variant& v : variants) {
    sim::PolicyOverrides o = bench::overrides_from_config(cfg);
    o.vcover.preship = v.preship;
    o.vcover.preship_heat_threshold = v.threshold;
    const auto r = sim::run_one(sim::PolicyKind::kVCover, setup.trace(),
                                cache, params, o, 5000);
    const double frac_after_updates =
        r.cache_fresh + r.cache_after_updates > 0
            ? static_cast<double>(r.cache_after_updates) /
                  static_cast<double>(r.cache_fresh + r.cache_after_updates)
            : 0.0;
    table.add_row({v.name, bench::gb(r.postwarmup_traffic),
                   bench::gb(r.postwarmup_by_mechanism[1]),
                   util::fixed(r.postwarmup_latency.mean() * 1000, 2),
                   util::fixed(frac_after_updates * 100, 1) + "%",
                   std::to_string(r.cache_fresh + r.cache_after_updates)});
    std::cerr << "[E1] " << v.name << " done\n";
  }
  table.print(std::cout);
  std::cout << "\nExpected: lower thresholds preship more aggressively — "
               "update traffic rises slightly while the share of cache "
               "answers that had to wait for a synchronous update ship "
               "falls, improving the response-time proxy.\n";
  return 0;
} catch (const std::invalid_argument& e) {
  return delta::util::report_bad_argument(e);
}
