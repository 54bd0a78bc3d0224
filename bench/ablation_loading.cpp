// Ablation A3: the LoadManager's two design knobs.
//  * randomized attribution (the paper's counter-free trick) vs exact
//    per-object counters — identical in expectation, but the randomized
//    variant adds variance-driven load traffic on objects whose demand is
//    close to their load cost;
//  * lazy (batched per query) vs eager (per candidate) GDS admission — the
//    paper's lazy variant avoids loading an object only to evict it for a
//    sibling candidate of the same query;
//  * Greedy-Dual-Size vs plain LRU as the object caching algorithm.
#include <iostream>

#include "bench_common.h"

int main(int argc, char** argv) try {
  using namespace delta;
  const auto cfg = util::Config::from_args(argc, argv);
  sim::SetupParams params = bench::setup_from_config(cfg);
  sim::Setup setup{params};
  std::cout << "=== Ablation A3: loading machinery ===\n\n";

  struct Variant {
    const char* name;
    bool randomized;
    bool lazy;
    bool lru;
  };
  const Variant variants[] = {
      {"counters + lazy GDS (default)", false, true, false},
      {"randomized + lazy GDS (paper)", true, true, false},
      {"counters + eager GDS", false, false, false},
      {"randomized + eager GDS", true, false, false},
      {"counters + lazy LRU", false, true, true},
  };

  // Two regimes: the paper-default cache (uncontended once the hot set
  // fits) and a tight cache where admission/eviction choices actually bite.
  for (const double frac : {params.cache_fraction, 0.12}) {
    const Bytes cache{static_cast<std::int64_t>(
        setup.server_bytes().as_double() * frac)};
    std::cout << "cache = " << util::fixed(frac * 100, 0) << "% of server ("
              << util::human_bytes(cache) << "):\n";
  util::TablePrinter table{{"variant", "traffic GB", "loads GB", "loads",
                            "cache answers"}};
  for (const Variant& v : variants) {
    // Randomized variants: mean over seeds; deterministic ones: one run.
    const auto seeds = v.randomized
                           ? bench::vcover_seeds()
                           : std::vector<std::uint64_t>{0xD517A};
    double loads_gb = 0.0;
    double loads = 0.0;
    double answers = 0.0;
    double total = 0.0;
    for (const std::uint64_t seed : seeds) {
      sim::PolicyOverrides o;
      o.vcover.loading.randomized = v.randomized;
      o.vcover.loading.lazy = v.lazy;
      o.vcover.use_lru = v.lru;
      o.vcover.rng_seed = seed;
      const auto r = sim::run_one(sim::PolicyKind::kVCover, setup.trace(),
                                  cache, params, o, 5000);
      total += r.postwarmup_traffic.as_double();
      loads_gb += r.postwarmup_by_mechanism[2].as_double();
      loads += static_cast<double>(r.objects_loaded);
      answers += static_cast<double>(r.cache_fresh + r.cache_after_updates);
    }
    const double n = static_cast<double>(seeds.size());
    table.add_row({v.name, bench::gb(total / n), bench::gb(loads_gb / n),
                   util::fixed(loads / n, 1), util::fixed(answers / n, 0)});
    std::cerr << "[A3] " << v.name << " done\n";
  }
  table.print(std::cout);
  std::cout << "\n";
  }
  std::cout << "\nExpected: randomized variants trade per-object counter "
               "state for variance (more load traffic); eager admission "
               "churns on multi-object queries; LRU ignores load costs.\n";
  return 0;
} catch (const std::invalid_argument& e) {
  return delta::util::report_bad_argument(e);
}
