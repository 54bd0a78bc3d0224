// Ablation A2: Benefit's sensitivity to its window size δ and smoothing α.
// The paper tuned δ=1000 for its trace; on this synthetic trace the
// heuristic needs far larger windows before any object's per-window benefit
// exceeds its load cost — and even at its own optimum it stays well behind
// VCover (the paper's §5 weaknesses: proportional attribution, window
// dependence, per-object state).
#include <iostream>

#include "bench_common.h"

int main(int argc, char** argv) try {
  using namespace delta;
  const auto cfg = util::Config::from_args(argc, argv);
  sim::SetupParams params = bench::setup_from_config(cfg);
  const sim::PolicyOverrides overrides = bench::overrides_from_config(cfg);
  cfg.reject_unread_keys();
  sim::Setup setup{params};
  const Bytes cache = setup.cache_capacity();
  std::cout << "=== Ablation A2: Benefit window/alpha sensitivity ===\n\n";

  const auto vcover =
      sim::run_one(sim::PolicyKind::kVCover, setup.trace(), cache, params,
                   overrides, 5000);
  std::cout << "VCover reference: " << bench::gb(vcover.postwarmup_traffic)
            << " GB\n\n";

  util::TablePrinter wtable{{"window delta", "Benefit GB", "vs VCover",
                             "loads", "cache answers"}};
  for (const std::int64_t window :
       {std::int64_t{1000}, std::int64_t{5000}, std::int64_t{20000},
        std::int64_t{50000}, std::int64_t{125000}}) {
    sim::PolicyOverrides o;
    o.benefit.window = window;
    o.benefit.alpha = params.benefit_alpha;
    const auto r = sim::run_one(sim::PolicyKind::kBenefit, setup.trace(),
                                cache, params, o, 5000);
    wtable.add_row({std::to_string(window),
                    bench::gb(r.postwarmup_traffic),
                    util::fixed(r.postwarmup_traffic.as_double() /
                                    vcover.postwarmup_traffic.as_double(),
                                2),
                    std::to_string(r.objects_loaded),
                    std::to_string(r.cache_fresh + r.cache_after_updates)});
    std::cerr << "[A2] window=" << window << " done\n";
  }
  std::cout << "Window sweep (alpha=" << params.benefit_alpha << "):\n";
  wtable.print(std::cout);

  util::TablePrinter atable{{"alpha", "Benefit GB", "cache answers"}};
  for (const double alpha : {0.1, 0.3, 0.5, 0.8, 1.0}) {
    sim::PolicyOverrides o;
    o.benefit.window = params.benefit_window;
    o.benefit.alpha = alpha;
    const auto r = sim::run_one(sim::PolicyKind::kBenefit, setup.trace(),
                                cache, params, o, 5000);
    atable.add_row({util::fixed(alpha, 1), bench::gb(r.postwarmup_traffic),
                    std::to_string(r.cache_fresh + r.cache_after_updates)});
    std::cerr << "[A2] alpha=" << alpha << " done\n";
  }
  std::cout << "\nAlpha sweep (window=" << params.benefit_window << "):\n";
  atable.print(std::cout);
  return 0;
} catch (const std::invalid_argument& e) {
  return delta::util::report_bad_argument(e);
}
