// Ablation A5: the SOptimal yardstick's two constructions — the paper's
// literal rule (Benefit's proportional hindsight ranking applied as one
// trace-sized window) vs the local-search refinement against the exact
// replay cost (our default, a strictly stronger yardstick).
#include <iostream>

#include "bench_common.h"
#include "core/yardsticks.h"

int main(int argc, char** argv) try {
  using namespace delta;
  const auto cfg = util::Config::from_args(argc, argv);
  sim::SetupParams params = bench::setup_from_config(cfg);
  const sim::PolicyOverrides overrides = bench::overrides_from_config(cfg);
  cfg.reject_unread_keys();
  sim::Setup setup{params};
  const Bytes cache = setup.cache_capacity();
  std::cout << "=== Ablation A5: SOptimal construction ===\n\n";

  const auto vcover =
      sim::run_one(sim::PolicyKind::kVCover, setup.trace(), cache, params,
                   overrides, 5000);

  util::TablePrinter table{{"yardstick", "traffic GB", "set size",
                            "cache answers", "VCover/SOptimal"}};
  for (const bool local : {false, true}) {
    core::DeltaSystem system{&setup.trace()};
    core::SOptimalOptions opts;
    opts.cache_capacity = cache;
    opts.local_search = local;
    core::SOptimalPolicy policy{&system.cache(), &setup.trace(), opts};
    const auto r = sim::run_policy(setup.trace(), system, policy, 5000);
    table.add_row(
        {local ? "local-search refined (default)"
               : "Benefit-ranking (paper literal)",
         bench::gb(r.postwarmup_traffic),
         std::to_string(policy.chosen().size()),
         std::to_string(r.cache_fresh + r.cache_after_updates),
         util::fixed(vcover.postwarmup_traffic.as_double() /
                         r.postwarmup_traffic.as_double(),
                     2)});
    std::cerr << "[A5] local=" << local << " done\n";
  }
  table.print(std::cout);
  std::cout << "\nVCover reference: " << bench::gb(vcover.postwarmup_traffic)
            << " GB. The refined set is the honest 'best static set'; the "
               "proportional ranking under-covers multi-object query "
               "neighbourhoods.\n";
  return 0;
} catch (const std::invalid_argument& e) {
  return delta::util::report_bad_argument(e);
}
