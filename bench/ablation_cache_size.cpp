// Ablation A1: cache-size sweep. The abstract claims Delta "reduces the
// traffic by nearly half even with a cache that is one-fifth the size of
// the server repository"; this sweeps the cache from 10% to 100% of the
// server and reports VCover's traffic and the NoCache ratio at each point.
#include <iostream>

#include "bench_common.h"

int main(int argc, char** argv) try {
  using namespace delta;
  const auto cfg = util::Config::from_args(argc, argv);
  sim::SetupParams params = bench::setup_from_config(cfg);
  const sim::PolicyOverrides overrides = bench::overrides_from_config(cfg);
  cfg.reject_unread_keys();
  sim::Setup setup{params};
  std::cout << "=== Ablation A1: cache size sweep (VCover) ===\n";
  std::cout << "server " << util::human_bytes(setup.server_bytes()) << "\n\n";

  const auto nocache =
      sim::run_one(sim::PolicyKind::kNoCache, setup.trace(), Bytes{},
                   params, sim::PolicyOverrides{}, 5000);

  util::TablePrinter table{{"cache %", "cache", "VCover GB",
                            "NoCache/VCover", "cache answers", "loads GB"}};
  for (const double frac : {0.10, 0.20, 0.30, 0.50, 0.75, 1.00}) {
    const Bytes cache{static_cast<std::int64_t>(
        setup.server_bytes().as_double() * frac)};
    const auto r = sim::run_one(sim::PolicyKind::kVCover, setup.trace(),
                                cache, params, overrides, 5000);
    table.add_row(
        {util::fixed(frac * 100, 0), util::human_bytes(cache),
         bench::gb(r.postwarmup_traffic),
         util::fixed(nocache.postwarmup_traffic.as_double() /
                         r.postwarmup_traffic.as_double(),
                     2),
         std::to_string(r.cache_fresh + r.cache_after_updates),
         bench::gb(r.postwarmup_by_mechanism[2])});
    std::cerr << "[A1] cache=" << frac << " done\n";
  }
  table.print(std::cout);
  std::cout << "\nPaper claim to check: at 20% cache the NoCache/VCover "
               "ratio should already approach ~2.\n";
  return 0;
} catch (const std::invalid_argument& e) {
  return delta::util::report_bad_argument(e);
}
