// Reproduces Fig. 8(a): final post-warm-up traffic for each policy as the
// number of updates varies (paper sweep: 125 k .. 375 k) while the query
// stream stays fixed. Expected shapes: NoCache flat (~300 GB); Replica
// linear in the update count (3x updates -> 3x cost); Benefit, VCover and
// SOptimal rise only slightly (they compensate by caching fewer objects).
#include <iostream>

#include "bench_common.h"

int main(int argc, char** argv) try {
  using namespace delta;
  const auto cfg = util::Config::from_args(argc, argv);
  sim::SetupParams params = bench::setup_from_config(cfg);

  const std::vector<std::int64_t> update_counts = cfg.get_int_list(
      "update_counts",
      {params.trace.update_count / 2, (params.trace.update_count * 3) / 4,
       params.trace.update_count, (params.trace.update_count * 5) / 4,
       (params.trace.update_count * 3) / 2});
  cfg.reject_unread_keys();

  std::cout << "=== Figure 8(a): final traffic vs number of updates ===\n";
  std::cout << "query stream fixed at " << params.trace.query_count
            << " queries; updates swept over {";
  for (std::size_t i = 0; i < update_counts.size(); ++i) {
    std::cout << (i ? ", " : "") << update_counts[i];
  }
  std::cout << "}\n\n";

  util::TablePrinter table{{"updates", "NoCache", "Replica", "Benefit",
                            "VCover", "SOptimal"}};
  std::vector<double> vcover_totals;
  std::vector<double> benefit_totals;
  std::vector<double> replica_totals;
  for (const std::int64_t updates : update_counts) {
    sim::SetupParams p = params;
    p.trace.update_count = updates;
    sim::Setup setup{p};
    const Bytes cache = setup.cache_capacity();
    std::vector<std::string> row{std::to_string(updates)};
    for (const sim::PolicyKind kind :
         {sim::PolicyKind::kNoCache, sim::PolicyKind::kReplica,
          sim::PolicyKind::kBenefit}) {
      const auto r = sim::run_one(kind, setup.trace(), cache, p,
                                  sim::PolicyOverrides{}, 5000);
      row.push_back(bench::gb(r.postwarmup_traffic));
      if (kind == sim::PolicyKind::kBenefit) {
        benefit_totals.push_back(r.postwarmup_traffic.as_double());
      }
      if (kind == sim::PolicyKind::kReplica) {
        replica_totals.push_back(r.postwarmup_traffic.as_double());
      }
    }
    // VCover: mean over randomized-loading seeds.
    const auto vruns = bench::run_vcover_seeds(setup.trace(), cache, p);
    const double vmean_gb = bench::mean_postwarmup_gb(vruns);
    vcover_totals.push_back(vmean_gb * 1e9);
    row.push_back(util::fixed(vmean_gb, 2));
    const auto s = sim::run_one(sim::PolicyKind::kSOptimal, setup.trace(),
                                cache, p, sim::PolicyOverrides{}, 5000);
    row.push_back(bench::gb(s.postwarmup_traffic));
    table.add_row(std::move(row));
    std::cerr << "[fig8a] updates=" << updates << " done\n";
  }
  std::cout << "Final post-warm-up traffic (GB):\n";
  table.print(std::cout);

  if (replica_totals.size() >= 2) {
    std::cout << "\nShape checks:\n";
    std::cout << "  Replica scaling over the sweep: "
              << util::fixed(replica_totals.back() / replica_totals.front(), 2)
              << "x for "
              << util::fixed(static_cast<double>(update_counts.back()) /
                                 static_cast<double>(update_counts.front()),
                             2)
              << "x updates (paper: proportional)\n";
    std::cout << "  VCover rise over the sweep: "
              << util::fixed(vcover_totals.back() / vcover_totals.front(), 2)
              << "x (paper: slight increase)\n";
    std::cout << "  Benefit/VCover range: "
              << util::fixed(benefit_totals.front() / vcover_totals.front(), 2)
              << " .. "
              << util::fixed(benefit_totals.back() / vcover_totals.back(), 2)
              << " (paper: 2-5 under different conditions)\n";
  }
  return 0;
} catch (const std::invalid_argument& e) {
  return delta::util::report_bad_argument(e);
}
