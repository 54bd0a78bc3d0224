// Reproduces Fig. 7(b): cumulative network traffic along the query/update
// event sequence for NoCache, Replica, Benefit, VCover and SOptimal, over
// the post-warm-up measurement window, plus the headline comparisons the
// paper calls out (VCover ≈ half of NoCache; ≥2x better than Benefit;
// ~1.5x better than Replica; within ~1.4x of SOptimal).
#include <iostream>

#include "bench_common.h"

int main(int argc, char** argv) try {
  using namespace delta;
  const auto cfg = util::Config::from_args(argc, argv);
  sim::SetupParams params = bench::setup_from_config(cfg);

  sim::Setup setup{params};
  const Bytes cache = setup.cache_capacity();
  bench::print_header("Figure 7(b): cumulative traffic cost", params,
                      setup.server_bytes(), cache);

  std::vector<sim::RunResult> results;
  const std::string filter = cfg.get_string("policies", "all");
  for (const auto& [token, kind] :
       {std::pair{"nocache", sim::PolicyKind::kNoCache},
        std::pair{"replica", sim::PolicyKind::kReplica},
        std::pair{"benefit", sim::PolicyKind::kBenefit},
        std::pair{"vcover", sim::PolicyKind::kVCover},
        std::pair{"soptimal", sim::PolicyKind::kSOptimal}}) {
    if (filter != "all" && filter.find(token) == std::string::npos) continue;
    results.push_back(sim::run_one(kind, setup.trace(), cache, params,
                                   bench::overrides_from_config(cfg), 2000));
    std::cerr << "[fig7b] " << results.back().policy_name << " done in "
              << util::fixed(results.back().wall_seconds, 1) << "s\n";
  }
  if (results.empty()) {
    std::cerr << "no policies matched '" << filter << "'\n";
    return 1;
  }

  // Series table: post-warm-up cumulative GB at evenly spaced checkpoints.
  const EventTime warmup = setup.trace().info.warmup_end_event;
  const EventTime end = setup.trace().event_count() - 1;
  constexpr int kCheckpoints = 9;
  util::TablePrinter table{[&] {
    std::vector<std::string> headers{"event"};
    for (const auto& r : results) headers.push_back(r.policy_name);
    return headers;
  }()};
  for (int c = 1; c <= kCheckpoints; ++c) {
    const EventTime t =
        warmup + (end - warmup) * c / kCheckpoints;
    std::vector<std::string> row{std::to_string(t)};
    for (const auto& r : results) {
      row.push_back(bench::gb(r.postwarmup_value_at(t)));
    }
    table.add_row(std::move(row));
  }
  std::cout << "Post-warm-up cumulative traffic (GB) along the event "
               "sequence:\n";
  table.print(std::cout);

  std::cout << "\nFinal post-warm-up totals:\n";
  util::TablePrinter totals{{"policy", "total GB", "query-ship GB",
                             "update-ship GB", "load GB", "queries@cache"}};
  double nocache = 0.0;
  double replica = 0.0;
  double benefit = 0.0;
  double vcover = 0.0;
  double soptimal = 0.0;
  for (const auto& r : results) {
    totals.add_row(
        {r.policy_name, bench::gb(r.postwarmup_traffic),
         bench::gb(r.postwarmup_by_mechanism[0]),
         bench::gb(r.postwarmup_by_mechanism[1]),
         bench::gb(r.postwarmup_by_mechanism[2]),
         std::to_string(r.cache_fresh + r.cache_after_updates)});
    const double total = r.postwarmup_traffic.as_double();
    if (r.policy_name == "NoCache") nocache = total;
    if (r.policy_name == "Replica") replica = total;
    if (r.policy_name == "Benefit") benefit = total;
    if (r.policy_name == "VCover") vcover = total;
    if (r.policy_name == "SOptimal") soptimal = total;
  }
  totals.print(std::cout);

  if (nocache <= 0 || replica <= 0 || benefit <= 0 || vcover <= 0 ||
      soptimal <= 0) {
    return 0;  // partial policy set: totals table only
  }
  std::cout << "\nHeadline ratios (paper expectations in parentheses):\n";
  std::cout << "  NoCache / VCover  = " << util::fixed(nocache / vcover, 2)
            << "   (~2: \"reduces the traffic by nearly half\")\n";
  std::cout << "  Benefit / VCover  = " << util::fixed(benefit / vcover, 2)
            << "   (>=2: \"outperforms Benefit by a factor of 2-5\")\n";
  std::cout << "  Replica / VCover  = " << util::fixed(replica / vcover, 2)
            << "   (~1.5)\n";
  std::cout << "  VCover / SOptimal = " << util::fixed(vcover / soptimal, 2)
            << "   (~1.4: \"final cost about 40% higher\")\n";
  return 0;
} catch (const std::invalid_argument& e) {
  return delta::util::report_bad_argument(e);
}
