// Adaptive-workload demo: the robustness story of §1/§4. Splices two
// workload phases with disjoint hotspots (a simulated "serendipitous
// discovery" that moves the community's interest overnight) and shows how
// VCover re-decouples — evicting the old hot set, loading the new one —
// while the window-based Benefit heuristic lags and thrashes.
//
//   ./build/examples/adaptive_workload [queries=N ...]
#include <iostream>

#include "core/benefit_policy.h"
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
  params.object_target = 40;
  params.trace.query_count = cfg.get_int("queries", 30'000);
  params.trace.update_count = cfg.get_int("updates", 15'000);
  params.trace.postwarmup_query_gb = 25.0;
  params.trace.mean_postwarmup_update_mb = 1.0;
  params.trace.hotspot_max_object_gb = 1.5;
  // An abrupt regime: short dwells, always-global jumps.
  params.trace.hotspot.cluster_count = 3;
  params.trace.hotspot.mean_dwell_events =
      static_cast<double>(cfg.get_int("dwell", 12'000));
  params.trace.hotspot.global_jump_fraction = 1.0;
  params.trace_seed = static_cast<std::uint64_t>(cfg.get_int("seed", 9));
  params.benefit_window = cfg.get_int("benefit_window", 3000);

  sim::Setup setup{params};
  std::cout << "Abruptly evolving workload: 3 clusters, global jumps every "
            << "~" << params.trace.hotspot.mean_dwell_events
            << " events, over " << setup.map()->object_count()
            << " objects\n\n";

  const auto run = [&](sim::PolicyKind kind) {
    return sim::run_one(kind, setup.trace(), setup.cache_capacity(), params,
                        sim::PolicyOverrides{}, 1000);
  };
  const auto nocache = run(sim::PolicyKind::kNoCache);
  const auto benefit = run(sim::PolicyKind::kBenefit);
  const auto vcover = run(sim::PolicyKind::kVCover);

  util::TablePrinter table{
      {"policy", "traffic", "cache answers", "loads+evicts"}};
  table.add_row({"NoCache", util::human_bytes(nocache.postwarmup_traffic),
                 "0", "-"});
  table.add_row({"Benefit", util::human_bytes(benefit.postwarmup_traffic),
                 std::to_string(benefit.cache_fresh +
                                benefit.cache_after_updates),
                 std::to_string(benefit.objects_loaded)});
  table.add_row({"VCover", util::human_bytes(vcover.postwarmup_traffic),
                 std::to_string(vcover.cache_fresh +
                                vcover.cache_after_updates),
                 std::to_string(vcover.objects_loaded)});
  table.print(std::cout);

  std::cout << "\nCumulative traffic at quarters of the post-warm-up "
               "window (GB):\n";
  util::TablePrinter q{{"quarter", "NoCache", "Benefit", "VCover"}};
  const EventTime warmup = setup.trace().info.warmup_end_event;
  const EventTime end = setup.trace().event_count() - 1;
  for (int c = 1; c <= 4; ++c) {
    const EventTime t = warmup + (end - warmup) * c / 4;
    q.add_row({std::to_string(c),
               util::gb_fixed(Bytes{static_cast<std::int64_t>(
                   nocache.postwarmup_value_at(t))}),
               util::gb_fixed(Bytes{static_cast<std::int64_t>(
                   benefit.postwarmup_value_at(t))}),
               util::gb_fixed(Bytes{static_cast<std::int64_t>(
                   vcover.postwarmup_value_at(t))})});
  }
  q.print(std::cout);
  std::cout << "\nVCover's cover decisions are grounded in the accumulated "
               "past only (remainder graph), so each regime shift costs it "
               "one re-decoupling; Benefit must first re-learn its "
               "forecasts window by window.\n";
  return 0;
} catch (const std::invalid_argument& e) {
  return delta::util::report_bad_argument(e);
}
