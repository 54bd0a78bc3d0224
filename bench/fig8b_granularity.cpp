// Reproduces Fig. 8(b): VCover's cumulative traffic for different choices
// of data-object granularity. The same trace (queries, updates, costs) is
// re-mapped onto partition maps of {10, 20, 68, 91, 134, 285, 532} objects
// built over the same sky. Expected shape: cost improves as objects refine
// (less cache space wasted, finer hotspot decoupling) down to a sweet spot
// (~91 in the paper), then worsens again as queries spill across too-small
// objects ("future queries access data close to, rather than exactly, the
// data accessed by current queries").
#include <iostream>

#include "bench_common.h"

int main(int argc, char** argv) try {
  using namespace delta;
  const auto cfg = util::Config::from_args(argc, argv);
  sim::SetupParams params = bench::setup_from_config(cfg);

  const std::vector<std::int64_t> targets = cfg.get_int_list(
      "granularities", {10, 20, 68, 91, 134, 285, 532});

  sim::Setup setup{params};
  bench::print_header("Figure 8(b): VCover traffic vs object granularity",
                      params, setup.server_bytes(), setup.cache_capacity());

  struct SeriesRow {
    std::size_t objects;
    std::vector<sim::RunResult> runs;  // one per loading seed
  };
  std::vector<SeriesRow> rows;
  workload::Trace& trace = setup.mutable_trace();
  for (const std::int64_t target : targets) {
    const auto map =
        setup.map_with_objects(static_cast<std::size_t>(target));
    trace.remap(*map);
    auto runs =
        bench::run_vcover_seeds(trace, setup.cache_capacity(), params);
    std::cerr << "[fig8b] objects=" << map->object_count() << " done ("
              << runs.size() << " seeds)\n";
    rows.push_back({map->object_count(), std::move(runs)});
  }

  // Cumulative series at checkpoints (the figure's curves).
  const EventTime warmup = trace.info.warmup_end_event;
  const EventTime end = trace.event_count() - 1;
  constexpr int kCheckpoints = 8;
  util::TablePrinter series{[&] {
    std::vector<std::string> headers{"event"};
    for (const auto& row : rows) {
      headers.push_back(std::to_string(row.objects) + " objects");
    }
    return headers;
  }()};
  for (int c = 1; c <= kCheckpoints; ++c) {
    const EventTime t = warmup + (end - warmup) * c / kCheckpoints;
    std::vector<std::string> line{std::to_string(t)};
    for (const auto& row : rows) {
      double sum = 0.0;
      for (const auto& r : row.runs) sum += r.postwarmup_value_at(t);
      line.push_back(bench::gb(sum / static_cast<double>(row.runs.size())));
    }
    series.add_row(std::move(line));
  }
  std::cout << "VCover post-warm-up cumulative traffic (GB, mean over "
            << bench::vcover_seeds().size() << " loading seeds):\n";
  series.print(std::cout);

  std::cout << "\nFinal totals (mean over loading seeds):\n";
  util::TablePrinter totals{{"objects", "total GB", "query-ship GB",
                             "update-ship GB", "load GB", "queries@cache"}};
  double best = 1e30;
  std::size_t best_objects = 0;
  for (const auto& row : rows) {
    const double n = static_cast<double>(row.runs.size());
    double total = 0.0;
    std::array<double, 3> mech{};
    double answered = 0.0;
    for (const auto& r : row.runs) {
      total += r.postwarmup_traffic.as_double();
      for (std::size_t i = 0; i < 3; ++i) {
        mech[i] += r.postwarmup_by_mechanism[i].as_double();
      }
      answered += static_cast<double>(r.cache_fresh + r.cache_after_updates);
    }
    total /= n;
    totals.add_row({std::to_string(row.objects), bench::gb(total),
                    bench::gb(mech[0] / n), bench::gb(mech[1] / n),
                    bench::gb(mech[2] / n),
                    std::to_string(static_cast<std::int64_t>(answered / n))});
    if (total < best) {
      best = total;
      best_objects = row.objects;
    }
  }
  totals.print(std::cout);
  std::cout << "\nSweet spot: " << best_objects << " objects ("
            << bench::gb(best)
            << " GB). Paper: improves to ~91 objects, then slightly "
               "worsens.\n";
  return 0;
} catch (const std::invalid_argument& e) {
  return delta::util::report_bad_argument(e);
}
