// Reproduces Fig. 7(a): the object-IDs touched by each query/update event
// along the sequence — the workload's evolving query hotspots and
// (partially disjoint) update hotspots — plus the quantitative workload
// diagnostics that determine cacheability: per-object traffic ranking,
// query-byte concentration, hotspot overlap, and the coverage curve
// (what fraction of query bytes a top-k static object set could answer).
#include <algorithm>
#include <iostream>
#include <numeric>

#include "bench_common.h"
#include "workload/workload_stats.h"

int main(int argc, char** argv) try {
  using namespace delta;
  const auto cfg = util::Config::from_args(argc, argv);
  sim::SetupParams params = bench::setup_from_config(cfg);
  const std::int64_t stride = cfg.get_int("scatter_stride", 2500);
  const std::int64_t max_rows = cfg.get_int("scatter_rows", 40);
  cfg.reject_unread_keys();
  sim::Setup setup{params};
  const auto& trace = setup.trace();
  bench::print_header("Figure 7(a): query/update event map", params,
                      setup.server_bytes(), setup.cache_capacity());

  // --- Scatter sample: object-IDs per sampled event (the figure's dots).
  std::cout << "Scatter sample (event, kind, object-ids), stride="
            << stride << ":\n";
  const auto points = workload::sample_scatter(trace, stride);
  std::int64_t shown = 0;
  EventTime last_time = -1;
  for (const auto& p : points) {
    if (p.time == last_time) {
      std::cout << "," << p.object.value();
      continue;
    }
    if (last_time >= 0) std::cout << "\n";
    if (++shown > max_rows) break;
    last_time = p.time;
    std::cout << "  " << p.time << " " << (p.is_update ? "U" : "Q") << " "
              << p.object.value();
  }
  std::cout << "\n  ... (" << points.size() << " sampled points total)\n\n";

  // --- Post-warm-up per-object ranking (query vs update hotspots).
  const auto stats =
      workload::WorkloadStats::compute(trace, trace.info.warmup_end_event);
  util::TablePrinter top{{"rank", "query-hot obj", "query GB", "update-hot obj",
                          "update GB"}};
  const auto qtop = stats.top_query_objects(10);
  const auto utop = stats.top_update_objects(10);
  for (std::size_t i = 0; i < 10 && (i < qtop.size() || i < utop.size());
       ++i) {
    std::vector<std::string> row{std::to_string(i + 1)};
    if (i < qtop.size()) {
      const auto o = static_cast<std::size_t>(qtop[i].value());
      row.push_back(std::to_string(qtop[i].value()));
      row.push_back(bench::gb(stats.query_bytes[o]));
    } else {
      row.insert(row.end(), {"-", "-"});
    }
    if (i < utop.size()) {
      const auto o = static_cast<std::size_t>(utop[i].value());
      row.push_back(std::to_string(utop[i].value()));
      row.push_back(bench::gb(stats.update_bytes[o]));
    } else {
      row.insert(row.end(), {"-", "-"});
    }
    top.add_row(std::move(row));
  }
  std::cout << "Post-warm-up hotspot ranking:\n";
  top.print(std::cout);

  std::cout << "\nConcentration: top-10 objects carry "
            << util::fixed(stats.query_concentration(10) * 100, 1)
            << "% of attributed query bytes; top-20: "
            << util::fixed(stats.query_concentration(20) * 100, 1) << "%\n";
  std::cout << "Hotspot overlap (Jaccard of top-10 query vs update "
               "objects): "
            << util::fixed(stats.hotspot_overlap(10), 2) << "\n";

  // --- Coverage curve: fraction of post-warm-up query bytes fully
  // answerable from the top-k query objects (B(q) containment), with the
  // cumulative size of that object set.
  std::cout << "\nCoverage curve (static top-k query-hot objects):\n";
  util::TablePrinter cov{{"k", "set size GB", "coverable query GB",
                          "% of query bytes"}};
  const auto ranked = stats.top_query_objects(trace.info.partition_count);
  double total_bytes = 0.0;
  for (const auto& q : trace.queries) {
    if (q.time >= trace.info.warmup_end_event) {
      total_bytes += q.cost.as_double();
    }
  }
  std::vector<bool> in_set(trace.info.partition_count, false);
  Bytes set_size;
  std::size_t next_k = 5;
  for (std::size_t k = 1; k <= ranked.size(); ++k) {
    const auto o = static_cast<std::size_t>(ranked[k - 1].value());
    in_set[o] = true;
    set_size += trace.initial_object_bytes[o];
    if (k != next_k && k != ranked.size()) continue;
    next_k += 5;
    double coverable = 0.0;
    for (const auto& q : trace.queries) {
      if (q.time < trace.info.warmup_end_event) continue;
      const bool covered = std::all_of(
          q.objects.begin(), q.objects.end(), [&](ObjectId obj) {
            return in_set[static_cast<std::size_t>(obj.value())];
          });
      if (covered) coverable += q.cost.as_double();
    }
    cov.add_row({std::to_string(k), bench::gb(set_size),
                 bench::gb(coverable),
                 util::fixed(coverable / total_bytes * 100, 1)});
  }
  cov.print(std::cout);

  // --- B(q) cardinality profile.
  std::vector<std::int64_t> card_hist(9, 0);
  util::StreamingStats card;
  for (const auto& q : trace.queries) {
    card.add(static_cast<double>(q.objects.size()));
    const auto bucket = std::min<std::size_t>(q.objects.size(), 8);
    ++card_hist[bucket];
  }
  std::cout << "\n|B(q)| mean=" << util::fixed(card.mean(), 2)
            << " max=" << card.max() << "; histogram (1..8+): ";
  for (std::size_t i = 1; i < card_hist.size(); ++i) {
    std::cout << card_hist[i] << (i + 1 < card_hist.size() ? "/" : "\n");
  }
  return 0;
} catch (const std::invalid_argument& e) {
  return delta::util::report_bad_argument(e);
}
