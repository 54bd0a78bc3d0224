// Ablation A4: the remainder-subgraph rule's memory. VCover keeps shipped
// query vertices in the interaction graph so that accumulated past demand
// justifies shipping an update later (ski-rental). Turning the memory off
// makes each cover see only the current query: updates on hot cached
// objects are almost never shipped, so currency-constrained queries keep
// being shipped forever. Also reports interaction-graph footprints.
#include <iostream>

#include "bench_common.h"
#include "core/vcover_policy.h"

int main(int argc, char** argv) try {
  using namespace delta;
  const auto cfg = util::Config::from_args(argc, argv);
  sim::SetupParams params = bench::setup_from_config(cfg);
  cfg.reject_unread_keys();
  sim::Setup setup{params};
  const Bytes cache = setup.cache_capacity();
  std::cout << "=== Ablation A4: remainder-rule memory ===\n\n";

  util::TablePrinter table{{"variant", "traffic GB", "q-ship GB",
                            "u-ship GB", "cache answers", "graph peak",
                            "covers", "flow BFS"}};
  for (const bool remember : {true, false}) {
    core::DeltaSystem system{&setup.trace()};
    core::VCoverOptions opts;
    opts.cache_capacity = cache;
    opts.remember_shipped_queries = remember;
    core::VCoverPolicy policy{&system.cache(), opts};
    const auto r = sim::run_policy(setup.trace(), system, policy, 5000);
    table.add_row(
        {remember ? "remember shipped queries (paper)" : "forget (naive)",
         bench::gb(r.postwarmup_traffic),
         bench::gb(r.postwarmup_by_mechanism[0]),
         bench::gb(r.postwarmup_by_mechanism[1]),
         std::to_string(r.cache_fresh + r.cache_after_updates),
         std::to_string(policy.update_manager().peak_graph_nodes()),
         std::to_string(policy.update_manager().covers_computed()),
         std::to_string(policy.update_manager().flow_bfs_count())});
    std::cerr << "[A4] remember=" << remember << " done\n";
  }
  table.print(std::cout);
  std::cout << "\nExpected: forgetting shipped queries starves update "
               "shipping of its justification, so stale cached objects are "
               "answered by shipping queries instead — more query traffic "
               "and fewer cache answers.\n";
  return 0;
} catch (const std::invalid_argument& e) {
  return delta::util::report_bad_argument(e);
}
