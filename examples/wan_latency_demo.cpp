// WAN latency demo: two cache endpoints sharing one repository, one on a
// LAN and one across a 40 ms WAN, replayed on the event-driven engine
// (sim/event_engine.h) — the scenario the single-cache loop cannot
// express, because it delivers every message inline and only *prices*
// latency analytically.
//
//   ./build/examples/wan_latency_demo [key=value ...]
//     queries=2000 updates=2000 seed=2718 cache_frac=0.3
//     wan_mbit=50 wan_rtt_ms=40  (cache-1's link; cache-0 stays on the LAN)
//     tick_ms=500                (simulated ms per trace event tick)
//     threads=1                  (worker threads for the per-partition
//                                 parallel replay; any value reproduces the
//                                 same numbers bit-for-bit)
//
// For every policy it reports what only the event engine can measure:
// simulated response-time percentiles (actual transfer + queueing, not a
// formula), the ingest->invalidation staleness per cache, and the
// repository-uplink contention. Watch the WAN cache's staleness sit ~three
// orders of magnitude above the LAN cache's, and the response tail of
// ship-heavy policies blow up while cache-resident policies stay flat.
#include <iostream>
#include <string>
#include <vector>

#include "net/link_model.h"
#include "sim/event_engine.h"
#include "sim/experiment.h"
#include "util/config.h"
#include "util/format.h"
#include "workload/trace_split.h"

int main(int argc, char** argv) try {
  using namespace delta;
  const auto cfg = util::Config::from_args(argc, argv);
  const std::int64_t threads_arg = cfg.get_int("threads", 1);
  if (threads_arg < 0 || threads_arg > 1024) {
    std::cerr << "threads must be in [0, 1024], got " << threads_arg << "\n";
    return 2;
  }

  // The golden-test world: big enough that the caching policies genuinely
  // cache (VCover answers ~2/3 of queries locally), small enough to replay
  // five policies in seconds.
  sim::SetupParams params;
  params.base_level = 4;
  params.total_rows = 4e7;
  params.object_target = static_cast<std::size_t>(cfg.get_int("objects", 30));
  params.trace_seed = static_cast<std::uint64_t>(cfg.get_int("seed", 2718));
  params.trace.query_count = cfg.get_int("queries", 2000);
  params.trace.update_count = cfg.get_int("updates", 2000);
  params.trace.postwarmup_query_gb =
      8.0 * static_cast<double>(params.trace.query_count) / 2000.0;
  params.trace.mean_postwarmup_update_mb = 2.0;
  params.trace.hotspot_max_object_gb = 1.0;
  params.benefit_window = 500;
  const double frac = cfg.get_double("cache_frac", 0.3);
  const double wan_mbit = cfg.get_double("wan_mbit", 50.0);
  const double wan_rtt = cfg.get_double("wan_rtt_ms", 40.0) / 1000.0;
  const double tick = cfg.get_double("tick_ms", 500.0) / 1000.0;
  cfg.reject_unread_keys();
  const sim::Setup setup{params};

  const Bytes per_endpoint{
      static_cast<std::int64_t>(setup.server_bytes().as_double() * frac)};

  // cache-0: machine-room LAN. cache-1: remote observatory behind a WAN.
  const net::LinkModel lan{125e6, 0.0004};
  const net::LinkModel wan{wan_mbit * 1e6 / 8.0, wan_rtt};

  sim::EventEngineOptions engine;
  engine.seconds_per_event = tick;
  engine.default_link = lan;
  engine.cache_links = {lan, wan};
  engine.parallel.num_threads = static_cast<std::size_t>(threads_arg);

  std::cout << "world: " << setup.map()->object_count() << " objects, "
            << util::human_bytes(setup.server_bytes())
            << " repository; 2 cache endpoints ("
            << util::human_bytes(per_endpoint) << " each)\n"
            << "links: cache-0 LAN 1 Gbit/s 0.4 ms RTT | cache-1 WAN "
            << util::fixed(wan_mbit, 0) << " Mbit/s "
            << util::fixed(wan_rtt * 1000.0, 0) << " ms RTT | tick "
            << util::fixed(engine.seconds_per_event * 1000.0, 1) << " ms\n\n";

  util::TablePrinter table{{"policy", "resp p50", "resp p99", "stale LAN",
                            "stale WAN", "uplink busy", "traffic"}};
  for (const sim::PolicyKind kind :
       {sim::PolicyKind::kNoCache, sim::PolicyKind::kReplica,
        sim::PolicyKind::kBenefit, sim::PolicyKind::kVCover,
        sim::PolicyKind::kSOptimal}) {
    const sim::EventRunResult r = sim::run_one_event(
        kind, setup.trace(), per_endpoint, params, 2,
        workload::SplitStrategy::kRoundRobin, engine);
    const auto stale = [&](std::size_t e) {
      return r.per_endpoint[e].staleness_seconds.count() == 0
                 ? std::string{"-"}
                 : util::fixed(r.per_endpoint[e].staleness_seconds.mean() *
                                   1000.0,
                               2) +
                       " ms";
    };
    table.add_row({sim::to_string(kind),
                   util::fixed(r.response_p50(), 3) + " s",
                   util::fixed(r.response_p99(), 3) + " s", stale(0),
                   stale(1),
                   util::fixed(r.server_uplink.busy_seconds, 1) + " s",
                   util::human_bytes(r.replay.combined.postwarmup_traffic)});
  }
  table.print(std::cout);
  std::cout << "\n";

  std::cout
      << "Response times are *simulated* (request/reply transfers, FIFO\n"
         "links, serialization occupancy), not the analytic proxy; the\n"
         "staleness columns are the measured ingest->invalidation gap per\n"
         "cache. Re-run with wan_rtt_ms=0.4 wan_mbit=1000 to watch the\n"
         "divergence collapse.\n";
  return 0;
} catch (const std::invalid_argument& e) {
  return delta::util::report_bad_argument(e);
}
