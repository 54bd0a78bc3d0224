// Perf-trajectory sweeps: the measurements the repository benchmark
// (benchmark/, BENCHMARK.json) does not make. scripts/bench_trajectory.sh
// runs both and writes BENCH_<label>.json: the benchmark's per-workload
// result lines under "benchmark", this program's JSON under "sweeps".
//
// Sections:
//   * single_cache / event_engine — one VCover workload (objects=68
//     cache_frac=0.3 seed=1) replayed synchronously and through the
//     discrete-event engine on a 1 Gbit/40 ms link (arrivals paced above
//     the mean service time so the closed loop is unsaturated), the two
//     interleaved per repetition. event_engine.events_per_sec_vs_sync is
//     the same-process ratio of the two; single_cache also carries the
//     solver augment counts and the post-warm-up latency-proxy p50/p90/p99,
//     event_engine the p50/p99 of the *simulated* response times;
//   * object_scaling — the zipfian YCSB-B mix through single-cache VCover
//     at 68 -> 10^4 -> 10^6 keys; bfs/covers per event must stay flat;
//   * n_sweep — the event engine on the same link at N in {4, 16, 64}
//     partitions, T=1, balanced_by_load split: the measured critical-path
//     speedup and split balance;
//   * open_loop — Poisson arrivals over a 100 Mbit/40 ms WAN through the
//     async policy API, congestion batching off vs on.
//
// Measured elsewhere, so not here: the sync N x T sweep
// (bench/micro_multi_endpoint), wall-clock parallel speedup (benchmark
// workload paper_wan_parallel), and the chaos scenarios
// (examples/chaos_scenarios, benchmark workload chaos_open_loop).
//
//   ./build/bench/bench_trajectory [key=value ...]
//     smoke=0        1 = tiny trace (CI smoke run; numbers not comparable)
//     repeats=3      timed repetitions per cell (best + median reported)
//     queries=40000 updates=40000 objects=68 cache_frac=0.3 seed=1
//     out=-          output path ('-' = stdout)
#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <ostream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/vcover_policy.h"
#include "net/link_model.h"
#include "sim/event_engine.h"
#include "sim/experiment.h"
#include "util/stats.h"
#include "workload/synthetic_trace.h"
#include "workload/trace_split.h"

namespace {

using namespace delta;

/// Collected walls of the timed repetitions of one cell. best() is the
/// capability figure the trajectory has always tracked; median() is the
/// noise-robust companion every ratio is also reported under, so CI
/// verdicts and cross-PR comparisons don't ride on a single lucky run.
class RepeatWalls {
 public:
  void add(double wall) { walls_.push_back(wall); }
  [[nodiscard]] double best() const {
    return walls_.empty()
               ? 0.0
               : *std::min_element(walls_.begin(), walls_.end());
  }
  [[nodiscard]] double median() const {
    if (walls_.empty()) return 0.0;
    std::vector<double> sorted = walls_;
    std::sort(sorted.begin(), sorted.end());
    return sorted[sorted.size() / 2];
  }

 private:
  std::vector<double> walls_;
};

/// Best and median wall of one cell, and the event rates they give.
struct Throughput {
  double wall_seconds_best = 0.0;
  double wall_seconds_median = 0.0;
  double events_per_sec = 0.0;
  double events_per_sec_median = 0.0;

  static Throughput of(const RepeatWalls& walls, std::int64_t events) {
    Throughput t;
    t.wall_seconds_best = walls.best();
    t.wall_seconds_median = walls.median();
    const auto n = static_cast<double>(events);
    t.events_per_sec = n / std::max(t.wall_seconds_best, 1e-9);
    t.events_per_sec_median = n / std::max(t.wall_seconds_median, 1e-9);
    return t;
  }
};

/// The four Throughput fields as JSON members, each followed by ", ".
std::ostream& operator<<(std::ostream& os, const Throughput& t) {
  return os << "\"wall_seconds_best\": " << t.wall_seconds_best
            << ", \"wall_seconds_median\": " << t.wall_seconds_median
            << ", \"events_per_sec\": " << t.events_per_sec
            << ", \"events_per_sec_median\": " << t.events_per_sec_median
            << ", ";
}

struct SingleResult {
  Throughput rate;
  std::int64_t events = 0;
  std::int64_t postwarmup_traffic = 0;  // sanity pin: must not drift
  std::int64_t cache_answers = 0;
  std::int64_t solver_bfs = 0;
  std::int64_t covers_computed = 0;
  double latency_p50 = 0.0;
  double latency_p90 = 0.0;
  double latency_p99 = 0.0;
};

struct EventResult {
  Throughput rate;
  std::int64_t postwarmup_traffic = 0;
  double response_p50 = 0.0;
  double response_p99 = 0.0;
  double dispatch_lag_mean = 0.0;
  double staleness_mean = 0.0;
  double uplink_busy_seconds = 0.0;
};

/// One cell of the object-count scaling sweep: the same zipfian YCSB-B mix
/// replayed through single-cache VCover at a growing key space. The
/// tracked property is per-decision solver work (bfs/covers per event)
/// staying flat while objects grow by four orders of magnitude — the
/// "no O(n_objects) term on the replay hot path" pin.
struct ObjectScalingCell {
  std::int64_t objects = 0;
  std::int64_t events = 0;
  double generate_seconds = 0.0;
  Throughput rate;
  std::int64_t cache_answers = 0;
  std::int64_t solver_bfs = 0;
  std::int64_t covers_computed = 0;
  double bfs_per_event = 0.0;
  double covers_per_event = 0.0;
  std::int64_t postwarmup_traffic = 0;
};

/// One endpoint-count cell of the fleet-size sweep: the WAN event engine at
/// N partitions, T=1 (sequential replay gives the cleanest critical-path
/// measurement — no CPU contention inflates the per-shard walls the sum/max
/// figure is built from), load-balanced LPT split.
struct NSweepCell {
  std::size_t endpoints = 0;
  Throughput rate;
  /// sum/max of the per-partition replay walls from the best run: the
  /// load-balance-limited speedup a host with >= N cores achieves. This is
  /// a measurement (per-shard timers), not a model.
  double critical_path_speedup = 0.0;
  /// Measured split balance: max/mean routed queries per partition
  /// (1.0 = perfect). Bounds critical_path_speedup from above by
  /// N / balance when query work dominates the per-shard wall.
  double balance = 1.0;
  /// Partitions replayed by a worker other than their LPT owner in the
  /// best run (0 at T=1).
  std::int64_t steal_count = 0;
};

/// One cell of the open-loop drive sweep: the merged stream arrives on a
/// Poisson schedule over a 100 Mbit/40 ms WAN path and dispatches through
/// the async policy API, with congestion batching of invalidation notices
/// off or on. Tracked: simulated response p50/p99 vs arrival rate, dispatch
/// lag (window waits), and the batching delta (messages saved by coalescing
/// under backlog). The policy is Benefit: it subscribes to invalidation
/// notices AND ships queries, so notices contend with query results on the
/// uplink and batching moves both the message count and the response
/// percentiles (VCover sends no standalone notices, which would pin the
/// delta at zero; Replica answers every query locally, which would pin the
/// response delta instead).
struct OpenLoopCell {
  double rate_per_sec = 0.0;
  bool batching = false;
  Throughput rate;
  double sim_duration_seconds = 0.0;
  double response_p50 = 0.0;
  double response_p99 = 0.0;
  double dispatch_lag_mean = 0.0;
  std::int64_t delivered_messages = 0;
  std::int64_t notice_messages = 0;
  std::int64_t coalesced_notices = 0;
};

/// The closed-loop event-engine config shared by event_engine and n_sweep:
/// the 1 Gbit/s, 40 ms WAN link with arrivals paced well above the mean
/// per-event service time (~11 ms at the pinned config), so the closed loop
/// is unsaturated and the tracked percentiles measure per-query latency,
/// not an unbounded backlog ramp that would scale with trace length.
/// Transient backlogs remain (GB-sized transfers serialize for tens of
/// seconds and arrive clustered) — that genuine queueing is reported via
/// dispatch_lag_mean (~1.6 s here) and the p99; only growth of these across
/// PRs at fixed config is meaningful.
sim::EventEngineOptions wan_options() {
  sim::EventEngineOptions options;
  options.default_link = delta::net::LinkModel{};
  options.seconds_per_event = 0.2;
  options.series_stride = 5000;
  return options;
}

ObjectScalingCell measure_object_scaling(std::int64_t objects,
                                         std::int64_t events,
                                         double cache_frac,
                                         std::uint64_t seed, int repeats) {
  ObjectScalingCell cell;
  cell.objects = objects;
  const workload::SyntheticTraceParams p =
      workload::ycsb_params(workload::YcsbMix::kB, objects, events);
  workload::SyntheticTraceGenerator gen{p};
  const auto gen_start = std::chrono::steady_clock::now();
  const workload::Trace trace = gen.generate(seed);
  cell.generate_seconds = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - gen_start)
                              .count();
  cell.events = static_cast<std::int64_t>(trace.order.size());

  Bytes total{0};
  for (const Bytes b : trace.initial_object_bytes) total += b;
  const Bytes capacity{
      static_cast<std::int64_t>(total.as_double() * cache_frac)};
  RepeatWalls walls;
  for (int rep = 0; rep < repeats; ++rep) {
    core::DeltaSystem system{&trace};
    core::VCoverOptions vcover;
    vcover.cache_capacity = capacity;
    core::VCoverPolicy policy{&system.cache(), vcover};
    const sim::RunResult r = sim::run_policy(trace, system, policy, 10'000);
    walls.add(r.wall_seconds);
    if (rep == 0) {
      cell.cache_answers = r.cache_fresh + r.cache_after_updates;
      cell.solver_bfs = policy.update_manager().flow_bfs_count();
      cell.covers_computed = policy.update_manager().covers_computed();
      cell.postwarmup_traffic = r.postwarmup_traffic.count();
    }
  }
  cell.rate = Throughput::of(walls, cell.events);
  cell.bfs_per_event = static_cast<double>(cell.solver_bfs) /
                       static_cast<double>(cell.events);
  cell.covers_per_event = static_cast<double>(cell.covers_computed) /
                          static_cast<double>(cell.events);
  return cell;
}

/// One interleaved sweep of the single-cache workload: each repetition
/// times one synchronous replay AND one event-engine replay back to back,
/// so the events_per_sec_vs_sync ratio — the tracked figure — compares
/// walls sampled under the same machine conditions instead of phases
/// minutes apart (on a shared container the drift between phases used to
/// dominate the ratio's variance).
void measure_single_and_event(const sim::Setup& setup, int repeats,
                              SingleResult& single, EventResult& event) {
  const workload::Trace& trace = setup.trace();
  single.events = static_cast<std::int64_t>(trace.order.size());
  const sim::EventEngineOptions options = wan_options();

  RepeatWalls single_walls;
  RepeatWalls event_walls;
  for (int rep = 0; rep < repeats; ++rep) {
    {
      core::DeltaSystem system{&trace};
      core::VCoverOptions vcover;
      vcover.cache_capacity = setup.cache_capacity();
      core::VCoverPolicy policy{&system.cache(), vcover};
      util::QuantileSketch sketch;
      const sim::RunResult r = sim::run_policy(trace, system, policy, 5000,
                                               sim::LatencyModel{}, &sketch);
      single_walls.add(r.wall_seconds);
      if (rep == 0) {
        single.postwarmup_traffic = r.postwarmup_traffic.count();
        single.cache_answers = r.cache_fresh + r.cache_after_updates;
        single.solver_bfs = policy.update_manager().flow_bfs_count();
        single.covers_computed = policy.update_manager().covers_computed();
        single.latency_p50 = sketch.quantile(0.50);
        single.latency_p90 = sketch.quantile(0.90);
        single.latency_p99 = sketch.quantile(0.99);
      }
    }
    {
      const sim::EventRunResult r = sim::run_one_event(
          sim::PolicyKind::kVCover, setup.trace(), setup.cache_capacity(),
          setup.params(), 1, workload::SplitStrategy::kRoundRobin, options);
      event_walls.add(r.replay.combined.wall_seconds);
      if (rep == 0) {
        event.postwarmup_traffic = r.replay.combined.postwarmup_traffic.count();
        event.response_p50 = r.response_p50();
        event.response_p99 = r.response_p99();
        event.dispatch_lag_mean = r.dispatch_lag_seconds.mean();
        event.staleness_mean = r.staleness_seconds.mean();
        event.uplink_busy_seconds = r.server_uplink.busy_seconds;
      }
    }
  }
  single.rate = Throughput::of(single_walls, single.events);
  event.rate = Throughput::of(event_walls, single.events);
}

NSweepCell measure_n_sweep(const sim::Setup& setup, std::size_t endpoints,
                           int repeats) {
  sim::EventEngineOptions options = wan_options();
  options.parallel.num_threads = 1;
  const Bytes per_endpoint{static_cast<std::int64_t>(
      setup.cache_capacity().as_double() / static_cast<double>(endpoints))};
  NSweepCell cell;
  cell.endpoints = endpoints;
  RepeatWalls walls;
  double best_wall = 0.0;
  for (int rep = 0; rep < repeats; ++rep) {
    const sim::EventRunResult r = sim::run_one_event(
        sim::PolicyKind::kVCover, setup.trace(), per_endpoint, setup.params(),
        endpoints, workload::SplitStrategy::kBalancedByLoad, options);
    const double wall = r.replay.combined.wall_seconds;
    walls.add(wall);
    if (rep == 0 || wall < best_wall) {
      best_wall = wall;
      double sum = 0.0;
      double slowest = 0.0;
      for (const sim::RunResult& shard : r.replay.per_endpoint) {
        sum += shard.wall_seconds;
        slowest = std::max(slowest, shard.wall_seconds);
      }
      cell.critical_path_speedup = sum / std::max(slowest, 1e-9);
      cell.balance = r.shard_balance;
      cell.steal_count = r.steal_count;
    }
  }
  cell.rate = Throughput::of(
      walls, static_cast<std::int64_t>(setup.trace().order.size()));
  return cell;
}

OpenLoopCell measure_open_loop(const sim::Setup& setup, double rate,
                               bool batching, int repeats) {
  sim::EventEngineOptions options;
  options.default_link = delta::net::LinkModel{12.5e6, 0.040};  // 100 Mbit WAN
  options.series_stride = 5000;
  options.open_loop.enabled = true;
  options.open_loop.arrival = workload::ArrivalProcess::Kind::kPoisson;
  options.open_loop.rate_per_sec = rate;
  options.open_loop.max_in_flight = 64;
  options.open_loop.response_sample_cap = 100'000;
  options.notice_batching.enabled = batching;
  options.notice_batching.backlog_threshold_seconds = 0.0;

  OpenLoopCell cell;
  cell.rate_per_sec = rate;
  cell.batching = batching;
  const Bytes per_endpoint{
      static_cast<std::int64_t>(setup.cache_capacity().as_double() / 2.0)};
  RepeatWalls walls;
  for (int rep = 0; rep < repeats; ++rep) {
    const sim::EventRunResult r = sim::run_one_event(
        sim::PolicyKind::kBenefit, setup.trace(), per_endpoint, setup.params(),
        2, workload::SplitStrategy::kRoundRobin, options);
    walls.add(r.replay.combined.wall_seconds);
    if (rep == 0) {
      cell.sim_duration_seconds = r.sim_duration_seconds;
      cell.response_p50 = r.response_p50();
      cell.response_p99 = r.response_p99();
      cell.dispatch_lag_mean = r.dispatch_lag_seconds.mean();
      cell.delivered_messages = r.delivered_messages;
      cell.notice_messages = r.notice_messages;
      cell.coalesced_notices = r.coalesced_notices;
    }
  }
  cell.rate = Throughput::of(
      walls, static_cast<std::int64_t>(setup.trace().order.size()));
  return cell;
}

void emit_json(std::ostream& os, const sim::SetupParams& params, int repeats,
               bool smoke, const SingleResult& single,
               const std::vector<ObjectScalingCell>& scaling,
               const EventResult& event,
               const std::vector<NSweepCell>& nsweep,
               const std::vector<OpenLoopCell>& open_loop) {
  os << "{\n";
  os << "  \"bench\": \"bench_trajectory\",\n";
  os << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n";
  os << "  \"config\": {\"queries\": " << params.trace.query_count
     << ", \"updates\": " << params.trace.update_count
     << ", \"objects\": " << params.object_target
     << ", \"cache_frac\": " << params.cache_fraction
     << ", \"seed\": " << params.trace_seed << ", \"repeats\": " << repeats
     << "},\n";
  os << "  \"single_cache\": {\n"
     << "    \"events\": " << single.events << ",\n"
     << "    " << single.rate << "\n"
     << "    \"postwarmup_traffic_bytes\": " << single.postwarmup_traffic
     << ",\n"
     << "    \"cache_answers\": " << single.cache_answers << ",\n"
     << "    \"solver\": {\"bfs_searches\": " << single.solver_bfs
     << ", \"covers_computed\": " << single.covers_computed << "},\n"
     << "    \"postwarmup_latency_seconds\": {\"p50\": " << single.latency_p50
     << ", \"p90\": " << single.latency_p90
     << ", \"p99\": " << single.latency_p99 << "}\n"
     << "  },\n";
  // Object-count scaling: same zipfian YCSB-B mix, growing key space,
  // single-cache VCover. bfs/covers per event must stay flat (sublinear in
  // objects) — the per-decision solver-work pin.
  os << "  \"object_scaling\": [\n";
  for (std::size_t i = 0; i < scaling.size(); ++i) {
    const ObjectScalingCell& cell = scaling[i];
    os << "    {\"objects\": " << cell.objects
       << ", \"events\": " << cell.events
       << ", \"generate_seconds\": " << cell.generate_seconds << ", "
       << cell.rate << "\"cache_answers\": " << cell.cache_answers
       << ", \"postwarmup_traffic_bytes\": " << cell.postwarmup_traffic
       << ",\n     \"solver\": {\"bfs_searches\": " << cell.solver_bfs
       << ", \"covers_computed\": " << cell.covers_computed
       << ", \"bfs_per_event\": " << cell.bfs_per_event
       << ", \"covers_per_event\": " << cell.covers_per_event << "}}"
       << (i + 1 < scaling.size() ? "," : "") << "\n";
  }
  os << "  ],\n";
  // Same workload through the event-driven engine; "single_cache" above is
  // the synchronous baseline for both throughput and (proxy) latency.
  os << "  \"event_engine\": {\n"
     << "    " << event.rate << "\n"
     << "    \"events_per_sec_vs_sync\": "
     << event.rate.events_per_sec /
            std::max(single.rate.events_per_sec, 1e-9)
     << ",\n"
     << "    \"events_per_sec_vs_sync_median\": "
     << event.rate.events_per_sec_median /
            std::max(single.rate.events_per_sec_median, 1e-9)
     << ",\n"
     << "    \"postwarmup_traffic_bytes\": " << event.postwarmup_traffic
     << ",\n"
     << "    \"simulated_response_seconds\": {\"p50\": " << event.response_p50
     << ", \"p99\": " << event.response_p99 << "},\n"
     << "    \"dispatch_lag_mean_seconds\": " << event.dispatch_lag_mean
     << ",\n"
     << "    \"staleness_mean_seconds\": " << event.staleness_mean << ",\n"
     << "    \"server_uplink_busy_seconds\": " << event.uplink_busy_seconds
     << "\n  },\n";
  // Fleet-size sweep: critical_path_speedup tracked at N up to 64 (T=1 —
  // see NSweepCell), load-balanced LPT split (per-row "strategy").
  // Wall-clock speedup is left to the benchmark's paper_wan_parallel: it
  // measures the host's core count as much as the engine. "balance" is the
  // measured max/mean routed-query ratio the critical path is bounded by.
  os << "  \"n_sweep\": [\n";
  for (std::size_t i = 0; i < nsweep.size(); ++i) {
    const NSweepCell& n = nsweep[i];
    os << "    {\"endpoints\": " << n.endpoints << ", \"strategy\": \""
       << workload::to_string(workload::SplitStrategy::kBalancedByLoad)
       << "\", \"threads\": 1, " << n.rate
       << "\n     \"critical_path_speedup\": " << n.critical_path_speedup
       << ", \"balance\": " << n.balance
       << ", \"steal_count\": " << n.steal_count << "}"
       << (i + 1 < nsweep.size() ? "," : "") << "\n";
  }
  os << "  ],\n";
  // Open-loop drive: Poisson arrivals over a 100 Mbit/40 ms WAN through the
  // async policy API, N=2 round-robin, window 64 — response p50/p99 vs
  // arrival rate with congestion batching off/on. The batching delta
  // (notice_messages saved, coalesced_notices gained) is the tracked
  // figure; the conservation invariant notice+coalesced == unbatched-notice
  // is pinned by open_loop_engine_test for kAll-subscription policies.
  os << "  \"open_loop\": {\n"
     << "    \"link\": {\"bandwidth_bytes_per_sec\": 1.25e7, "
     << "\"latency_seconds\": 0.04},\n"
     << "    \"arrival\": \"poisson\",\n"
     << "    \"max_in_flight\": 64,\n"
     << "    \"cells\": [\n";
  for (std::size_t i = 0; i < open_loop.size(); ++i) {
    const OpenLoopCell& cell = open_loop[i];
    os << "      {\"rate_per_sec\": " << cell.rate_per_sec
       << ", \"batching\": " << (cell.batching ? "true" : "false")
       << ",\n       " << cell.rate
       << "\"sim_duration_seconds\": " << cell.sim_duration_seconds
       << ",\n       \"simulated_response_seconds\": {\"p50\": "
       << cell.response_p50 << ", \"p99\": " << cell.response_p99 << "}"
       << ", \"dispatch_lag_mean_seconds\": " << cell.dispatch_lag_mean
       << ",\n       \"delivered_messages\": " << cell.delivered_messages
       << ", \"notice_messages\": " << cell.notice_messages
       << ", \"coalesced_notices\": " << cell.coalesced_notices << "}"
       << (i + 1 < open_loop.size() ? "," : "") << "\n";
  }
  os << "    ]\n  }\n}\n";
}

}  // namespace

int main(int argc, char** argv) try {
  const auto cfg = util::Config::from_args(argc, argv);
  const bool smoke = cfg.get_bool("smoke", false);
  const int repeats = static_cast<int>(cfg.get_int("repeats", smoke ? 1 : 3));

  sim::SetupParams params = bench::setup_from_config(cfg);
  if (!cfg.has("queries")) {
    params.trace.query_count = smoke ? 2'000 : 40'000;
  }
  if (!cfg.has("updates")) {
    params.trace.update_count = smoke ? 2'000 : 40'000;
  }
  params.trace.postwarmup_query_gb =
      cfg.get_double("query_gb", 300.0) *
      static_cast<double>(params.trace.query_count) / 250'000.0;

  const sim::Setup setup{params};
  std::cerr << "bench_trajectory: " << setup.trace().order.size()
            << " events, repeats=" << repeats << (smoke ? " (smoke)" : "")
            << "\n";

  SingleResult single;
  EventResult event;
  measure_single_and_event(setup, repeats, single, event);
  std::cerr << "  single-cache: "
            << util::fixed(single.rate.events_per_sec / 1000.0, 1)
            << "k events/s (" << util::fixed(single.rate.wall_seconds_best, 3)
            << " s best)\n";

  // Object-count scaling sweep. Smoke caps the key space at 10^4 so the
  // sublinear-per-decision property is exercised on every CI run; the full
  // sweep carries the measured 10^6 figure.
  const std::vector<std::int64_t> scaling_objects =
      smoke ? std::vector<std::int64_t>{68, 10'000}
            : std::vector<std::int64_t>{68, 10'000, 1'000'000};
  const std::int64_t scaling_events =
      cfg.get_int("scaling_events", smoke ? 20'000 : 200'000);
  std::vector<ObjectScalingCell> scaling;
  for (const std::int64_t n : scaling_objects) {
    scaling.push_back(measure_object_scaling(
        n, scaling_events, /*cache_frac=*/0.30, params.trace_seed, repeats));
    const ObjectScalingCell& cell = scaling.back();
    std::cerr << "  object scaling n=" << n << ": "
              << util::fixed(cell.rate.events_per_sec / 1000.0, 1)
              << "k events/s, bfs/event="
              << util::fixed(cell.bfs_per_event, 4) << ", covers/event="
              << util::fixed(cell.covers_per_event, 4) << " (gen "
              << util::fixed(cell.generate_seconds, 2) << "s)\n";
  }

  std::cerr << "  event engine: "
            << util::fixed(event.rate.events_per_sec / 1000.0, 1)
            << "k events/s (" << util::fixed(event.rate.wall_seconds_best, 3)
            << " s best), simulated response p50="
            << util::fixed(event.response_p50, 3) << "s p99="
            << util::fixed(event.response_p99, 3) << "s\n";

  // Fleet-size sweep: N partitions, T=1, load-balanced LPT split.
  const std::vector<std::size_t> nsweep_endpoints =
      smoke ? std::vector<std::size_t>{4}
            : std::vector<std::size_t>{4, 16, 64};
  std::vector<NSweepCell> nsweep;
  for (const std::size_t n : nsweep_endpoints) {
    nsweep.push_back(measure_n_sweep(setup, n, repeats));
    const NSweepCell& cell = nsweep.back();
    std::cerr << "  n-sweep N=" << n << " T=1: "
              << util::fixed(cell.rate.events_per_sec / 1000.0, 1)
              << "k events/s, critical path x"
              << util::fixed(cell.critical_path_speedup, 2) << ", balance "
              << util::fixed(cell.balance, 3) << "\n";
  }

  // Open-loop drive sweep: response vs arrival rate, batching off then on.
  const std::vector<double> open_loop_rates =
      smoke ? std::vector<double>{500.0, 2000.0}
            : std::vector<double>{500.0, 2000.0, 8000.0};
  std::vector<OpenLoopCell> open_loop;
  for (const double rate : open_loop_rates) {
    for (const bool batching : {false, true}) {
      open_loop.push_back(measure_open_loop(setup, rate, batching, repeats));
      const OpenLoopCell& cell = open_loop.back();
      std::cerr << "  open loop rate=" << rate
                << (batching ? " batch=on " : " batch=off") << ": p50="
                << util::fixed(cell.response_p50, 3) << "s p99="
                << util::fixed(cell.response_p99, 3) << "s, notices="
                << cell.notice_messages << " coalesced="
                << cell.coalesced_notices << "\n";
    }
  }

  const std::string out = cfg.get_string("out", "-");
  if (out == "-") {
    emit_json(std::cout, params, repeats, smoke, single, scaling, event,
              nsweep, open_loop);
  } else {
    std::ofstream file{out};
    if (!file) {
      std::cerr << "cannot open " << out << " for writing\n";
      return 1;
    }
    emit_json(file, params, repeats, smoke, single, scaling, event, nsweep,
              open_loop);
    std::cerr << "wrote " << out << "\n";
  }
  return 0;
} catch (const std::invalid_argument& e) {
  return delta::util::report_bad_argument(e);
}
