// The per-replica accounting shared by both simulation loops, and the
// single-cache replay loop.
//
// A replica is one repository copy (ServerNode) serving one cache endpoint
// (CacheNode). Every replica applies every update at the same point of the
// merged event sequence, so repository object sizes — the only state cache
// endpoints share — evolve identically in all of them, and replicas can
// replay independently (on any thread) and merge afterwards. This header
// holds the pieces the single-cache loop (sim/simulator.h) and the event
// engine (sim/event_engine.h) both use — the outcome counters and the
// traffic ledger that fills a replica's RunResult from its cache's meter —
// plus the single-cache replay loop itself.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "core/delta_system.h"
#include "core/policy.h"
#include "net/traffic_meter.h"
#include "sim/simulator.h"
#include "util/check.h"
#include "util/stats.h"
#include "util/timeseries.h"
#include "workload/trace.h"

namespace delta::sim {

/// Bumps the decision counter for the path a query took, and the loads it
/// caused. RunResult::queries is counted at dispatch by the caller (an
/// open-loop query completes later).
inline void count_outcome(RunResult& r, const core::QueryOutcome& outcome) {
  switch (outcome.path) {
    case core::QueryOutcome::Path::kCacheFresh:
      ++r.cache_fresh;
      break;
    case core::QueryOutcome::Path::kCacheAfterUpdates:
      ++r.cache_after_updates;
      break;
    case core::QueryOutcome::Path::kShipped:
      ++r.shipped;
      break;
  }
  r.objects_loaded += outcome.objects_loaded;
}

/// One replica's traffic accounting, read off its cache endpoint's meter
/// into its RunResult: a snapshot when the measurement window opens, one
/// cumulative-series point per event, and the traffic figures at the end
/// of the run. The cache's meter alone holds the replica's figures: the
/// repository endpoint only ever receives requests and eviction notices,
/// all overhead (finish() checks this).
class TrafficLedger {
 public:
  /// Resets `result`'s series and warm-up boundary, and snapshots the
  /// meter at once when the window opens at event 0.
  TrafficLedger(const net::TrafficMeter& cache_meter, EventTime warmup_end,
                std::int64_t series_stride, RunResult& result)
      : meter_(cache_meter), warmup_end_(warmup_end), result_(result) {
    result_.warmup_end = warmup_end;
    result_.series = util::CumulativeSeries{series_stride};
    if (warmup_end == 0) open_window();
  }

  /// Before the traffic of the event at `now`: opens the measurement
  /// window if this event is the first inside it.
  void before_event(EventTime now) {
    if (!window_open_ && now >= warmup_end_) open_window();
  }

  /// After the event at `now`: its cumulative series point.
  void after_event(EventTime now) {
    result_.series.observe(now, meter_.figure_total().as_double());
  }

  /// Once every message of the run has landed: fills the result's traffic
  /// figures. Returns the overhead delivered to the repository endpoint,
  /// whose meter `server_meter` must hold no figure bytes.
  Bytes finish(const net::TrafficMeter& server_meter) {
    if (!window_open_) open_window();  // warm-up spanned the whole run
    result_.series.finalize();
    result_.total_traffic = meter_.figure_total();
    const std::array<Bytes, 3> final_by = figure_snapshot();
    for (std::size_t m = 0; m < 3; ++m) {
      result_.postwarmup_by_mechanism[m] = final_by[m] - at_warmup_[m];
      result_.postwarmup_traffic += result_.postwarmup_by_mechanism[m];
    }
    result_.overhead_traffic = meter_.total(net::Mechanism::kOverhead);
    DELTA_CHECK(server_meter.figure_total() == Bytes{0});
    return server_meter.total(net::Mechanism::kOverhead);
  }

 private:
  /// The figure mechanisms' byte totals (query ship, update ship, load).
  [[nodiscard]] std::array<Bytes, 3> figure_snapshot() const {
    return {meter_.total(net::Mechanism::kQueryShip),
            meter_.total(net::Mechanism::kUpdateShip),
            meter_.total(net::Mechanism::kObjectLoad)};
  }
  void open_window() {
    at_warmup_ = figure_snapshot();
    window_open_ = true;
  }

  const net::TrafficMeter& meter_;
  EventTime warmup_end_;
  RunResult& result_;
  std::array<Bytes, 3> at_warmup_{};
  bool window_open_ = false;
};

/// The single-cache loop's lookahead: while it handles event i it
/// prefetches the per-object rows event i + kLookaheadDistance will touch
/// (the repository's size row and the policy's rows, through the cache's
/// prefetch hook). Only repositories of at least kLookaheadMinObjects
/// objects turn it on: below that the rows stay in the CPU caches and the
/// extra instructions cost more than the misses they would hide (measured
/// sweep: README, "Million-object data plane"). A prefetch changes no
/// result.
inline constexpr std::size_t kLookaheadDistance = 16;
inline constexpr std::size_t kLookaheadMinObjects = std::size_t{1} << 16;

/// The single-cache loop behind sim::run_policy: replays the merged trace
/// against the one replica `system` driven by `policy` and returns the
/// replica's result, its overhead including the chatter delivered to the
/// repository (everything but wall_seconds). Post-warm-up response times
/// also go to `latency_sink` when non-null.
RunResult replay_replica(const workload::Trace& trace,
                         core::DeltaSystem& system, core::CachePolicy& policy,
                         std::int64_t series_stride,
                         const LatencyModel& latency,
                         util::QuantileSketch* latency_sink);

}  // namespace delta::sim
