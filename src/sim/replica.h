// The replica record and fold shared by both simulation loops, and the
// single-cache replay loop.
//
// A replica is one cache endpoint with its own repository copy. Every
// replica applies every update at the same point of the merged event
// sequence, so repository object sizes — the only state cache endpoints
// share — evolve identically in all of them, and replicas can replay
// independently (on any thread) and merge afterwards. This header holds
// the pieces the single-cache loop (sim/simulator.h) and the event engine
// (sim/event_engine.h) both use: the outcome counters, the meter
// snapshot, the per-replica output record and the combined-view fold,
// plus the single-cache replay loop itself.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "core/delta_system.h"
#include "core/policy.h"
#include "net/traffic_meter.h"
#include "sim/simulator.h"
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

/// The figure mechanisms' byte totals (query ship, update ship, load).
inline std::array<Bytes, 3> mechanism_snapshot(const net::TrafficMeter& m) {
  return {m.total(net::Mechanism::kQueryShip),
          m.total(net::Mechanism::kUpdateShip),
          m.total(net::Mechanism::kObjectLoad)};
}

/// What one replica contributes to a run: its endpoint's RunResult and its
/// whole-replica (aggregate) figures. Each replica holds one cache, so its
/// aggregate figure series is the endpoint's figure series; the aggregate
/// overhead also counts the chatter delivered to the repository.
struct ReplicaReplay {
  /// The per-endpoint view; fold_combined reads only its name and
  /// counters, so the single-cache loop fills no more than that (and the
  /// latency its run_policy copies out).
  RunResult result;
  /// Every message of a run lands in exactly one replica, so summing these
  /// pointwise reconstructs the combined series.
  util::CumulativeSeries aggregate_series;
  std::array<Bytes, 3> aggregate_at_warmup{};
  std::array<Bytes, 3> aggregate_final{};
  Bytes aggregate_total;
  Bytes aggregate_overhead;
};

/// Folds the replicas, in order, into the combined view: policy name,
/// counters, traffic and the pointwise series sum. The latency statistics
/// are left to the caller (the event engine merges them in the same
/// order).
void fold_combined(const std::vector<const ReplicaReplay*>& replicas,
                   std::int64_t series_stride, RunResult& combined);

/// The single-cache loop behind sim::run_policy: replays the merged trace
/// against the one replica `system` driven by `policy`, into `out` (the
/// counters and latency of out.result, and the aggregate figures
/// fold_combined reads). Post-warm-up response times also go to
/// `latency_sink` when non-null.
void replay_replica(const workload::Trace& trace, core::DeltaSystem& system,
                    core::CachePolicy& policy, std::int64_t series_stride,
                    const LatencyModel& latency,
                    util::QuantileSketch* latency_sink, ReplicaReplay& out);

}  // namespace delta::sim
