#include "sim/simulator.h"

#include <chrono>

#include "sim/replica.h"
#include "util/check.h"

namespace delta::sim {

double proxy_response_seconds(const LatencyModel& latency,
                              const core::QueryOutcome& outcome) {
  switch (outcome.path) {
    case core::QueryOutcome::Path::kCacheFresh:
      return latency.local_exec_seconds;
    case core::QueryOutcome::Path::kCacheAfterUpdates:
      return latency.local_exec_seconds +
             latency.proxy_link.transfer_seconds(outcome.max_update_bytes);
    case core::QueryOutcome::Path::kShipped:
      return latency.server_exec_seconds +
             latency.proxy_link.transfer_seconds(outcome.result_bytes);
  }
  DELTA_CHECK_MSG(false, "unknown query outcome path");
  return 0.0;
}

RunResult run_policy(const workload::Trace& trace,
                     core::DeltaSystem& system, core::CachePolicy& policy,
                     std::int64_t series_stride,
                     const LatencyModel& latency,
                     util::QuantileSketch* latency_sink) {
  const auto start = std::chrono::steady_clock::now();
  ReplicaReplay replica;
  replay_replica(trace, system, policy, series_stride, latency, latency_sink,
                 replica);
  RunResult result;
  fold_combined({&replica}, series_stride, result);
  result.postwarmup_latency = replica.result.postwarmup_latency;
  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return result;
}

}  // namespace delta::sim
