// The discrete-event driver: replays a trace's merged query/update sequence
// through a DeltaSystem + CachePolicy pair and collects the measurements
// every figure plots — cumulative network traffic (total and per
// mechanism), decision counts, and the response-time proxy.
#pragma once

#include <array>
#include <memory>
#include <string>

#include "core/delta_system.h"
#include "core/policy.h"
#include "net/link_model.h"
#include "util/stats.h"
#include "util/timeseries.h"
#include "workload/trace.h"

namespace delta::sim {

struct RunResult {
  std::string policy_name;

  /// Figure traffic (query ship + update ship + object load), whole run.
  Bytes total_traffic;
  /// Traffic accumulated after the warm-up boundary — what the paper's
  /// figures report.
  Bytes postwarmup_traffic;
  std::array<Bytes, 3> postwarmup_by_mechanism{};  // ship / update / load
  Bytes overhead_traffic;  // headers + control chatter (not in figures)

  /// Cumulative figure traffic along the whole event sequence.
  util::CumulativeSeries series{2000};
  EventTime warmup_end = 0;

  std::int64_t queries = 0;
  std::int64_t cache_fresh = 0;
  std::int64_t cache_after_updates = 0;
  std::int64_t shipped = 0;
  std::int64_t objects_loaded = 0;

  /// Response-time proxy over post-warm-up queries (seconds).
  util::StreamingStats postwarmup_latency;

  double wall_seconds = 0.0;

  /// Post-warm-up cumulative traffic at an event index (rebased to zero at
  /// the warm-up boundary).
  [[nodiscard]] double postwarmup_value_at(EventTime t) const {
    return series.value_at(t) - series.value_at(warmup_end);
  }
};

struct LatencyModel {
  double local_exec_seconds = 0.05;
  double server_exec_seconds = 0.10;
  /// Link the single-cache loop's analytic response-time proxy is priced
  /// against. The event-driven engine (sim/event_engine.h) ignores this and
  /// *simulates* transfer/queueing time on its configured per-link models.
  net::LinkModel proxy_link = net::LinkModel{};
};

/// The single-cache loop's analytic response-time proxy: execution time for
/// the path taken plus the closed-form transfer time of the bytes it moved.
/// This is the one remaining transfer_seconds yardstick call site — the
/// event-driven engine replaces the estimate with simulated latencies.
[[nodiscard]] double proxy_response_seconds(const LatencyModel& latency,
                                            const core::QueryOutcome& outcome);

/// Replays the trace through the policy over the caller's system, one
/// event at a time with every message delivered inline (the single-cache
/// loop; sim/event_engine.h is the N-endpoint engine). The system must
/// have been freshly constructed from the same trace (server sizes start
/// at the initial state). When `latency_sink` is non-null every post-warm-up
/// per-query latency sample is also appended to it (the perf-trajectory bench uses
/// this for percentiles; RunResult itself only carries streaming moments).
RunResult run_policy(const workload::Trace& trace,
                     core::DeltaSystem& system, core::CachePolicy& policy,
                     std::int64_t series_stride = 2000,
                     const LatencyModel& latency = LatencyModel{},
                     util::QuantileSketch* latency_sink = nullptr);

}  // namespace delta::sim
