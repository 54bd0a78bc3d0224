// Protocol-hardening and admission-control knobs (ISSUE 8).
//
// With a fault-injecting transport (net/fault_plan.h) a request or its
// reply can vanish, arrive twice, or arrive late. ProtocolOptions arms the
// cache side with per-request deadlines (timeout -> retry with exponential
// backoff, deterministic jitter, bounded attempt budget), the server side
// with a correlation-id dedup window (retries and duplicated deliveries are
// idempotent), and both sides with a registration-epoch resync so a cache
// that lived through a partition replays the invalidations it missed
// instead of serving indefinitely stale answers.
//
// AdmissionOptions is the overload controller from the ROADMAP follow-on:
// under measured egress backlog or in-flight pressure the server sheds
// (rejects with accounting) and the policy degrades (serves stale answers
// that still satisfy the query's t(q) tolerance) instead of collapsing.
//
// Everything defaults OFF. All golden-table configs run with both structs
// untouched, and every consumer gates on `enabled` before changing any
// behavior — the byte-identity contract of the seed tables is preserved by
// construction.
#pragma once

#include <cstddef>
#include <cstdint>

#include "util/types.h"

namespace delta::core {

/// Consecutive request failures (timeouts) before a cache suspects a
/// partition; the first success after suspicion triggers an epoch resync.
inline constexpr std::int32_t kPartitionSuspectThreshold = 2;
/// Entries in the server's per-cache (correlation, attempt) dedup ring.
inline constexpr std::size_t kDedupWindow = 64;
/// First-attempt request deadline, in simulated seconds. It sits above the
/// deployed RTT plus typical queueing: the retry path is for *lost*
/// messages, not slow ones.
inline constexpr double kRequestTimeoutSeconds = 0.25;
/// Each retry multiplies the deadline by this factor, up to the cap below.
inline constexpr double kBackoffFactor = 2.0;
inline constexpr double kMaxTimeoutSeconds = 2.0;
/// Uniform jitter of +/- this fraction on each deadline, drawn from
/// (kJitterSeed, correlation id, attempt): it desynchronizes retry storms
/// without perturbing reproducibility.
inline constexpr double kJitterFraction = 0.1;
inline constexpr std::uint64_t kJitterSeed = 0x9d57ea7ba11u;
/// Total transmissions per request. Exhausting the budget completes the
/// request with an empty payload and counts a failed_request — bounded
/// liveness even under a hard partition.
inline constexpr std::int32_t kMaxAttempts = 4;

/// Timeout/retry/dedup/resync switch, shared by CacheNode (client side) and
/// ServerNode (server side).
struct ProtocolOptions {
  bool enabled = false;
};

/// Overload controller: shed at the server, degrade at the policy.
struct AdmissionOptions {
  bool enabled = false;
  /// Server sheds a query when its reply-link backlog exceeds this.
  double shed_backlog_seconds = 1.0;
  /// Policy serves degraded (stale-within-tolerance) answers when its
  /// uplink backlog exceeds this...
  double degrade_backlog_seconds = 0.25;
  /// ...or when this many correlated requests are already in flight
  /// (0 = no in-flight trigger).
  std::int64_t degrade_in_flight = 0;
  /// Extra staleness (trace ticks) a degraded answer may carry beyond the
  /// query's own t(q) tolerance. 0 = degraded answers still honor t(q)
  /// exactly (the "stale-within-tolerance" regime).
  EventTime degrade_extra_tolerance = 0;
};

}  // namespace delta::core
