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

/// Timeout/retry/dedup/resync configuration, shared by CacheNode (client
/// side) and ServerNode (server side).
struct ProtocolOptions {
  bool enabled = false;
  /// First-attempt deadline. Pick > the deployed RTT plus typical queueing;
  /// the retry path is for *lost* messages, not slow ones.
  double timeout_seconds = 0.25;
  /// Deadline grows by this factor per attempt, capped below.
  double backoff_factor = 2.0;
  double max_timeout_seconds = 2.0;
  /// Uniform jitter of +/- this fraction on each backoff deadline, drawn
  /// deterministically from (seed, correlation id, attempt) — desynchronizes
  /// retry storms without perturbing reproducibility.
  double jitter_fraction = 0.1;
  /// Total transmissions per request (1 = never retry). Exhausting the
  /// budget completes the request with an empty payload and counts a
  /// failed_request — bounded liveness even under a hard partition.
  std::int32_t max_attempts = 4;
  std::uint64_t seed = 0x9d57ea7ba11u;
  /// Crash-stop liveness (ISSUE 10): on first suspicion, immediately launch
  /// an epoch resync as a probe. Resyncs retry past the attempt budget, so
  /// the probe doubles as heal detection — and its reply carries the
  /// server's incarnation stamp, which is how a cache discovers that the
  /// server it suspected actually died and restarted (and must be
  /// re-registered, not just resynced). The engine arms this automatically
  /// for any run whose fault plan schedules crashes.
  bool probe_on_suspect = false;
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

/// Per-cache failure/recovery yardsticks, accumulated by CacheNode and
/// merged (in shard order) into the engine's chaos totals.
struct ProtocolStats {
  std::int64_t timeouts = 0;
  std::int64_t retries = 0;
  /// Requests that exhausted their attempt budget (completed empty).
  std::int64_t failed_requests = 0;
  /// Replies that arrived after their request was retired (timed out or
  /// already answered by an earlier attempt).
  std::int64_t late_replies = 0;
  /// Invalidation notices whose id was already applied (duplicate delivery
  /// or resync replay of a notice that did arrive).
  std::int64_t duplicate_notices = 0;
  /// Replies carrying a kQueryReject (the server shed the query).
  std::int64_t shed_replies = 0;
  /// Epoch resyncs run after a suspected partition healed.
  std::int64_t resyncs = 0;
  /// Invalidation ids replayed by kResyncData (applied or not).
  std::int64_t replayed_notices = 0;
  /// Distinct invalidation ids actually applied (first deliveries).
  std::int64_t notices_applied = 0;
  /// Simulated seconds spent with the server suspected unreachable.
  double unavailable_seconds = 0.0;
  /// Staleness spike: the largest (now - ingest) gap over all notices
  /// applied from a resync replay — how stale the cache had silently become
  /// before recovery caught it up.
  double max_recovery_staleness_seconds = 0.0;

  // ---- crash-stop endpoint faults (ISSUE 10) ----

  /// Times this cache process crashed and restarted.
  std::int64_t crash_restarts = 0;
  /// Loads issued while the cache was rewarming after a crash (from the
  /// wipe until its recovery resync completed) — the cold-miss burst.
  std::int64_t cold_misses = 0;
  /// Retries of budget-exempt requests (kLoadData/kResyncData expected
  /// replies) issued beyond max_attempts — the retry-past-budget behavior
  /// those kinds are documented to have, made countable.
  std::int64_t budget_exceeded_retries = 0;
  /// Largest restart/detection -> recovery-resync-completion gap: the
  /// time-to-reconvergence yardstick.
  double max_reconvergence_seconds = 0.0;
  /// Largest (now - ingest) gap over notices replayed by a *crash recovery*
  /// resync — the post-restart staleness spike (also folded into
  /// max_recovery_staleness_seconds).
  double post_restart_staleness_seconds = 0.0;
};

}  // namespace delta::core
