// Seeded, deterministic fault injection for DelayedTransport, and
// ChaosYardsticks, the record every failure/recovery counter lives in.
//
// A FaultPlan describes *which* links misbehave and *how*: per-link
// drop/duplicate/reorder probabilities plus scheduled partitions (down/heal
// windows in simulated seconds). Every random draw comes from a splitmix64
// stream keyed by (link key, per-link message sequence number), so the fate
// of the n-th message on a link is a pure function of the plan seed and the
// endpoint names — independent of thread count, shard interleaving, or
// wall-clock anything. That is what makes chaos runs reproducible instead of
// flaky: the same plan over the same trace yields bit-identical yardsticks
// at T=1 and T=8.
//
// The zero-fault contract: a plan that is disabled — or enabled but with no
// nonzero probability and no partition window anywhere — must leave every
// run byte-identical to a build without the fault layer at all. The
// transport enforces this by gating every fault hook (including the
// fast-path changes) on "some link actually has a fault".
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

namespace delta::net {

/// Per-link fault probabilities. All default to zero (= no faults).
struct LinkFaults {
  /// Probability a message is silently lost after paying its serialization
  /// (the sender can't know the wire ate it, so the egress link stays busy).
  double drop = 0.0;
  /// Probability the link delivers a second copy of the message. The copy
  /// shares the original's timing and lands right after it (event order),
  /// modeling a retransmit artifact rather than a second serialization.
  double duplicate = 0.0;
  /// Probability a message's delivery is deferred by a uniform draw in
  /// (0, reorder_max_delay_seconds], letting later sends overtake it.
  double reorder = 0.0;
  double reorder_max_delay_seconds = 0.050;

  [[nodiscard]] bool any() const {
    return drop > 0.0 || duplicate > 0.0 || reorder > 0.0;
  }
};

/// Half-open outage window [down, heal) in simulated seconds: messages
/// whose send instant falls inside are dropped (partition semantics — both
/// requests and replies die, the sender only learns via timeout).
struct FaultWindow {
  double down_seconds = 0.0;
  double heal_seconds = 0.0;

  [[nodiscard]] bool covers(double t) const {
    return t >= down_seconds && t < heal_seconds;
  }
};

/// Probabilistic faults on one directed link (or both directions when
/// duplex). Empty `from` means the external-sender row (messages injected
/// from outside any registered endpoint, e.g. the replay driver).
struct LinkFaultRule {
  std::string from;
  std::string to;
  bool duplex = true;
  LinkFaults faults;
};

/// Scheduled partition of one link: every message sent inside any window
/// is dropped. Windows may overlap; they are checked linearly (plans hold
/// a handful at most).
struct LinkPartition {
  std::string from;
  std::string to;
  bool duplex = true;
  std::vector<FaultWindow> windows;
};

/// Crash-stop schedule for one endpoint *process* (ISSUE 10). Each window
/// [down, heal) kills the named endpoint at `down_seconds` (its soft state
/// is wiped by the engine's crash event) and restarts it — cold — at
/// `heal_seconds`. While down, the transport drops every message the
/// endpoint would send (its send instant falls in a window) or receive
/// (its *final* delivery instant falls in a window). Heal instants must be
/// finite: they bound the retry ladders of in-flight requests the same way
/// partition heals do.
struct CrashSchedule {
  std::string name;
  std::vector<FaultWindow> windows;
};

/// The full fault configuration handed to DelayedTransport::set_fault_plan.
struct FaultPlan {
  bool enabled = false;
  std::uint64_t seed = 0x5eedFa017ULL;
  /// Faults applied to every link that no rule matches.
  LinkFaults default_faults;
  std::vector<LinkFaultRule> rules;
  std::vector<LinkPartition> partitions;
  /// Crash-stop endpoint failures. A schedule with no windows is inert and
  /// keeps the zero-fault byte-identity contract.
  std::vector<CrashSchedule> crashes;
};

/// Every failure/recovery counter of a run, declared once here as
/// X(type, name, rule). DelayedTransport, ServerNode and CacheNode each own
/// one ChaosYardsticks record and bump only their own fields; the event
/// engine folds the replicas' records with merge() in shard order. `sum`
/// fields add across records, `max` fields keep the largest value. Every
/// field is 8 bytes wide, so the record has no padding and compares and
/// fingerprints bytewise. All zero when faults, protocol hardening and
/// admission are off.
#define DELTA_CHAOS_YARDSTICKS(X)                                             \
  /* ---- CacheNode: client side of the hardened protocol ---- */             \
  X(std::int64_t, timeouts, sum)                                              \
  X(std::int64_t, retries, sum)                                               \
  /* Requests that exhausted their attempt budget (completed empty). */       \
  X(std::int64_t, failed_requests, sum)                                       \
  /* Replies that arrived after their request was retired. */                 \
  X(std::int64_t, late_replies, sum)                                          \
  /* Notices already applied (duplicate delivery or resync replay). */        \
  X(std::int64_t, duplicate_notices_suppressed, sum)                          \
  /* Replies carrying a kQueryReject (the server shed the query). */          \
  X(std::int64_t, shed_replies, sum)                                          \
  /* Epoch resyncs and crash recoveries launched. */                          \
  X(std::int64_t, resyncs, sum)                                               \
  /* Invalidation ids replayed by kResyncData (applied or not). */            \
  X(std::int64_t, replayed_notices, sum)                                      \
  /* Distinct invalidation ids applied (first deliveries). */                 \
  X(std::int64_t, notices_applied, sum)                                       \
  /* Simulated seconds spent with the server suspected unreachable. */        \
  X(double, unavailable_seconds, sum)                                         \
  /* Largest (now - ingest) gap a resync replay repaired. */                  \
  X(double, max_recovery_staleness_seconds, max)                              \
  /* ---- ServerNode ---- */                                                  \
  X(std::int64_t, shed_queries, sum)                                          \
  /* Requests the dedup window swallowed (duplicates, answered retries). */   \
  X(std::int64_t, request_duplicates_suppressed, sum)                         \
  X(std::int64_t, resyncs_served, sum)                                        \
  /* Notices the server owed its caches: every logged notice except the       \
     batched ones a server crash retracted before they reached the wire.      \
     After heal + resync it equals the caches' notices_applied. */            \
  X(std::int64_t, notices_logged, sum)                                        \
  /* ---- policy (counted on its CacheNode) ---- */                           \
  /* Queries answered stale-within-tolerance under overload. */               \
  X(std::int64_t, degraded_queries, sum)                                      \
  /* ---- DelayedTransport: what the fault plan actually did ---- */          \
  X(std::int64_t, faults_dropped, sum)                                        \
  X(std::int64_t, faults_duplicated, sum)                                     \
  X(std::int64_t, faults_reordered, sum)                                      \
  X(std::int64_t, partition_dropped, sum)                                     \
  /* ---- crash-stop endpoint failures ---- */                                \
  /* Process crashes fired (CacheNode and ServerNode). */                     \
  X(std::int64_t, crash_restarts, sum)                                        \
  /* Messages dropped because the sender was down at send time or the         \
     destination at delivery time (DelayedTransport). */                      \
  X(std::int64_t, crash_dropped, sum)                                         \
  /* Loads a recovering cache issued between restart and reconvergence. */    \
  X(std::int64_t, cold_misses, sum)                                           \
  /* Retries past kMaxAttempts on retry-forever kinds (loads, resyncs). */    \
  X(std::int64_t, budget_exceeded_retries, sum)                               \
  /* Scheduled down-time of the crash windows that fired (CacheNode and       \
     ServerNode): availability = 1 - this / sim duration. */                  \
  X(double, crash_downtime_seconds, sum)                                      \
  /* Slowest restart/detection -> recovery-resync-completion interval. */     \
  X(double, max_reconvergence_seconds, max)                                   \
  /* Largest ingest -> apply gap repaired by a crash-recovery resync. */      \
  X(double, post_restart_staleness_seconds, max)

struct ChaosYardsticks {
#define DELTA_CHAOS_DECLARE(type, name, rule) type name = 0;
  DELTA_CHAOS_YARDSTICKS(DELTA_CHAOS_DECLARE)
#undef DELTA_CHAOS_DECLARE

  /// Folds `other` into this record, field by field under its rule.
  ChaosYardsticks& merge(const ChaosYardsticks& other) {
#define DELTA_CHAOS_MERGE(type, name, rule) \
  name = rule##_rule(name, other.name);
    DELTA_CHAOS_YARDSTICKS(DELTA_CHAOS_MERGE)
#undef DELTA_CHAOS_MERGE
    return *this;
  }

  bool operator==(const ChaosYardsticks&) const = default;

 private:
  template <typename T>
  static T sum_rule(T a, T b) {
    return a + b;
  }
  template <typename T>
  static T max_rule(T a, T b) {
    return std::max(a, b);
  }
};

#define DELTA_CHAOS_COUNT(type, name, rule) +1
inline constexpr std::size_t kChaosYardstickCount =
    0 DELTA_CHAOS_YARDSTICKS(DELTA_CHAOS_COUNT);
#undef DELTA_CHAOS_COUNT
static_assert(std::is_trivially_copyable_v<ChaosYardsticks>);
static_assert(sizeof(ChaosYardsticks) == 8 * kChaosYardstickCount,
              "every chaos yardstick must be 8 bytes wide (no padding)");

// ---- deterministic draw helpers ------------------------------------------

/// splitmix64 finalizer: one statelessly-mixed 64-bit output per input.
[[nodiscard]] inline std::uint64_t fault_mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// FNV-1a over an endpoint name — stable link identity that does not depend
/// on registration order, so grow_link_grid can rebuild the fault grid
/// without perturbing any link's stream.
[[nodiscard]] inline std::uint64_t fault_name_hash(const std::string& name) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : name) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Stream key for the directed link from->to under `seed`.
[[nodiscard]] inline std::uint64_t fault_link_key(std::uint64_t seed,
                                                 const std::string& from,
                                                 const std::string& to) {
  return fault_mix64(seed ^ fault_mix64(fault_name_hash(from)) ^
                     (fault_name_hash(to) * 0x9e3779b97f4a7c15ULL));
}

/// Uniform double in [0, 1) from a mixed 64-bit word.
[[nodiscard]] inline double fault_u01(std::uint64_t mixed) {
  return static_cast<double>(mixed >> 11) * 0x1.0p-53;
}

}  // namespace delta::net
