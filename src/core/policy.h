// The cache-policy strategy interface: how the middleware reacts to each
// arriving query and update. Implementations: VCoverPolicy (the paper's
// contribution), BenefitPolicy (§5 comparator), and the yardsticks
// NoCachePolicy / ReplicaPolicy / SOptimalPolicy (§6.1).
#pragma once

#include <cstdint>
#include <type_traits>
#include <vector>

#include "core/protocol.h"
#include "util/types.h"
#include "workload/events.h"

namespace delta::core {

/// How a query was satisfied, with enough detail for the latency model.
struct QueryOutcome {
  enum class Path : std::uint8_t {
    kCacheFresh,         // answered at cache, no update wait
    kCacheAfterUpdates,  // answered at cache after shipping updates
    kShipped,            // routed to the repository
  };
  Path path = Path::kShipped;
  /// Largest single update shipped synchronously for this query (drives the
  /// response-time proxy: updates ship in parallel).
  Bytes max_update_bytes;
  /// Total update bytes shipped by this query's cover decision.
  Bytes updates_shipped_bytes;
  /// Result bytes if the query was shipped (ν(q)); zero otherwise.
  Bytes result_bytes;
  /// Objects loaded in the background because of this query.
  int objects_loaded = 0;
  /// Updates shipped by this query's cover decision (empty for policies
  /// that ship updates on arrival). Used by the currency-invariant tests.
  std::vector<UpdateId> shipped_update_ids;
};

class CachePolicy {
 public:
  virtual ~CachePolicy() = default;

  /// An update arrived at the repository (the simulator has already applied
  /// it server-side). The policy reacts per its design: ship it, record it
  /// as outstanding, or ignore it.
  virtual void on_update(const workload::Update& u) = 0;

  /// A query arrived at the cache; the policy must satisfy it within its
  /// currency requirement and report how.
  virtual QueryOutcome on_query(const workload::Query& q) = 0;

  /// Completion for on_query_async: `fn(ctx, tag, outcome)` fires exactly
  /// once, when every reply the query's decision required has been
  /// delivered (or failed empty). The outcome reference is valid only for
  /// the duration of the call. A typed, trivially copyable record in the
  /// style of util::EventQueue's events: the caller parks its per-query
  /// state behind `ctx`/`tag` (the event engine passes its shard and an
  /// in-flight slot), so an async dispatch allocates nothing.
  ///
  /// Re-entrancy rule: `done` must not begin another query on the same
  /// policy (it runs inside a reply delivery, while the policy's context
  /// pool is releasing the finished slot); the policies DCHECK it.
  struct QueryDone {
    using Fn = void (*)(void* ctx, std::uint64_t tag,
                        const QueryOutcome& outcome);
    Fn fn = nullptr;
    void* ctx = nullptr;
    std::uint64_t tag = 0;
    void operator()(const QueryOutcome& outcome) const {
      fn(ctx, tag, outcome);
    }
  };

  /// Non-blocking variant of on_query, for open-loop engines that keep
  /// many queries in flight per cache. The contract: the policy makes the
  /// same decisions as on_query and applies all of its state transitions
  /// synchronously at dispatch (decisions never depend on reply payloads —
  /// replies only carry sizes), issues its traffic through the CacheNode
  /// *_async API, and calls `done` once the last reply for this query has
  /// landed. The default adapter runs the synchronous on_query, which is
  /// correct over any transport (the sync façade pumps the event queue)
  /// but closed-loop — it admits no overlap. Policies override it to
  /// sustain a real in-flight window.
  virtual void on_query_async(const workload::Query& q, QueryDone done) {
    done(on_query(q));
  }

  /// Open-loop engines keep many queries in flight per cache; a policy
  /// whose invalidation handler does a blocking refresh per notice would
  /// serialize the entire arrival drive behind one round trip (and, under
  /// a partition, behind one retry ladder). Policies that can ship their
  /// refresh traffic through the *_async API switch here; the default
  /// ignores it (handlers that are already non-blocking, or whose
  /// blocking refresh is the modeled behavior).
  virtual void set_nonblocking_invalidations(bool on) { (void)on; }

  /// Arms the policy-side overload path: under uplink pressure a policy
  /// may serve a degraded (stale-but-within-tolerance) answer instead of
  /// adding load to a congested server. Default: ignored — most policies
  /// have no degraded mode.
  virtual void set_admission(const AdmissionOptions& options) {
    (void)options;
  }
  /// Queries answered degraded under overload (0 for policies without a
  /// degraded mode).
  [[nodiscard]] virtual std::int64_t degraded_queries() const { return 0; }

  /// Crash-stop fault injection (ISSUE 10): the cache process hosting this
  /// policy died and restarted cold. All in-memory policy state — store
  /// contents, pending-update bookkeeping, popularity/heat signals — is
  /// lost; run counters are instruments of the experiment, not process
  /// memory, and survive. The engine calls this one event after
  /// CacheNode::crash_restart(), never under a live dispatch frame.
  /// Default: no-op, for yardstick policies whose "store" is implicit
  /// (NoCache ships everything; Replica's content is the repository's;
  /// SOptimal's chosen set is offline configuration, not soft state).
  virtual void on_crash_restart() {}

  [[nodiscard]] virtual const char* name() const = 0;
};

static_assert(std::is_trivially_copyable_v<CachePolicy::QueryDone>,
              "QueryDone is a plain {fn, ctx, tag} record");

}  // namespace delta::core
