// CacheNode: a cache client endpoint of the middleware (Figure 1).
//
// It is the surface the cache policies program against: ship a query, ship
// an update, bulk-load an object, notify an eviction — each call is a real
// request message to the ServerNode whose data-bearing reply comes back over
// the transport, so the TrafficMeter sees exactly what the paper's cost
// model counts:
//   query shipping  = QueryRequest (overhead) + QueryResult (ν(q))
//   update shipping = control request (overhead) + UpdateShip (ν(u))
//   object loading  = LoadRequest (overhead) + LoadData (l(o))
// plus Invalidation notices (overhead) from the server's registration-based
// coherence protocol. A CacheNode and its ServerNode are one replica: the
// cache binds the cache end of its server's wire, so the two cannot sit on
// different transports. The node owns its endpoint name and (through the
// wire) the cache end's traffic meter.
//
// The node is a non-blocking message-driven state machine: every request
// carries a fresh correlation id and is parked in a pending-request table
// until the matching reply is delivered, at which point the caller's
// completion fires with the reply's payload size. Completions are typed
// {fn, ctx, tag} records, so parking, retrying and completing a request
// allocate nothing. The *_async entry points expose this directly (over a
// DelayedTransport replies arrive when the simulated clock reaches them);
// the synchronous API is a façade that parks the same kind of completion
// over its stack locals and waits via Transport::wait_until — which
// returns immediately on LoopbackTransport (delivery was inline) and pumps
// the shared event queue on an event-driven transport. At zero link
// latency the two transports produce byte-identical traffic in identical
// order, which is what keeps the golden tables pinned.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <type_traits>
#include <vector>

#include "core/protocol.h"
#include "core/server_node.h"
#include "net/fault_plan.h"
#include "net/transport.h"
#include "util/check.h"
#include "util/event_queue.h"
#include "util/types.h"
#include "workload/trace.h"

namespace delta::core {

class CacheNode {
 public:
  /// `fn(ctx, tag, payload)` is invoked with the data-bearing reply's
  /// payload size (result bytes / update content / load bytes) when the
  /// reply is delivered, or with an empty payload when the request fails
  /// (attempt budget exhausted, or the cache crashed). A typed, trivially
  /// copyable record like util::EventQueue's events: callers park their
  /// state behind `ctx`/`tag`.
  struct Completion {
    using Fn = void (*)(void* ctx, std::uint64_t tag, Bytes payload);
    Fn fn = nullptr;
    void* ctx = nullptr;
    std::uint64_t tag = 0;
    void operator()(Bytes payload) const { fn(ctx, tag, payload); }
    /// For fire-and-forget requests: the reply is metered and dropped.
    static Completion discard() {
      return {[](void*, std::uint64_t, Bytes) {}, nullptr, 0};
    }
  };

  /// Binds the cache end of the server's wire, which must not hold another
  /// cache yet, under a name other than the server's. Trace and server
  /// outlive the node.
  CacheNode(const workload::Trace* trace, ServerNode* server,
            std::string name = "cache");

  CacheNode(const CacheNode&) = delete;
  CacheNode& operator=(const CacheNode&) = delete;

  [[nodiscard]] const std::string& name() const { return name_; }

  // ---- client API (called by policies) ----

  void set_subscription(MetadataSubscription subscription);

  /// Invoked when an invalidation notice is delivered.
  void set_invalidation_handler(
      std::function<void(const workload::Update&)> handler);

  /// A policy's per-object prefetch: `fn(context, o)` starts pulling the
  /// rows the policy will read when an event names object `o`. A replay
  /// loop calls it some events ahead of that event. It must only issue
  /// prefetches (read no value, write no state) and must ignore an
  /// out-of-range id. The default does nothing.
  struct PrefetchHook {
    void (*fn)(const void* context, ObjectId o) = [](const void*, ObjectId) {};
    const void* context = nullptr;
    void operator()(ObjectId o) const { fn(context, o); }
  };
  void set_prefetch_hook(PrefetchHook hook) { prefetch_hook_ = hook; }
  [[nodiscard]] PrefetchHook prefetch_hook() const { return prefetch_hook_; }

  /// Ships the query to the repository; the result (ν(q) bytes) comes back
  /// as a QueryResult message. Returns the result size.
  Bytes ship_query(const workload::Query& q);

  /// Requests the update's content; it arrives as an UpdateShip message.
  /// Returns the content size (ν(u)).
  Bytes ship_update(const workload::Update& u);

  /// Bulk-loads the object; returns the bytes transferred (current object
  /// size plus bulk-copy framing). Registers the object for invalidations.
  Bytes load_object(ObjectId o);

  /// Tells the server this cache dropped the object (stops invalidations).
  /// Fire-and-forget: over an event-driven transport the notice is in
  /// flight when this returns.
  void notify_eviction(ObjectId o);

  // ---- non-blocking API (event-driven protocol) ----
  // Each call sends the request and returns immediately; `complete` fires
  // with the reply payload when the reply message is delivered (inline on
  // a synchronous transport, at simulated arrival time otherwise).

  void ship_query_async(const workload::Query& q, Completion complete);
  void ship_update_async(const workload::Update& u, Completion complete);
  void load_object_async(ObjectId o, Completion complete);

  /// Requests awaiting their reply (0 on a quiescent node).
  [[nodiscard]] std::size_t pending_requests() const {
    return pending_.size();
  }

  // ---- protocol hardening (ISSUE 8) ----

  /// Arms the client side of the hardened protocol: per-request deadlines
  /// on the transport's event queue, timeout -> retry with exponential
  /// backoff + deterministic jitter + a bounded attempt budget, the
  /// applied-notice dedup ledger, partition suspicion, and epoch resync on
  /// heal. Effective only over an event-driven transport (deadlines need a
  /// simulated clock); on a synchronous transport the options are inert.
  /// `probe_on_suspect`: on first suspicion, immediately launch an epoch
  /// resync as a probe. Resyncs retry past the attempt budget, so the probe
  /// doubles as heal detection — and its reply carries the server's
  /// incarnation stamp, which is how a cache learns that the server it
  /// suspected died and restarted. The event engine sets it for runs whose
  /// fault plan schedules crashes.
  void set_protocol(const ProtocolOptions& options, bool probe_on_suspect);
  /// This cache's failure/recovery counters: the client-side protocol
  /// fields, its crash fields, and the degraded answers its policy served.
  [[nodiscard]] const net::ChaosYardsticks& counters() const {
    return counters_;
  }
  /// Counts one query the policy answered degraded under overload.
  void count_degraded_query() { ++counters_.degraded_queries; }
  /// True when set_protocol actually armed (enabled + event-driven).
  [[nodiscard]] bool protocol_armed() const { return protocol_on_; }

  // ---- crash-stop endpoint faults (ISSUE 10) ----

  /// The cache process dies at this instant. Soft state is lost: the
  /// pending-correlation table (every outstanding request completes empty
  /// and counts failed — sync waiters unwind, open-loop windows drain, no
  /// query leaks), the resident-set bookkeeping, the notice-stamp
  /// high-water mark, and the suspicion state. Two ledgers deliberately
  /// survive as *modeled-durable* identity: the applied-notice ledger (the
  /// convergence instrument — wiping it would double-count resync replays)
  /// and the monotone correlation/registration-generation counters (they
  /// model epoch-prefixed ids, so a pre-crash correlation can never match a
  /// post-crash request and a stale eviction can never downgrade a
  /// registration). The policy's wipe (CachePolicy::on_crash_restart) is
  /// the engine's job, one event later. Requires the armed protocol.
  /// `downtime_seconds` is the crash window's scheduled length, counted
  /// into crash_downtime_seconds.
  void crash_restart(double downtime_seconds);
  /// The process restarts (cache-crash heal instant) or detects a restarted
  /// server (incarnation stamp): re-subscribe out of band, then rebuild the
  /// server's registration row and replay the missed notice ledger through
  /// one kRecoverRequest under a fresh epoch. Retries past the attempt
  /// budget like any resync; completion closes the reconvergence clock.
  void begin_recovery();
  /// Serialization backlog on this cache's uplink to the server — the
  /// pressure signal the policy-side degrade path gates on.
  [[nodiscard]] double uplink_backlog_seconds() const {
    return transport_->egress_backlog_seconds(net::End::kCache);
  }

  /// True when the transport delivers inline (cached at construction).
  /// Policies use this to tell a protocol violation from a legitimately
  /// stale coherence notice: over an event-driven transport an eviction
  /// notice can still be in flight when the server fans out an
  /// invalidation for the just-evicted object.
  [[nodiscard]] bool transport_synchronous() const {
    return transport_inline_;
  }

  // ---- repository metadata (cheap reads the protocol allows) ----

  [[nodiscard]] Bytes server_object_bytes(ObjectId o) const {
    return server_->object_bytes(o);
  }
  [[nodiscard]] Bytes load_cost(ObjectId o) const {
    return server_->load_cost(o);
  }
  [[nodiscard]] bool is_registered(ObjectId o) const {
    return server_->is_registered(o);
  }
  [[nodiscard]] std::size_t object_count() const {
    return server_->object_count();
  }

  /// Traffic delivered to this endpoint (all data-bearing replies).
  [[nodiscard]] const net::TrafficMeter& meter() const {
    return transport_->endpoint_meter(net::End::kCache);
  }

 private:
  /// One outstanding request, a trivially copyable record. The table is a
  /// linear-scan vector: a synchronous caller keeps at most one entry live,
  /// and even deep event-driven interleavings stay within a handful. Every
  /// entry parks a Completion: async callers pass theirs, the sync façade
  /// parks one over its stack locals (see SyncReply — reentrancy-safe, a
  /// nested sync call during an event-queue pump gets its own), and the
  /// node's own resync and recovery requests park static members.
  struct Pending {
    std::int64_t correlation = -1;
    net::MessageKind expected_reply = net::MessageKind::kControl;
    Completion complete;
    // Retransmission state (protocol on): enough to rebuild the request.
    net::MessageKind kind = net::MessageKind::kControl;
    std::int64_t subject_id = -1;
    EventTime sent_at = 0;
    std::int64_t protocol_epoch = -1;
    std::int32_t attempts = 1;
    util::EventQueue::TimerId deadline;
  };
  static_assert(std::is_trivially_copyable_v<Pending>);

  const workload::Trace* trace_;
  ServerNode* server_;
  net::Transport* transport_ = nullptr;  // the server's wire
  /// Prebuilt request message for the sync façade: request_and_wait only
  /// writes the per-request fields. Safe to reuse because every send parks
  /// a copy (or delivers inline) before control can re-enter the façade.
  net::Message sync_request_;
  std::string name_;
  std::function<void(const workload::Update&)> invalidation_handler_;
  PrefetchHook prefetch_hook_;
  std::vector<Pending> pending_;
  std::vector<Pending> crashed_pending_;  // crash_restart's detached table
  std::int64_t next_correlation_ = 0;
  bool transport_inline_ = false;  // cached Transport::synchronous()
  /// Notices queued while an invalidation handler is already on the stack
  /// (a blocking handler pumps deliveries); drained iteratively by the
  /// outermost apply_invalidation frame so deep notice backlogs cannot
  /// recurse the handler (see apply_invalidation).
  std::vector<std::int64_t> pending_invalidations_;
  std::size_t pending_invalidation_cursor_ = 0;
  bool in_invalidation_handler_ = false;

  /// enabled AND the transport is event-driven (deadlines need a clock).
  bool protocol_on_ = false;
  bool probe_on_suspect_ = false;
  util::EventQueue* events_ = nullptr;
  net::ChaosYardsticks counters_;
  /// Partition detector: consecutive request timeouts raise suspicion; the
  /// first completed reply afterwards closes the unavailability window and
  /// triggers an epoch resync.
  std::int32_t consecutive_failures_ = 0;
  bool suspected_ = false;
  double suspect_since_ = 0.0;
  std::int64_t epoch_ = 0;
  bool resync_inflight_ = false;
  /// Crash-stop recovery state (ISSUE 10). `subscription_` mirrors the last
  /// set_subscription so a restart can re-subscribe; `resident_` mirrors
  /// load/evict traffic so a kRecoverRequest can carry the re-registration
  /// set; `server_incarnation_seen_` is the highest server incarnation
  /// stamp observed (restart detector); `recovering_` spans wipe/detection
  /// -> recovery-resync completion and drives the cold-miss and
  /// reconvergence yardsticks.
  MetadataSubscription subscription_ = MetadataSubscription::kNone;
  std::vector<std::uint8_t> resident_;
  std::int64_t server_incarnation_seen_ = 0;
  bool recovery_inflight_ = false;
  bool recovering_ = false;
  double recovery_started_at_ = 0.0;
  /// Gap detector over the server's stamped notice stream: highest ledger
  /// position seen. A live notice whose stamped range starts above this
  /// mark proves the wire lost notices in between — the only signal a
  /// quiet cache gets that a partition silently ate its one-way stream.
  std::int64_t notice_stamp_high_ = 0;
  /// Applied-notice ledger by update id: duplicate deliveries and resync
  /// replays of a notice that did arrive are applied exactly once.
  std::vector<std::uint8_t> applied_;
  /// Per-object registration generation, stamped into load requests and
  /// eviction notices (see ServerNode reg_epoch).
  std::vector<std::int64_t> reg_gen_;

  [[nodiscard]] net::Message request(net::MessageKind kind,
                                     std::int64_t subject_id,
                                     EventTime sent_at,
                                     std::int64_t correlation) const;
  /// Appends a pending entry for a request under a fresh correlation id
  /// and returns it; the caller then sends. The reference dies with the
  /// next change to the pending table.
  Pending& park(net::MessageKind kind, std::int64_t subject_id,
                EventTime sent_at, net::MessageKind expected_reply,
                std::int64_t protocol_epoch, Completion complete);
  /// Parks `complete` in the pending table and sends the request. Returns
  /// the correlation id.
  std::int64_t send_request(net::MessageKind kind, std::int64_t subject_id,
                            EventTime sent_at,
                            net::MessageKind expected_reply,
                            Completion complete,
                            std::int64_t protocol_epoch = -1);
  /// Sync façade core: sends the request and waits for its reply.
  Bytes request_and_wait(net::MessageKind kind, std::int64_t subject_id,
                         EventTime sent_at,
                         net::MessageKind expected_reply,
                         std::int64_t protocol_epoch = -1);
  /// The load protocol's prologue (protocol on): marks `o` resident,
  /// counts a cold miss while recovering, and returns the object's next
  /// registration generation, stamped into the load request. -1 when the
  /// protocol is off.
  std::int64_t begin_load(ObjectId o);
  void handle_message(const net::Message& m);
  /// Resolves one invalidation notice (an update id) against the shared
  /// trace and runs the policy's invalidation handler.
  void apply_invalidation(std::int64_t update_id);
  void observe_notice_stamp(const net::Message& m, std::int64_t ids);

  /// The sync façade's completion destination, on its stack.
  struct SyncReply {
    bool done = false;
    Bytes payload;
  };
  static void complete_sync(void* reply, std::uint64_t, Bytes payload);
  static void complete_resync(void* self, std::uint64_t, Bytes);
  static void complete_recovery(void* self, std::uint64_t, Bytes);
  [[nodiscard]] double deadline_delay(std::int32_t attempt,
                                      std::int64_t correlation) const;
  void arm_deadline(Pending& p);
  static void on_deadline(void* self, std::uint64_t correlation);
  void handle_deadline(std::int64_t correlation);
  /// True for requests whose loss would diverge durable state (loads keep
  /// the server registration table in step, resync closes the staleness
  /// hole) — these retry past the attempt budget, bounded by heal time.
  [[nodiscard]] static bool retries_forever(net::MessageKind expected_reply) {
    return expected_reply == net::MessageKind::kLoadData ||
           expected_reply == net::MessageKind::kResyncData;
  }
  void note_success();
  void note_failure();
  void start_resync();
  /// Applies the notices a message's batch span carries, in ingest order;
  /// a kResyncData's are counted and dated as replays.
  void apply_batch(const net::Message& m);
  /// Appends the current resident set to the cache end's ledger as a
  /// kRecoverRequest's span (also on retransmit — the set carried is always
  /// the sender's current one, which is what the row reset means).
  void fill_recover_payload(net::Message& msg);
  void observe_incarnation(const net::Message& m);
};

static_assert(std::is_trivially_copyable_v<CacheNode::Completion>,
              "Completion is a plain {fn, ctx, tag} record");

/// `cache`, DELTA_CHECKed non-null: for policy constructors whose member
/// initializers read the cache before the body runs.
inline CacheNode* checked_cache(CacheNode* cache) {
  DELTA_CHECK(cache != nullptr);
  return cache;
}

}  // namespace delta::core
