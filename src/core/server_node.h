// ServerNode: the repository endpoint of the paper's middleware (Figure 1).
//
// It owns the server-side object sizes, answers data requests arriving over
// the transport (query shipping, update shipping, object loading), and runs
// the registration-based cache-coherence protocol: a per-cache registration
// table plus a per-cache metadata subscription drive the invalidation
// fan-out when updates arrive. Any number of CacheNode endpoints can attach,
// all communicating with the server only through net::Transport messages.
#pragma once

#include <string>
#include <unordered_map>
#include <vector>

#include "core/protocol.h"
#include "net/fault_plan.h"
#include "net/transport.h"
#include "util/types.h"
#include "workload/trace.h"

namespace delta::core {

/// Which update notices a cache endpoint subscribes to.
enum class MetadataSubscription : std::uint8_t {
  kNone,            // NoCache: the cache never hears about updates
  kRegisteredOnly,  // VCover: invalidations only for loaded objects
  kAll,             // Replica / Benefit: metadata notices for every update
};

/// Pending-notice bound per cache under congestion batching: the merge
/// flushes at this size even if the backlog persists (bounds notice latency
/// under saturation).
inline constexpr std::size_t kMaxNoticeBatch = 64;

/// Congestion batching of invalidation notices. When the server's egress
/// link to a cache is backlogged past `backlog_threshold_seconds`
/// (Transport::egress_backlog_seconds), per-update notices are held in a
/// per-cache pending list instead of each paying its own message header
/// and serialization slot. Pending notices drain three ways: merged into
/// one kInvalidation once the backlog recedes or kMaxNoticeBatch is reached,
/// piggybacked onto the next data-bearing reply to that cache, or by the
/// end-of-run flush_pending_notices(). Off by default — the unbatched
/// one-notice-per-message fan-out is the golden-pinned behavior, and a
/// flush of a single pending notice emits a byte-identical message to the
/// unbatched path.
struct NoticeBatchingOptions {
  bool enabled = false;
  /// Hold notices while the egress backlog exceeds this many simulated
  /// seconds; 0.0 batches only while the link is busy at all.
  double backlog_threshold_seconds = 0.0;
};

class ServerNode {
 public:
  /// Bulk-copy framing added to every object load.
  static constexpr Bytes kLoadOverheadBytes{256 * 1024};

  /// Builds the repository from the trace's initial object sizes and
  /// registers the endpoint on the transport. Trace and transport outlive
  /// the node.
  ServerNode(const workload::Trace* trace, net::Transport* transport,
             std::string name = "server");

  ServerNode(const ServerNode&) = delete;
  ServerNode& operator=(const ServerNode&) = delete;

  [[nodiscard]] const std::string& name() const { return name_; }

  /// This endpoint's transport slot (for send_to-style fast addressing).
  [[nodiscard]] std::size_t transport_slot() const { return transport_slot_; }

  /// Checked-failure unless `cache_name` is attachable (not a duplicate,
  /// not the server's own name). CacheNode calls this BEFORE registering
  /// its transport handler so a failing construction cannot leave a
  /// handler bound to a destroyed node.
  void validate_cache_name(const std::string& cache_name) const;

  /// Adds a cache endpoint to the registration table and returns its slot
  /// index (the handle CacheNode uses for cheap metadata reads, and the
  /// sender_slot its requests carry). The cache must already be registered
  /// on the transport: replies and invalidations are addressed by its
  /// transport slot.
  std::size_t attach_cache(const std::string& cache_name,
                           std::size_t cache_transport_slot);

  void set_subscription(std::size_t cache_slot,
                        MetadataSubscription subscription);

  /// Applies an arriving update to the repository and fans out an
  /// invalidation notice to every attached cache whose subscription covers
  /// it (in attach order — deterministic). The update must be the trace
  /// entry its id names (validated per call).
  void ingest_update(const workload::Update& u);

  /// Trusted ingest by trace index: identical side effects, but the update
  /// is read straight from the shared trace, so there is nothing to
  /// validate beyond the bound. This is the replicated-replay fast path —
  /// N partitions ingesting the same decoded stream pay the identity check
  /// zero times instead of N times per update.
  void ingest_update_at(std::int64_t update_index);

  // ---- protocol hardening & admission control (ISSUE 8) ----

  /// Arms the server side of the hardened protocol: the per-cache
  /// (correlation, attempt) dedup ring, notice ingest stamping, the
  /// per-cache notice log that backs epoch resync, and the per-object
  /// registration generations that make reordered eviction notices safe.
  /// Every behavior gates on options.enabled — the default-constructed
  /// options leave the node byte-identical to the pre-protocol build.
  void set_protocol(const ProtocolOptions& options);
  /// Arms shedding: overloaded kQueryRequests are answered kQueryReject.
  void set_admission(const AdmissionOptions& options) { admission_ = options; }

  /// The server's failure/recovery counters: shed_queries,
  /// request_duplicates_suppressed, resyncs_served, notices_logged and its
  /// own crash_restarts / crash_downtime_seconds. With the protocol on,
  /// notices_logged counts every notice destined to any attached cache,
  /// whether the wire delivered it or not; with the caches' dedup
  /// accounting it pins the convergence invariant: after heal + resync it
  /// equals their distinct applied notices.
  [[nodiscard]] const net::ChaosYardsticks& counters() const {
    return counters_;
  }

  // ---- crash-stop endpoint faults (ISSUE 10) ----

  /// The server process dies and restarts cold. Soft state is lost: every
  /// cache's registration row, subscription, dedup ring, notice ledger,
  /// pending (batched) notices, and resync bookkeeping. Durable state —
  /// the repository's object bytes — survives, as does the convergence
  /// ledger accounting: notices already externalized (sent or in flight)
  /// stay counted in notices_logged, while notices still pending in
  /// process memory died unsent and are retracted from it (they can never
  /// be applied by anyone). The incarnation number increments; it is
  /// stamped on every subsequent server->cache message so caches can
  /// detect the restart and re-register (kRecoverRequest). Requires the
  /// hardened protocol. `downtime_seconds` is the crash window's scheduled
  /// length, counted into crash_downtime_seconds.
  void crash_restart(double downtime_seconds);
  /// Monotone process-incarnation number (0 = never crashed). Stamped as
  /// protocol_epoch on server->cache messages while the protocol is armed.
  [[nodiscard]] std::int64_t incarnation() const { return incarnation_; }

  // ---- congestion batching of invalidation notices ----

  void set_notice_batching(const NoticeBatchingOptions& options) {
    batching_ = options;
  }
  /// Merges and sends every pending notice (end-of-run drain; no-op when
  /// nothing is pending or batching is off).
  void flush_pending_notices();
  /// Notices coalesced behind another message instead of paying their own
  /// (merged into a multi-id kInvalidation or piggybacked on a reply).
  [[nodiscard]] std::int64_t coalesced_notices() const {
    return coalesced_notices_;
  }
  /// Standalone kInvalidation messages actually sent.
  [[nodiscard]] std::int64_t notice_messages() const {
    return notice_messages_;
  }

  // ---- repository state (metadata caches may read cheaply) ----

  [[nodiscard]] Bytes object_bytes(ObjectId o) const;
  [[nodiscard]] Bytes load_cost(ObjectId o) const;
  [[nodiscard]] bool is_registered(std::size_t cache_slot, ObjectId o) const;
  /// The metadata subscription of the cache at `cache_slot` (as set by the
  /// attached policy). The parallel engine's update prefilter reads it
  /// after the policy factories have run.
  [[nodiscard]] MetadataSubscription subscription(
      std::size_t cache_slot) const;
  /// Read-only registration row of the cache at `cache_slot`, indexed by
  /// object (nonzero = resident). The prefilter snapshots it post-factory
  /// to fold preloaded objects into each partition's touch set.
  [[nodiscard]] const std::vector<std::uint8_t>& registered_row(
      std::size_t cache_slot) const;
  [[nodiscard]] std::size_t object_count() const {
    return object_bytes_.size();
  }
  [[nodiscard]] std::size_t cache_count() const { return caches_.size(); }

 private:
  struct CacheEntry {
    std::string name;
    std::size_t transport_slot = 0;  // where replies/invalidations go
    MetadataSubscription subscription = MetadataSubscription::kNone;
    std::vector<std::uint8_t> registered;  // objects resident at this cache
    /// Notices held back by congestion batching (update ids, ingest order).
    std::vector<std::int64_t> pending_notices;
    /// sent_at for a merged flush: the first pending update's trace time.
    EventTime pending_first_sent_at = 0;
    /// Ingest instants parallel to pending_notices (protocol on only).
    std::vector<double> pending_notice_ingest;
    /// Dedup ring of recent (correlation << 8) ^ attempt keys.
    std::vector<std::uint64_t> recent_requests;
    std::size_t recent_next = 0;
    /// Every notice destined to this cache, in send order (protocol on):
    /// the replay source for epoch resync and the convergence ledger.
    std::vector<std::int64_t> notice_log;
    std::vector<double> notice_ingest;
    /// Epoch-resync bookkeeping. A NEW epoch snapshots the unreplayed span
    /// [next_resync_from, log end); a retransmitted (or reordered stale)
    /// kResyncRequest replays the SAME recorded span — retry-idempotent.
    std::int64_t resync_epoch = -1;
    std::size_t replay_from = 0;
    std::size_t replay_to = 0;
    std::size_t next_resync_from = 0;
    /// Per-object registration generation (protocol on): a reordered
    /// eviction notice carrying an older generation than the load that
    /// re-registered the object must not deregister it.
    std::vector<std::int64_t> reg_epoch;
  };

  const workload::Trace* trace_;
  net::Transport* transport_;
  std::string name_;
  std::size_t transport_slot_ = 0;
  /// Prebuilt reply message: sender identity set once at construction,
  /// handle_message fills the per-reply fields (see the note there).
  net::Message reply_template_;
  std::vector<Bytes> object_bytes_;  // server-side current sizes
  std::vector<CacheEntry> caches_;
  std::unordered_map<std::string, std::size_t> slot_by_name_;

  NoticeBatchingOptions batching_;
  std::int64_t coalesced_notices_ = 0;
  std::int64_t notice_messages_ = 0;

  ProtocolOptions protocol_;
  AdmissionOptions admission_;
  net::ChaosYardsticks counters_;
  std::int64_t incarnation_ = 0;

  [[nodiscard]] std::size_t checked(ObjectId o) const;
  [[nodiscard]] CacheEntry& sender_entry(const net::Message& m);
  void handle_message(const net::Message& m);
  void apply_update(const workload::Update& u);
  /// Sends `reply` to `cache`, piggybacking its pending notices (batching
  /// on) and restoring the reusable template's batch fields afterwards.
  void send_reply(CacheEntry& cache, net::Message& reply,
                  net::Mechanism mechanism);
  /// Merges `cache`'s pending notices into one kInvalidation and sends it.
  void flush_cache_notices(CacheEntry& cache);
  /// True (and the key remembered) when this correlated delivery was
  /// already handled — a server-side retransmit/duplicate filter.
  [[nodiscard]] bool is_duplicate_request(CacheEntry& cache,
                                          const net::Message& m);
  void serve_resync(CacheEntry& cache, const net::Message& m);
};

}  // namespace delta::core
