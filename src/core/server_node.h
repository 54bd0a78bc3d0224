// ServerNode: the repository endpoint of the paper's middleware (Figure 1).
//
// It owns the server-side object sizes, answers data requests arriving over
// the transport (query shipping, update shipping, object loading), and runs
// the registration-based cache-coherence protocol: the cache's registration
// row plus its metadata subscription drive the invalidation notices when
// updates arrive. A server holds the server end of one net::Transport wire
// and serves the one CacheNode bound to its other end, which talks to it
// only through messages; N caches are N server/cache replicas
// (sim/event_engine.h), each with its own repository copy and wire.
#pragma once

#include <string>
#include <vector>

#include "core/protocol.h"
#include "net/fault_plan.h"
#include "net/transport.h"
#include "util/prefetch.h"
#include "util/types.h"
#include "workload/trace.h"

namespace delta::core {

/// Which update notices a cache endpoint subscribes to.
enum class MetadataSubscription : std::uint8_t {
  kNone,            // NoCache: the cache never hears about updates
  kRegisteredOnly,  // VCover: invalidations only for loaded objects
  kAll,             // Replica / Benefit: metadata notices for every update
};

/// Pending-notice bound under congestion batching: the merge flushes at
/// this size even if the backlog persists (bounds notice latency under
/// saturation).
inline constexpr std::size_t kMaxNoticeBatch = 64;

/// Congestion batching of invalidation notices. When the server's egress
/// link to the cache is backlogged past `backlog_threshold_seconds`
/// (Transport::egress_backlog_seconds), per-update notices are held as the
/// pending tail of the wire's server ledger (16 bytes per notice) instead
/// of each paying its own message header and serialization slot. The tail
/// drains three ways, as a ledger span: merged into one kInvalidation once
/// the backlog recedes or kMaxNoticeBatch is reached, piggybacked onto the
/// next data-bearing reply to the cache, or by the end-of-run
/// flush_pending_notices(). Off by default — the unbatched
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
  /// binds the transport's server end; a transport whose server end is
  /// already bound is a checked failure. Trace and transport outlive the
  /// node.
  ServerNode(const workload::Trace* trace, net::Transport* transport,
             std::string name = "server");

  ServerNode(const ServerNode&) = delete;
  ServerNode& operator=(const ServerNode&) = delete;

  [[nodiscard]] const std::string& name() const { return name_; }

  /// The wire this server and its cache share.
  [[nodiscard]] net::Transport* transport() const { return transport_; }

  void set_subscription(MetadataSubscription subscription);

  /// Applies an arriving update to the repository and sends the cache an
  /// invalidation notice when its subscription covers it. The update must
  /// be the trace entry its id names (validated per call).
  void ingest_update(const workload::Update& u);

  /// Trusted ingest from the event engine's update column: identical side
  /// effects, but the object and cost come from the column's slot, and the
  /// trace's Update record is opened only to send a notice. The column was
  /// validated when it was built (ids below trace.updates.size(), objects
  /// below the object table), so N partitions ingesting it pay the
  /// identity check zero times instead of N times per update.
  void ingest_column(std::uint32_t update_id, std::uint32_t object,
                     Bytes cost) {
    DELTA_DCHECK(update_id < trace_->updates.size() &&
                 object < object_bytes_.size());
    object_bytes_[object] += cost;  // inserts grow the repository object
    if (notifies(object)) send_notice(trace_->updates[update_id]);
  }

  // ---- protocol hardening & admission control (ISSUE 8) ----

  /// Arms the server side of the hardened protocol: the (correlation,
  /// attempt) dedup ring, notice ingest stamping, the notice log that
  /// backs epoch resync, and the per-object registration generations that
  /// make reordered eviction notices safe.
  /// Every behavior gates on options.enabled — the default-constructed
  /// options leave the node byte-identical to the pre-protocol build.
  void set_protocol(const ProtocolOptions& options);
  /// Arms shedding: overloaded kQueryRequests are answered kQueryReject.
  void set_admission(const AdmissionOptions& options) { admission_ = options; }

  /// The server's failure/recovery counters: shed_queries,
  /// request_duplicates_suppressed, resyncs_served, notices_logged and its
  /// own crash_restarts / crash_downtime_seconds. With the protocol on,
  /// notices_logged counts every notice destined to the cache, whether the
  /// wire delivered it or not; with the cache's dedup accounting it pins
  /// the convergence invariant: after heal + resync it equals its distinct
  /// applied notices.
  [[nodiscard]] const net::ChaosYardsticks& counters() const {
    return counters_;
  }

  // ---- crash-stop endpoint faults (ISSUE 10) ----

  /// The server process dies and restarts cold. Soft state is lost: the
  /// cache's registration row, subscription, dedup ring, notice log,
  /// pending (batched) notices, and resync bookkeeping; the log's entries
  /// stay on the wire, so spans in flight still resolve. Durable state —
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
    if (batching_.enabled) reserve_notice_log();
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
  /// Starts pulling the object's size row into the CPU cache (a hint; an
  /// out-of-range id is ignored, and ingest_update still rejects it).
  void prefetch_object(ObjectId o) const {
    util::prefetch_row(object_bytes_, o.value());
  }
  [[nodiscard]] bool is_registered(ObjectId o) const;
  /// The cache's metadata subscription (as set by its policy). The
  /// parallel engine's update prefilter reads it after the policy
  /// factories have run.
  [[nodiscard]] MetadataSubscription subscription() const {
    return peer_.subscription;
  }
  /// Read-only registration row, indexed by object (nonzero = resident at
  /// the cache). The prefilter snapshots it post-factory to fold preloaded
  /// objects into each partition's touch set.
  [[nodiscard]] const std::vector<std::uint8_t>& registered_row() const {
    return peer_.registered;
  }
  [[nodiscard]] std::size_t object_count() const {
    return object_bytes_.size();
  }

  /// Traffic delivered to this endpoint: the cache's requests and eviction
  /// notices, all overhead.
  [[nodiscard]] const net::TrafficMeter& meter() const {
    return transport_->endpoint_meter(net::End::kServer);
  }

 private:
  /// Everything the server keeps about its cache: the soft state a server
  /// crash wipes.
  struct Peer {
    MetadataSubscription subscription = MetadataSubscription::kNone;
    std::vector<std::uint8_t> registered;  // objects resident at the cache
    /// Dedup ring of recent (correlation << 8) ^ attempt keys.
    std::vector<std::uint64_t> recent_requests;
    std::size_t recent_next = 0;
    /// Ledger indices into the notice log — the wire's server ledger,
    /// filled while the protocol or batching is on. This incarnation's log
    /// starts at log_base; batching holds back its tail from pending_from.
    std::uint32_t log_base = 0;
    std::uint32_t pending_from = 0;
    /// sent_at for a merged flush: the first pending update's trace time.
    EventTime pending_first_sent_at = 0;
    /// Epoch-resync bookkeeping. A NEW epoch replays the unreplayed span
    /// [replay_to, log end); a retransmitted (or reordered stale)
    /// kResyncRequest replays the SAME recorded span — retry-idempotent.
    std::int64_t resync_epoch = -1;
    std::uint32_t replay_from = 0;
    std::uint32_t replay_to = 0;
    /// Per-object registration generation (protocol on): a reordered
    /// eviction notice carrying an older generation than the load that
    /// re-registered the object must not deregister it.
    std::vector<std::int64_t> reg_epoch;
  };

  const workload::Trace* trace_;
  net::Transport* transport_;
  std::string name_;
  /// Prebuilt reply message: handle_message fills the per-reply fields
  /// (see the note there).
  net::Message reply_template_;
  std::vector<Bytes> object_bytes_;  // server-side current sizes
  Peer peer_;

  NoticeBatchingOptions batching_;
  std::int64_t coalesced_notices_ = 0;
  std::int64_t notice_messages_ = 0;

  ProtocolOptions protocol_;
  AdmissionOptions admission_;
  net::ChaosYardsticks counters_;
  std::int64_t incarnation_ = 0;

  [[nodiscard]] std::size_t checked(ObjectId o) const;
  /// Sizes the notice log for the trace: each update notifies the cache at
  /// most once, so it never reallocates, and unfilled pages stay untouched.
  void reserve_notice_log() {
    transport_->reserve_ledger(net::End::kServer, trace_->updates.size());
  }
  void handle_message(const net::Message& m);
  /// Whether the cache's subscription covers an update of `object`.
  [[nodiscard]] bool notifies(std::size_t object) const {
    return peer_.subscription == MetadataSubscription::kAll ||
           (peer_.subscription == MetadataSubscription::kRegisteredOnly &&
            peer_.registered[object] != 0);
  }
  /// Sends the cache the invalidation notice of update `u`.
  void send_notice(const workload::Update& u);
  /// Sends `reply` to the cache with the pending notices (batching on) as
  /// its batch span.
  void send_reply(net::Message& reply, net::Mechanism mechanism);
  /// True (and the key remembered) when this correlated delivery was
  /// already handled — a server-side retransmit/duplicate filter.
  [[nodiscard]] bool is_duplicate_request(const net::Message& m);
  void serve_resync(const net::Message& m);
};

}  // namespace delta::core
