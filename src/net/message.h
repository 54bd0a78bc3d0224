// Typed middleware messages exchanged between the cache and the repository.
//
// Delta's three data-communication mechanisms (§3) map onto message kinds:
//   * query shipping   — kQueryRequest to the server, kQueryResult back
//   * update shipping  — kUpdateShip from server to cache
//   * object loading   — kLoadRequest to the server, kLoadData back
// plus kInvalidation (server tells the cache an object went stale) and
// kControl for protocol chatter. Network-traffic accounting is by payload
// bytes, matching the paper's bytes-proportional cost model; header overhead
// is metered separately so the figure numbers stay comparable.
//
// A message carries no addresses: it travels on one wire between a server
// and a cache (net/transport.h), so naming the end it is sent to names its
// sender as well. End names are metadata the wire keeps for fault plans
// and crash schedules.
#pragma once

#include <cstdint>
#include <type_traits>

#include "util/types.h"

namespace delta::net {

enum class MessageKind : std::uint8_t {
  kQueryRequest,
  kQueryResult,
  kUpdateShip,
  kLoadRequest,
  kLoadData,
  kInvalidation,
  kControl,
  /// Admission control: the server refuses an overloaded kQueryRequest.
  /// Echoes the request's correlation id; the cache completes the request
  /// with zero payload and accounts it as shed (core/protocol.h).
  kQueryReject,
  /// Partition recovery: a cache that detected a healed partition asks the
  /// server to replay the invalidation notices it may have missed.
  /// subject_id carries the cache's new registration epoch.
  kResyncRequest,
  /// Resync reply: its batch span replays missed notices (with their
  /// ingest stamps), like a congestion batch — recovery data is metered as
  /// overhead, never figure traffic.
  kResyncData,
  /// Crash-stop recovery (ISSUE 10): a restarted cache — or a cache that
  /// detected a restarted server through its incarnation stamp — rebuilds
  /// the server's registration row. Its batch span holds the cache's
  /// resident object ids (its re-registration set), subject_id its fresh
  /// registration epoch; the server resets the row to exactly that set and
  /// answers with the same kResyncData ledger replay a partition heal gets.
  kRecoverRequest,
};

[[nodiscard]] constexpr const char* to_string(MessageKind kind) {
  switch (kind) {
    case MessageKind::kQueryRequest:
      return "query_request";
    case MessageKind::kQueryResult:
      return "query_result";
    case MessageKind::kUpdateShip:
      return "update_ship";
    case MessageKind::kLoadRequest:
      return "load_request";
    case MessageKind::kLoadData:
      return "load_data";
    case MessageKind::kInvalidation:
      return "invalidation";
    case MessageKind::kControl:
      return "control";
    case MessageKind::kQueryReject:
      return "query_reject";
    case MessageKind::kResyncRequest:
      return "resync_request";
    case MessageKind::kResyncData:
      return "resync_data";
    case MessageKind::kRecoverRequest:
      return "recover_request";
  }
  return "?";
}

/// Fixed modeled header size for any message (framing, ids, checksums).
inline constexpr Bytes kMessageHeaderBytes{64};

/// Modeled wire cost of each id a message's batch span carries (the id
/// itself; framing is already paid by the carrying message's header).
inline constexpr Bytes kBatchedNoticeBytes{8};

/// One entry of a wire direction's id ledger: a notice's update id with
/// its server-side ingest instant (sim seconds), or a resident object id.
/// ingest_at -1 = unstamped; the staleness observer then falls back to the
/// carrying message's sim_sent_at.
struct LedgerEntry {
  std::int64_t id = -1;
  double ingest_at = -1.0;
};

struct Message {
  MessageKind kind = MessageKind::kControl;
  /// Payload size on the wire (query text / result rows / update content /
  /// object data). Headers are accounted separately.
  Bytes payload;
  /// Ids are opaque to the transport; they identify the query/update/object
  /// the message is about.
  std::int64_t subject_id = -1;
  EventTime sent_at = 0;
  /// Request/reply correlation: a CacheNode stamps each request with a
  /// fresh id and the server echoes it in the data-bearing reply, so a
  /// non-blocking endpoint can match responses to its pending-request
  /// table regardless of delivery order. -1 = uncorrelated (notices).
  std::int64_t correlation_id = -1;
  /// Simulated-clock timestamps stamped by a latency-aware transport
  /// (DelayedTransport): when the message entered its link and when it was
  /// delivered. Both stay 0 on synchronous transports; their gap is the
  /// simulated one-way latency including queueing behind earlier sends.
  double sim_sent_at = 0.0;
  double sim_delivered_at = 0.0;
  /// The ids this message carries beyond subject_id: the span
  /// [batch_from, batch_to) of its sender's ledger (Transport::ledger). On
  /// a merged kInvalidation they are the notices BEYOND subject_id; on a
  /// data-bearing reply, notices piggybacked alongside the payload. Their
  /// wire cost is batch_bytes() — included in serialization occupancy and
  /// metered as overhead (never as mechanism payload, so figure accounting
  /// is unaffected). Empty when batching and the protocol are off.
  std::uint32_t batch_from = 0;
  std::uint32_t batch_to = 0;
  /// Retry attempt number for correlated requests (1 = first transmission).
  /// The server's dedup window keys on (correlation_id, attempt) so a
  /// retransmission after a lost reply is answered again while a duplicated
  /// delivery of the same attempt is suppressed.
  std::int32_t attempt = 1;
  /// Protocol-hardening epoch/generation stamp. On kResyncRequest it is the
  /// cache's new registration epoch; on load requests and eviction notices
  /// it is the cache's per-object registration generation, letting the
  /// server discard an eviction notice that a reorder fault delivered after
  /// the object was already reloaded. -1 = unstamped (protocol off).
  std::int64_t protocol_epoch = -1;
  /// Cumulative count of the notices the server's current incarnation has
  /// logged for this cache, stamped (protocol on) on every message that
  /// carries live invalidation ids: this message covers notice-log
  /// positions (notice_ledger - ids, notice_ledger]. A cache whose
  /// high-water mark sits below the range start has provably lost notices
  /// — the only way a quiet cache can detect a silent partition of its
  /// one-way notice stream — and resyncs immediately. -1 = unstamped
  /// (protocol off, or a message carrying no live notices).
  std::int64_t notice_ledger = -1;
  /// Ingest instant for subject_id on a kInvalidation (protocol on);
  /// -1 = unstamped, observer falls back to sim_sent_at.
  double subject_ingest_at = -1.0;

  [[nodiscard]] std::int64_t batch_size() const {
    return static_cast<std::int64_t>(batch_to) - batch_from;
  }
  [[nodiscard]] Bytes batch_bytes() const {
    return Bytes{kBatchedNoticeBytes.count() * batch_size()};
  }
};

static_assert(std::is_trivially_copyable_v<Message>);

}  // namespace delta::net
