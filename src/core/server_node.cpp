#include "core/server_node.h"

#include <algorithm>

#include "util/check.h"

namespace delta::core {

ServerNode::ServerNode(const workload::Trace* trace,
                       net::Transport* transport, std::string name)
    : trace_(trace), transport_(transport), name_(std::move(name)) {
  DELTA_CHECK(trace != nullptr);
  DELTA_CHECK(transport != nullptr);
  object_bytes_ = trace->initial_object_bytes;
  transport_slot_ = transport_->register_endpoint(
      name_, [this](const net::Message& m) { handle_message(m); });
  reply_template_.sender = name_;
  reply_template_.sender_transport_slot =
      static_cast<std::int32_t>(transport_slot_);
}

void ServerNode::validate_cache_name(const std::string& cache_name) const {
  DELTA_CHECK_MSG(slot_by_name_.count(cache_name) == 0,
                  "cache '" << cache_name << "' attached twice");
  DELTA_CHECK_MSG(cache_name != name_,
                  "cache endpoint cannot reuse the server name");
}

std::size_t ServerNode::attach_cache(const std::string& cache_name,
                                     std::size_t cache_transport_slot) {
  validate_cache_name(cache_name);
  const std::size_t slot = caches_.size();
  CacheEntry entry;
  entry.name = cache_name;
  entry.transport_slot = cache_transport_slot;
  entry.registered.assign(object_bytes_.size(), 0);
  caches_.push_back(std::move(entry));
  slot_by_name_.emplace(cache_name, slot);
  if (protocol_.enabled) {
    CacheEntry& attached = caches_.back();
    attached.recent_requests.assign(kDedupWindow, ~std::uint64_t{0});
    attached.reg_epoch.assign(object_bytes_.size(), 0);
  }
  return slot;
}

void ServerNode::set_protocol(const ProtocolOptions& options) {
  protocol_ = options;
  if (!protocol_.enabled) return;
  for (CacheEntry& cache : caches_) {
    cache.recent_requests.assign(kDedupWindow, ~std::uint64_t{0});
    cache.recent_next = 0;
    cache.reg_epoch.assign(object_bytes_.size(), 0);
  }
}

bool ServerNode::is_duplicate_request(CacheEntry& cache,
                                      const net::Message& m) {
  // (correlation, attempt) keys the window: a duplicated delivery of the
  // same attempt is suppressed, while a genuine retransmission (attempt+1,
  // sent because the reply was lost) keys fresh and is answered again.
  const std::uint64_t key =
      (static_cast<std::uint64_t>(m.correlation_id) << 8) ^
      static_cast<std::uint64_t>(m.attempt);
  for (const std::uint64_t seen : cache.recent_requests) {
    if (seen == key) return true;
  }
  cache.recent_requests[cache.recent_next] = key;
  cache.recent_next = (cache.recent_next + 1) % cache.recent_requests.size();
  return false;
}

void ServerNode::crash_restart(double downtime_seconds) {
  DELTA_CHECK_MSG(protocol_.enabled,
                  "crash-stop faults require the hardened protocol");
  ++counters_.crash_restarts;
  counters_.crash_downtime_seconds += downtime_seconds;
  ++incarnation_;
  for (CacheEntry& cache : caches_) {
    // Convergence accounting across the wipe: everything in notice_log was
    // externalized (sent, or already delivered) except the batching layer's
    // pending tail, which died in process memory without ever reaching the
    // wire — those notices can never be applied by anyone, so they are
    // retracted from the "owed" count. The rest stays owed.
    counters_.notices_logged -=
        static_cast<std::int64_t>(cache.pending_notices.size());
    cache.notice_log.clear();
    cache.notice_ingest.clear();
    cache.pending_notices.clear();
    cache.pending_notice_ingest.clear();
    cache.pending_first_sent_at = 0;
    if (!cache.recent_requests.empty()) {
      std::fill(cache.recent_requests.begin(), cache.recent_requests.end(),
                ~std::uint64_t{0});
    }
    cache.recent_next = 0;
    cache.resync_epoch = -1;
    cache.replay_from = 0;
    cache.replay_to = 0;
    cache.next_resync_from = 0;
    // The registration table and subscriptions are exactly the per-client
    // soft state a crash-stop restart loses: caches rebuild them through
    // kRecoverRequest once they detect the new incarnation.
    std::fill(cache.registered.begin(), cache.registered.end(), 0);
    cache.subscription = MetadataSubscription::kNone;
    std::fill(cache.reg_epoch.begin(), cache.reg_epoch.end(), 0);
  }
}

void ServerNode::set_subscription(std::size_t cache_slot,
                                  MetadataSubscription subscription) {
  DELTA_CHECK(cache_slot < caches_.size());
  caches_[cache_slot].subscription = subscription;
}

std::size_t ServerNode::checked(ObjectId o) const {
  DELTA_CHECK(o.valid());
  const auto idx = static_cast<std::size_t>(o.value());
  DELTA_CHECK(idx < object_bytes_.size());
  return idx;
}

ServerNode::CacheEntry& ServerNode::sender_entry(const net::Message& m) {
  // Fast path: requests from attached CacheNodes carry their assigned slot.
  if (m.sender_slot >= 0 &&
      static_cast<std::size_t>(m.sender_slot) < caches_.size()) {
    CacheEntry& entry = caches_[static_cast<std::size_t>(m.sender_slot)];
    // A slot from another server instance (or a forged one) must not be
    // silently attributed to the wrong cache.
    DELTA_DCHECK(entry.name == m.sender);
    return entry;
  }
  const auto it = slot_by_name_.find(m.sender);
  DELTA_CHECK_MSG(it != slot_by_name_.end(),
                  "request from unattached cache '" << m.sender << "'");
  return caches_[it->second];
}

void ServerNode::handle_message(const net::Message& m) {
  // Correlated requests pass the dedup window first: a fault-duplicated
  // delivery (or a retransmit whose original did arrive) must be handled
  // exactly once — the reply to the first delivery is, or was, on the wire.
  if (protocol_.enabled && m.correlation_id >= 0 &&
      is_duplicate_request(sender_entry(m), m)) {
    ++counters_.request_duplicates_suppressed;
    return;
  }
  // The server answers requests with data-bearing replies addressed to the
  // requesting cache endpoint. The prebuilt reply is safe to reuse per
  // request: the transport parks a copy or delivers it before returning.
  net::Message& reply = reply_template_;
  reply.subject_id = m.subject_id;
  reply.sent_at = m.sent_at;
  // Echo the request's correlation id so the cache's pending-request table
  // can match the reply even when deliveries interleave (DelayedTransport).
  reply.correlation_id = m.correlation_id;
  // Incarnation stamp (ISSUE 10): every server->cache message carries the
  // process incarnation so a cache can detect that the server it was
  // talking to died and restarted (and must be re-registered with). The
  // initial incarnation is 0, which caches also start at, so the stamp is
  // inert until a crash actually happens.
  reply.protocol_epoch = protocol_.enabled ? incarnation_ : -1;
  switch (m.kind) {
    case net::MessageKind::kQueryRequest: {
      CacheEntry& cache = sender_entry(m);
      if (admission_.enabled &&
          transport_->egress_backlog_seconds(transport_slot_,
                                             cache.transport_slot) >
              admission_.shed_backlog_seconds) {
        // Overloaded reply link: shed instead of queueing another result
        // behind a multi-second backlog. The tiny reject still completes
        // the cache's request (accounted, not lost).
        ++counters_.shed_queries;
        reply.kind = net::MessageKind::kQueryReject;
        reply.payload = Bytes{};
        send_reply(cache, reply, net::Mechanism::kOverhead);
        break;
      }
      const auto& q = trace_->queries[static_cast<std::size_t>(m.subject_id)];
      reply.kind = net::MessageKind::kQueryResult;
      reply.payload = q.cost;
      send_reply(cache, reply, net::Mechanism::kQueryShip);
      break;
    }
    case net::MessageKind::kControl: {
      // "ship update <id>" request.
      const auto& u = trace_->updates[static_cast<std::size_t>(m.subject_id)];
      reply.kind = net::MessageKind::kUpdateShip;
      reply.payload = u.cost;
      send_reply(sender_entry(m), reply, net::Mechanism::kUpdateShip);
      break;
    }
    case net::MessageKind::kLoadRequest: {
      const auto idx = checked(ObjectId{m.subject_id});
      CacheEntry& cache = sender_entry(m);
      reply.kind = net::MessageKind::kLoadData;
      reply.payload = object_bytes_[idx] + kLoadOverheadBytes;
      cache.registered[idx] = 1;
      if (protocol_.enabled && m.protocol_epoch >= 0) {
        cache.reg_epoch[idx] =
            std::max(cache.reg_epoch[idx], m.protocol_epoch);
      }
      send_reply(cache, reply, net::Mechanism::kObjectLoad);
      break;
    }
    case net::MessageKind::kInvalidation: {
      // Cache -> server: eviction notice (re-using the kind for the
      // reverse coherence direction).
      const auto idx = checked(ObjectId{m.subject_id});
      CacheEntry& cache = sender_entry(m);
      if (protocol_.enabled && m.protocol_epoch >= 0 &&
          m.protocol_epoch < cache.reg_epoch[idx]) {
        // A reorder fault delivered this eviction after the load that
        // re-registered the object; honoring it would silence future
        // invalidations for a resident object.
        break;
      }
      cache.registered[idx] = 0;
      break;
    }
    case net::MessageKind::kResyncRequest: {
      DELTA_CHECK_MSG(protocol_.enabled,
                      "resync request without the protocol layer armed");
      serve_resync(sender_entry(m), m);
      break;
    }
    case net::MessageKind::kRecoverRequest: {
      DELTA_CHECK_MSG(protocol_.enabled,
                      "recover request without the protocol layer armed");
      // Crash recovery: reset this cache's registration row to exactly the
      // carried resident set (empty after a cache's own cold restart; the
      // surviving store after a *server* restart), then serve the same
      // epoch-snapshotted ledger replay a partition heal would get.
      // Retransmits re-execute harmlessly: the row reset is last-write-wins
      // over the same set, and serve_resync is epoch-idempotent.
      CacheEntry& cache = sender_entry(m);
      std::fill(cache.registered.begin(), cache.registered.end(), 0);
      std::fill(cache.reg_epoch.begin(), cache.reg_epoch.end(), 0);
      for (const std::int64_t oid : m.batched_invalidations) {
        cache.registered[checked(ObjectId{oid})] = 1;
      }
      serve_resync(cache, m);
      break;
    }
    default:
      DELTA_CHECK_MSG(false, "server received unexpected message kind");
  }
}

void ServerNode::serve_resync(CacheEntry& cache, const net::Message& m) {
  const std::int64_t epoch = m.subject_id;
  if (epoch > cache.resync_epoch) {
    // New epoch: snapshot the span of notices the cache has never been
    // replayed. A retransmit (same epoch, lost reply) or a reordered stale
    // request replays the SAME span — serving resync is idempotent.
    cache.resync_epoch = epoch;
    cache.replay_from = cache.next_resync_from;
    cache.replay_to = cache.notice_log.size();
    cache.next_resync_from = cache.replay_to;
  }
  ++counters_.resyncs_served;
  net::Message& reply = reply_template_;
  reply.kind = net::MessageKind::kResyncData;
  reply.payload = Bytes{};
  reply.batched_invalidations.assign(
      cache.notice_log.begin() + static_cast<std::ptrdiff_t>(cache.replay_from),
      cache.notice_log.begin() + static_cast<std::ptrdiff_t>(cache.replay_to));
  reply.batched_ingest_at.assign(
      cache.notice_ingest.begin() +
          static_cast<std::ptrdiff_t>(cache.replay_from),
      cache.notice_ingest.begin() +
          static_cast<std::ptrdiff_t>(cache.replay_to));
  reply.batch_bytes =
      net::kBatchedNoticeBytes *
      static_cast<std::int64_t>(cache.replay_to - cache.replay_from);
  // Recovery traffic is pure overhead — never figure traffic — and must
  // not piggyback pending notices (send_reply would overwrite the replay).
  transport_->send_to(cache.transport_slot, reply, net::Mechanism::kOverhead);
  reply.batched_invalidations.clear();
  reply.batched_ingest_at.clear();
  reply.batch_bytes = Bytes{};
}

void ServerNode::ingest_update(const workload::Update& u) {
  // Invalidation notices carry only the update id; subscribed caches
  // resolve it against the shared trace. The update must therefore BE the
  // trace entry its id names (or an identical copy), or cache-side
  // accounting would silently diverge from the repository.
  const auto uidx = static_cast<std::size_t>(u.id.value());
  DELTA_CHECK_MSG(u.id.valid() && uidx < trace_->updates.size() &&
                      trace_->updates[uidx].object == u.object &&
                      trace_->updates[uidx].cost == u.cost &&
                      trace_->updates[uidx].time == u.time,
                  "ingest_update requires an update from the system's trace");
  apply_update(u);
}

void ServerNode::ingest_update_at(std::int64_t update_index) {
  DELTA_CHECK(update_index >= 0 &&
              static_cast<std::size_t>(update_index) <
                  trace_->updates.size());
  apply_update(trace_->updates[static_cast<std::size_t>(update_index)]);
}

void ServerNode::apply_update(const workload::Update& u) {
  const std::size_t idx = checked(u.object);
  object_bytes_[idx] += u.cost;  // inserts grow the repository object
  for (CacheEntry& cache : caches_) {
    const bool notify =
        cache.subscription == MetadataSubscription::kAll ||
        (cache.subscription == MetadataSubscription::kRegisteredOnly &&
         cache.registered[idx] != 0);
    if (!notify) continue;
    // Ledger + ingest stamp (protocol on): the log is the epoch-resync
    // replay source and the convergence yardstick's "notices owed" side;
    // the stamp lets the staleness observer date every notice even when it
    // later rides a batch or a resync replay.
    const double ingest = protocol_.enabled ? transport_->now() : 0.0;
    if (protocol_.enabled) {
      cache.notice_log.push_back(u.id.value());
      cache.notice_ingest.push_back(ingest);
      ++counters_.notices_logged;
    }
    if (!batching_.enabled) {
      net::Message msg;
      msg.kind = net::MessageKind::kInvalidation;
      msg.subject_id = u.id.value();
      msg.sent_at = u.time;
      msg.sender = name_;
      msg.sender_transport_slot = static_cast<std::int32_t>(transport_slot_);
      if (protocol_.enabled) {
        msg.subject_ingest_at = ingest;
        // Ledger stamp: this notice is position notice_log.size() of the
        // cache's stream (just pushed above) — the cache's gap detector
        // turns a missing predecessor into an immediate resync.
        msg.notice_ledger =
            static_cast<std::int64_t>(cache.notice_log.size());
        msg.protocol_epoch = incarnation_;
      }
      ++notice_messages_;
      transport_->send_to(cache.transport_slot, msg,
                          net::Mechanism::kOverhead);
      continue;
    }
    if (cache.pending_notices.empty()) cache.pending_first_sent_at = u.time;
    cache.pending_notices.push_back(u.id.value());
    if (protocol_.enabled) cache.pending_notice_ingest.push_back(ingest);
    // Hold the notice only while this cache's egress link is congested;
    // otherwise flush immediately — a single-id flush emits a message
    // byte-identical to the unbatched path, so batching changes nothing
    // until the uplink actually backs up.
    const double backlog = transport_->egress_backlog_seconds(
        transport_slot_, cache.transport_slot);
    if (backlog <= batching_.backlog_threshold_seconds ||
        cache.pending_notices.size() >= kMaxNoticeBatch) {
      flush_cache_notices(cache);
    }
  }
}

void ServerNode::flush_cache_notices(CacheEntry& cache) {
  if (cache.pending_notices.empty()) return;
  net::Message msg;
  msg.kind = net::MessageKind::kInvalidation;
  msg.subject_id = cache.pending_notices.front();
  msg.sent_at = cache.pending_first_sent_at;
  msg.sender = name_;
  msg.sender_transport_slot = static_cast<std::int32_t>(transport_slot_);
  const std::size_t n = cache.pending_notices.size();
  if (n > 1) {
    msg.batched_invalidations.assign(cache.pending_notices.begin() + 1,
                                     cache.pending_notices.end());
    msg.batch_bytes =
        net::kBatchedNoticeBytes * static_cast<std::int64_t>(n - 1);
    coalesced_notices_ += static_cast<std::int64_t>(n - 1);
  }
  if (!cache.pending_notice_ingest.empty()) {
    msg.subject_ingest_at = cache.pending_notice_ingest.front();
    if (n > 1) {
      msg.batched_ingest_at.assign(cache.pending_notice_ingest.begin() + 1,
                                   cache.pending_notice_ingest.end());
    }
    cache.pending_notice_ingest.clear();
  }
  if (protocol_.enabled) {
    // The pending ids are exactly the ledger's tail, so the batch covers
    // positions (size - n, size] of the cache's notice stream.
    msg.notice_ledger = static_cast<std::int64_t>(cache.notice_log.size());
    msg.protocol_epoch = incarnation_;
  }
  cache.pending_notices.clear();
  ++notice_messages_;
  transport_->send_to(cache.transport_slot, msg, net::Mechanism::kOverhead);
}

void ServerNode::flush_pending_notices() {
  for (CacheEntry& cache : caches_) flush_cache_notices(cache);
}

void ServerNode::send_reply(CacheEntry& cache, net::Message& reply,
                            net::Mechanism mechanism) {
  if (batching_.enabled && !cache.pending_notices.empty()) {
    // Piggyback every pending notice on this data-bearing reply: the ids
    // ride in the reply's batch fields (metered as overhead, priced into
    // its serialization) instead of paying their own message.
    reply.batched_invalidations = std::move(cache.pending_notices);
    cache.pending_notices.clear();
    if (!cache.pending_notice_ingest.empty()) {
      reply.batched_ingest_at = std::move(cache.pending_notice_ingest);
      cache.pending_notice_ingest.clear();
    }
    reply.batch_bytes =
        net::kBatchedNoticeBytes *
        static_cast<std::int64_t>(reply.batched_invalidations.size());
    coalesced_notices_ +=
        static_cast<std::int64_t>(reply.batched_invalidations.size());
    if (protocol_.enabled) {
      // Piggybacked ids are the ledger tail too — stamp so the cache's
      // gap detector sees one contiguous stream across both carriers.
      reply.notice_ledger =
          static_cast<std::int64_t>(cache.notice_log.size());
    }
    transport_->send_to(cache.transport_slot, reply, mechanism);
    // The reply template is reused across requests — the batch fields must
    // not leak into the next reply.
    reply.batched_invalidations.clear();
    reply.batched_ingest_at.clear();
    reply.batch_bytes = Bytes{};
    reply.notice_ledger = -1;
    return;
  }
  transport_->send_to(cache.transport_slot, reply, mechanism);
}

Bytes ServerNode::object_bytes(ObjectId o) const {
  return object_bytes_[checked(o)];
}

Bytes ServerNode::load_cost(ObjectId o) const {
  return object_bytes(o) + kLoadOverheadBytes;
}

bool ServerNode::is_registered(std::size_t cache_slot, ObjectId o) const {
  DELTA_CHECK(cache_slot < caches_.size());
  return caches_[cache_slot].registered[checked(o)] != 0;
}

MetadataSubscription ServerNode::subscription(std::size_t cache_slot) const {
  DELTA_CHECK(cache_slot < caches_.size());
  return caches_[cache_slot].subscription;
}

const std::vector<std::uint8_t>& ServerNode::registered_row(
    std::size_t cache_slot) const {
  DELTA_CHECK(cache_slot < caches_.size());
  return caches_[cache_slot].registered;
}

}  // namespace delta::core
