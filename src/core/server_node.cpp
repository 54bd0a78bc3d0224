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
  peer_.registered.assign(object_bytes_.size(), 0);
  transport_->bind(net::End::kServer, name_,
                   [this](const net::Message& m) { handle_message(m); });
}

void ServerNode::set_protocol(const ProtocolOptions& options) {
  protocol_ = options;
  if (!protocol_.enabled) return;
  reserve_notice_log();
  peer_.recent_requests.assign(kDedupWindow, ~std::uint64_t{0});
  peer_.recent_next = 0;
  peer_.reg_epoch.assign(object_bytes_.size(), 0);
}

bool ServerNode::is_duplicate_request(const net::Message& m) {
  // (correlation, attempt) keys the window: a duplicated delivery of the
  // same attempt is suppressed, while a genuine retransmission (attempt+1,
  // sent because the reply was lost) keys fresh and is answered again.
  const std::uint64_t key =
      (static_cast<std::uint64_t>(m.correlation_id) << 8) ^
      static_cast<std::uint64_t>(m.attempt);
  for (const std::uint64_t seen : peer_.recent_requests) {
    if (seen == key) return true;
  }
  peer_.recent_requests[peer_.recent_next] = key;
  peer_.recent_next = (peer_.recent_next + 1) % peer_.recent_requests.size();
  return false;
}

void ServerNode::crash_restart(double downtime_seconds) {
  DELTA_CHECK_MSG(protocol_.enabled,
                  "crash-stop faults require the hardened protocol");
  ++counters_.crash_restarts;
  counters_.crash_downtime_seconds += downtime_seconds;
  ++incarnation_;
  // Convergence accounting across the wipe: every logged notice was
  // externalized (sent, or already delivered) except the batching layer's
  // pending tail, which died in process memory without ever reaching the
  // wire — those notices can never be applied by anyone, so they are
  // retracted from the "owed" count. The rest stays owed.
  const std::uint32_t end = transport_->ledger_end(net::End::kServer);
  counters_.notices_logged -= end - peer_.pending_from;
  // The new incarnation's log starts at the ledger's end; the entries
  // before it stay on the wire, so spans in flight still resolve.
  peer_.log_base = end;
  peer_.pending_from = end;
  peer_.pending_first_sent_at = 0;
  if (!peer_.recent_requests.empty()) {
    std::fill(peer_.recent_requests.begin(), peer_.recent_requests.end(),
              ~std::uint64_t{0});
  }
  peer_.recent_next = 0;
  peer_.resync_epoch = -1;
  peer_.replay_from = end;
  peer_.replay_to = end;
  // The registration row and the subscription are exactly the per-client
  // soft state a crash-stop restart loses: the cache rebuilds them through
  // kRecoverRequest once it detects the new incarnation.
  std::fill(peer_.registered.begin(), peer_.registered.end(), 0);
  peer_.subscription = MetadataSubscription::kNone;
  std::fill(peer_.reg_epoch.begin(), peer_.reg_epoch.end(), 0);
}

void ServerNode::set_subscription(MetadataSubscription subscription) {
  peer_.subscription = subscription;
}

std::size_t ServerNode::checked(ObjectId o) const {
  DELTA_CHECK(o.valid());
  const auto idx = static_cast<std::size_t>(o.value());
  DELTA_CHECK(idx < object_bytes_.size());
  return idx;
}

void ServerNode::handle_message(const net::Message& m) {
  // Correlated requests pass the dedup window first: a fault-duplicated
  // delivery (or a retransmit whose original did arrive) must be handled
  // exactly once — the reply to the first delivery is, or was, on the wire.
  if (protocol_.enabled && m.correlation_id >= 0 && is_duplicate_request(m)) {
    ++counters_.request_duplicates_suppressed;
    return;
  }
  // The server answers requests with data-bearing replies addressed to the
  // cache. The prebuilt reply is safe to reuse per request: the transport
  // parks a copy or delivers it before returning.
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
      if (admission_.enabled &&
          transport_->egress_backlog_seconds(net::End::kServer) >
              admission_.shed_backlog_seconds) {
        // Overloaded reply link: shed instead of queueing another result
        // behind a multi-second backlog. The tiny reject still completes
        // the cache's request (accounted, not lost).
        ++counters_.shed_queries;
        reply.kind = net::MessageKind::kQueryReject;
        reply.payload = Bytes{};
        send_reply(reply, net::Mechanism::kOverhead);
        break;
      }
      const auto& q = trace_->queries[static_cast<std::size_t>(m.subject_id)];
      reply.kind = net::MessageKind::kQueryResult;
      reply.payload = q.cost;
      send_reply(reply, net::Mechanism::kQueryShip);
      break;
    }
    case net::MessageKind::kControl: {
      // "ship update <id>" request.
      const auto& u = trace_->updates[static_cast<std::size_t>(m.subject_id)];
      reply.kind = net::MessageKind::kUpdateShip;
      reply.payload = u.cost;
      send_reply(reply, net::Mechanism::kUpdateShip);
      break;
    }
    case net::MessageKind::kLoadRequest: {
      const auto idx = checked(ObjectId{m.subject_id});
      reply.kind = net::MessageKind::kLoadData;
      reply.payload = object_bytes_[idx] + kLoadOverheadBytes;
      peer_.registered[idx] = 1;
      if (protocol_.enabled && m.protocol_epoch >= 0) {
        peer_.reg_epoch[idx] =
            std::max(peer_.reg_epoch[idx], m.protocol_epoch);
      }
      send_reply(reply, net::Mechanism::kObjectLoad);
      break;
    }
    case net::MessageKind::kInvalidation: {
      // Cache -> server: eviction notice (re-using the kind for the
      // reverse coherence direction).
      const auto idx = checked(ObjectId{m.subject_id});
      if (protocol_.enabled && m.protocol_epoch >= 0 &&
          m.protocol_epoch < peer_.reg_epoch[idx]) {
        // A reorder fault delivered this eviction after the load that
        // re-registered the object; honoring it would silence future
        // invalidations for a resident object.
        break;
      }
      peer_.registered[idx] = 0;
      break;
    }
    case net::MessageKind::kResyncRequest: {
      DELTA_CHECK_MSG(protocol_.enabled,
                      "resync request without the protocol layer armed");
      serve_resync(m);
      break;
    }
    case net::MessageKind::kRecoverRequest: {
      DELTA_CHECK_MSG(protocol_.enabled,
                      "recover request without the protocol layer armed");
      // Crash recovery: reset the registration row to exactly the carried
      // resident set (empty after a cache's own cold restart; the
      // surviving store after a *server* restart), then serve the same
      // epoch-snapshotted ledger replay a partition heal would get.
      // Retransmits re-execute harmlessly: the row reset is last-write-wins
      // over the same set, and serve_resync is epoch-idempotent.
      std::fill(peer_.registered.begin(), peer_.registered.end(), 0);
      std::fill(peer_.reg_epoch.begin(), peer_.reg_epoch.end(), 0);
      const std::vector<net::LedgerEntry>& resident =
          transport_->ledger(net::End::kCache);
      for (std::uint32_t i = m.batch_from; i < m.batch_to; ++i) {
        peer_.registered[checked(ObjectId{resident[i].id})] = 1;
      }
      serve_resync(m);
      break;
    }
    default:
      DELTA_CHECK_MSG(false, "server received unexpected message kind");
  }
}

void ServerNode::serve_resync(const net::Message& m) {
  const std::int64_t epoch = m.subject_id;
  if (epoch > peer_.resync_epoch) {
    // New epoch: snapshot the span of notices the cache has never been
    // replayed. A retransmit (same epoch, lost reply) or a reordered stale
    // request replays the SAME span — serving resync is idempotent.
    peer_.resync_epoch = epoch;
    peer_.replay_from = peer_.replay_to;
    peer_.replay_to = transport_->ledger_end(net::End::kServer);
  }
  ++counters_.resyncs_served;
  net::Message& reply = reply_template_;
  reply.kind = net::MessageKind::kResyncData;
  reply.payload = Bytes{};
  reply.batch_from = peer_.replay_from;
  reply.batch_to = peer_.replay_to;
  reply.notice_ledger = -1;
  // Recovery traffic is pure overhead — never figure traffic — and does
  // not piggyback pending notices: its span is the replay.
  transport_->send(net::End::kCache, reply, net::Mechanism::kOverhead);
}

void ServerNode::ingest_update(const workload::Update& u) {
  // Invalidation notices carry only the update id; a subscribed cache
  // resolves it against the shared trace. The update must therefore BE the
  // trace entry its id names (or an identical copy), or cache-side
  // accounting would silently diverge from the repository.
  const auto uidx = static_cast<std::size_t>(u.id.value());
  DELTA_CHECK_MSG(u.id.valid() && uidx < trace_->updates.size() &&
                      trace_->updates[uidx].object == u.object &&
                      trace_->updates[uidx].cost == u.cost &&
                      trace_->updates[uidx].time == u.time,
                  "ingest_update requires an update from the system's trace");
  const std::size_t idx = checked(u.object);
  object_bytes_[idx] += u.cost;  // inserts grow the repository object
  if (notifies(idx)) send_notice(u);
}

void ServerNode::send_notice(const workload::Update& u) {
  if (!protocol_.enabled && !batching_.enabled) {
    // No notice log and nothing to hold back: the notice is its subject.
    net::Message msg;
    msg.kind = net::MessageKind::kInvalidation;
    msg.subject_id = u.id.value();
    msg.sent_at = u.time;
    ++notice_messages_;
    transport_->send(net::End::kCache, msg, net::Mechanism::kOverhead);
    return;
  }
  // Log the notice on the wire's server ledger: with the protocol on, the
  // epoch-resync replay source and the "notices owed" side; its ingest
  // stamp dates the notice even when it rides a batch or a replay.
  const std::uint32_t end = transport_->append_to_ledger(
      net::End::kServer,
      {u.id.value(), protocol_.enabled ? transport_->now() : -1.0});
  if (protocol_.enabled) ++counters_.notices_logged;
  if (end - peer_.pending_from == 1) peer_.pending_first_sent_at = u.time;
  // Hold the notice only while batching is on and the cache's egress link
  // is congested; otherwise flush at once — a single-id flush is the
  // unbatched notice, so batching changes nothing until the uplink backs up.
  if (!batching_.enabled ||
      transport_->egress_backlog_seconds(net::End::kServer) <=
          batching_.backlog_threshold_seconds ||
      end - peer_.pending_from >= kMaxNoticeBatch) {
    flush_pending_notices();
  }
}

void ServerNode::flush_pending_notices() {
  const std::uint32_t end = transport_->ledger_end(net::End::kServer);
  if (peer_.pending_from == end) return;
  const net::LedgerEntry first =
      transport_->ledger(net::End::kServer)[peer_.pending_from];
  net::Message msg;
  msg.kind = net::MessageKind::kInvalidation;
  msg.subject_id = first.id;
  msg.subject_ingest_at = first.ingest_at;
  msg.sent_at = peer_.pending_first_sent_at;
  msg.batch_from = peer_.pending_from + 1;
  msg.batch_to = end;
  coalesced_notices_ += msg.batch_size();
  if (protocol_.enabled) {
    // The pending ids are exactly the log's tail, so the message covers
    // positions (end - n, end] of this incarnation's notice stream.
    msg.notice_ledger = end - peer_.log_base;
    msg.protocol_epoch = incarnation_;
  }
  peer_.pending_from = end;
  ++notice_messages_;
  transport_->send(net::End::kCache, msg, net::Mechanism::kOverhead);
}

void ServerNode::send_reply(net::Message& reply, net::Mechanism mechanism) {
  // Piggyback every pending notice (none while batching is off) on this
  // data-bearing reply: its batch span is the log's pending tail, metered
  // as overhead and priced into its serialization.
  const std::uint32_t end = transport_->ledger_end(net::End::kServer);
  reply.batch_from = peer_.pending_from;
  reply.batch_to = end;
  coalesced_notices_ += reply.batch_size();
  // Piggybacked ids are the log tail too — stamp so the cache's gap
  // detector sees one contiguous stream across both carriers.
  reply.notice_ledger = -1;
  if (protocol_.enabled && reply.batch_size() > 0) {
    reply.notice_ledger = end - peer_.log_base;
  }
  peer_.pending_from = end;
  transport_->send(net::End::kCache, reply, mechanism);
}

Bytes ServerNode::object_bytes(ObjectId o) const {
  return object_bytes_[checked(o)];
}

Bytes ServerNode::load_cost(ObjectId o) const {
  return object_bytes(o) + kLoadOverheadBytes;
}

bool ServerNode::is_registered(ObjectId o) const {
  return peer_.registered[checked(o)] != 0;
}

}  // namespace delta::core
