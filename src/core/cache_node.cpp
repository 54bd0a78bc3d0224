#include "core/cache_node.h"

#include <algorithm>
#include <utility>

#include "net/fault_plan.h"
#include "util/check.h"

namespace delta::core {

CacheNode::CacheNode(const workload::Trace* trace, ServerNode* server,
                     std::string name)
    : trace_(trace), server_(server), name_(std::move(name)) {
  DELTA_CHECK(trace != nullptr);
  DELTA_CHECK(server != nullptr);
  transport_ = server->transport();
  // The wire rejects a second cache (its cache end is taken) and a cache
  // named like its server before binding anything, so a failing
  // construction leaves no handler capturing this soon-destroyed node.
  transport_->bind(net::End::kCache, name_,
                   [this](const net::Message& m) { handle_message(m); });
  transport_inline_ = transport_->synchronous();
}

net::Message CacheNode::request(net::MessageKind kind,
                                std::int64_t subject_id, EventTime sent_at,
                                std::int64_t correlation) const {
  net::Message msg;
  msg.kind = kind;
  msg.subject_id = subject_id;
  msg.sent_at = sent_at;
  msg.correlation_id = correlation;
  return msg;
}

CacheNode::Pending& CacheNode::park(net::MessageKind kind,
                                    std::int64_t subject_id,
                                    EventTime sent_at,
                                    net::MessageKind expected_reply,
                                    std::int64_t protocol_epoch,
                                    Completion complete) {
  DELTA_DCHECK(complete.fn != nullptr);
  Pending& pending = pending_.emplace_back();
  pending.correlation = next_correlation_++;
  pending.expected_reply = expected_reply;
  pending.complete = complete;
  pending.kind = kind;
  pending.subject_id = subject_id;
  pending.sent_at = sent_at;
  pending.protocol_epoch = protocol_epoch;
  return pending;
}

std::int64_t CacheNode::send_request(net::MessageKind kind,
                                     std::int64_t subject_id,
                                     EventTime sent_at,
                                     net::MessageKind expected_reply,
                                     Completion complete,
                                     std::int64_t protocol_epoch) {
  const std::int64_t correlation =
      park(kind, subject_id, sent_at, expected_reply, protocol_epoch,
           complete)
          .correlation;
  // The send may deliver (and complete the request) inline on a
  // synchronous transport, so the pending entry must be parked first.
  net::Message msg = request(kind, subject_id, sent_at, correlation);
  msg.protocol_epoch = protocol_epoch;
  transport_->send(net::End::kServer, msg, net::Mechanism::kOverhead);
  if (protocol_on_) {
    // An event-driven send only schedules — no delivery can have touched
    // pending_ — so the parked entry is still at the back.
    DELTA_DCHECK(pending_.back().correlation == correlation);
    arm_deadline(pending_.back());
  }
  return correlation;
}

Bytes CacheNode::request_and_wait(net::MessageKind kind,
                                  std::int64_t subject_id, EventTime sent_at,
                                  net::MessageKind expected_reply,
                                  std::int64_t protocol_epoch) {
  // A stack local as the completion destination: reentrancy-safe (a
  // nested sync call during an event-queue pump gets its own).
  SyncReply reply;
  const std::int64_t correlation =
      park(kind, subject_id, sent_at, expected_reply, protocol_epoch,
           {&CacheNode::complete_sync, &reply, 0})
          .correlation;
  // send_call, not send: we block on the reply below, which lets an
  // event-driven transport run the whole round trip on its inline fast
  // path when nothing else is due first. The prebuilt request is safe to
  // reuse — the transport either parks a copy or delivers it before
  // returning, so no other façade call can still be reading it.
  net::Message& msg = sync_request_;
  msg.kind = kind;
  msg.subject_id = subject_id;
  msg.sent_at = sent_at;
  msg.correlation_id = correlation;
  msg.protocol_epoch = protocol_epoch;
  transport_->send_call(net::End::kServer, msg, net::Mechanism::kOverhead);
  if (transport_inline_) {
    // Synchronous transport: the reply was delivered inside the send.
    DELTA_CHECK_MSG(reply.done, "request did not complete inline on a "
                                "synchronous transport");
  } else if (!reply.done) {
    if (protocol_on_) {
      // The round trip did not complete inside the send, so no delivery
      // ran and the parked entry is still at the back — arm its deadline
      // before blocking (the wait's pump is what fires it).
      DELTA_DCHECK(pending_.back().correlation == correlation);
      arm_deadline(pending_.back());
    }
    transport_->wait_until(
        [](void* flag) { return *static_cast<bool*>(flag); }, &reply.done);
  }
  return reply.payload;
}

void CacheNode::complete_sync(void* reply, std::uint64_t, Bytes payload) {
  auto& r = *static_cast<SyncReply*>(reply);
  r.done = true;
  r.payload = payload;
}

void CacheNode::set_protocol(const ProtocolOptions& options,
                             bool probe_on_suspect) {
  probe_on_suspect_ = probe_on_suspect;
  events_ = transport_->events();
  protocol_on_ = options.enabled && !transport_inline_ && events_ != nullptr;
  if (!protocol_on_) return;
  applied_.assign(trace_->updates.size(), 0);
  reg_gen_.assign(server_->object_count(), 0);
  resident_.assign(server_->object_count(), 0);
  notice_stamp_high_ = 0;
}

void CacheNode::crash_restart(double downtime_seconds) {
  DELTA_CHECK_MSG(protocol_on_,
                  "crash-stop faults require the armed protocol");
  ++counters_.crash_restarts;
  counters_.crash_downtime_seconds += downtime_seconds;
  // The pending-correlation table dies with the process. Every outstanding
  // request completes empty and counts failed — sync waiters' pumps unwind
  // and open-loop in-flight windows drain, so no query leaks through a
  // crash. Detach the whole table first: completions may issue fresh
  // requests (which belong to the restarted process). The swap keeps both
  // buffers, so neither regrows after a crash.
  DELTA_DCHECK(crashed_pending_.empty());
  pending_.swap(crashed_pending_);
  for (const Pending& p : crashed_pending_) {
    events_->cancel(p.deadline);
    ++counters_.failed_requests;
    p.complete(Bytes{});
  }
  crashed_pending_.clear();
  // Soft state lost at the crash instant. The applied-notice ledger and the
  // monotone correlation / registration-generation / epoch counters are
  // deliberately kept: they model epoch-prefixed identifiers (a pre-crash
  // correlation can never match a post-crash request) and the run's
  // convergence instrument (wiping applied_ would double-count resync
  // replays of notices the pre-crash process already applied).
  std::fill(resident_.begin(), resident_.end(), 0);
  notice_stamp_high_ = 0;
  consecutive_failures_ = 0;
  suspected_ = false;
  // Cold phase: from the wipe until the recovery resync completes, loads
  // count as cold misses and replayed notices as post-restart staleness.
  recovering_ = true;
}

void CacheNode::fill_recover_payload(net::Message& msg) {
  msg.batch_from = transport_->ledger_end(net::End::kCache);
  for (std::size_t i = 0; i < resident_.size(); ++i) {
    if (resident_[i] != 0) {
      transport_->append_to_ledger(net::End::kCache,
                                   {static_cast<std::int64_t>(i), -1.0});
    }
  }
  msg.batch_to = transport_->ledger_end(net::End::kCache);
}

void CacheNode::begin_recovery() {
  if (!protocol_on_ || recovery_inflight_) return;
  recovery_inflight_ = true;
  recovering_ = true;
  recovery_started_at_ = transport_->now();
  // Re-establish the subscription out of band (control plane), then rebuild
  // the server's registration row and replay the missed notice ledger in
  // one kRecoverRequest under a fresh epoch. The request retries past the
  // attempt budget (its expected reply is kResyncData), so recovery
  // launched at a restart instant — or at a dead server — simply keeps
  // knocking until the other side is alive again.
  server_->set_subscription(subscription_);
  ++counters_.resyncs;
  ++epoch_;
  const std::int64_t correlation =
      park(net::MessageKind::kRecoverRequest, epoch_, 0,
           net::MessageKind::kResyncData, epoch_,
           {&CacheNode::complete_recovery, this, 0})
          .correlation;
  net::Message msg =
      request(net::MessageKind::kRecoverRequest, epoch_, 0, correlation);
  msg.protocol_epoch = epoch_;
  fill_recover_payload(msg);
  transport_->send(net::End::kServer, msg, net::Mechanism::kOverhead);
  DELTA_DCHECK(pending_.back().correlation == correlation);
  arm_deadline(pending_.back());
}

void CacheNode::complete_recovery(void* self, std::uint64_t, Bytes) {
  auto& node = *static_cast<CacheNode*>(self);
  node.recovery_inflight_ = false;
  if (node.recovering_) {
    node.counters_.max_reconvergence_seconds =
        std::max(node.counters_.max_reconvergence_seconds,
                 node.transport_->now() - node.recovery_started_at_);
    node.recovering_ = false;
  }
}

void CacheNode::observe_incarnation(const net::Message& m) {
  if (!protocol_on_ || m.protocol_epoch <= server_incarnation_seen_) return;
  // The server stamped a higher incarnation than any we have seen: it died
  // and restarted since our last contact. Its registration row for us is
  // gone and its notice ledger restarted at position zero, so the old
  // high-water mark must not poison the new stream's gap detection —
  // epoch-stamped notice stamps, reset on incarnation change.
  server_incarnation_seen_ = m.protocol_epoch;
  notice_stamp_high_ = 0;
  begin_recovery();
}

double CacheNode::deadline_delay(std::int32_t attempt,
                                 std::int64_t correlation) const {
  double delay = kRequestTimeoutSeconds;
  for (std::int32_t i = 1; i < attempt; ++i) {
    delay = std::min(delay * kBackoffFactor, kMaxTimeoutSeconds);
  }
  // Deterministic jitter in [-f, +f): a pure function of (seed,
  // correlation, attempt), so retry instants desynchronize across requests
  // without admitting any run-order dependence.
  const std::uint64_t mixed = net::fault_mix64(
      kJitterSeed ^
      (static_cast<std::uint64_t>(correlation) * 0x9e3779b97f4a7c15ULL) ^
      static_cast<std::uint64_t>(attempt));
  return delay *
         (1.0 + kJitterFraction * (2.0 * net::fault_u01(mixed) - 1.0));
}

void CacheNode::arm_deadline(Pending& p) {
  p.deadline = events_->schedule_cancellable(
      events_->now() + deadline_delay(p.attempts, p.correlation),
      &CacheNode::on_deadline, this,
      static_cast<std::uint64_t>(p.correlation));
}

void CacheNode::on_deadline(void* self, std::uint64_t correlation) {
  static_cast<CacheNode*>(self)->handle_deadline(
      static_cast<std::int64_t>(correlation));
}

void CacheNode::handle_deadline(std::int64_t correlation) {
  for (std::size_t i = 0; i < pending_.size(); ++i) {
    if (pending_[i].correlation != correlation) continue;
    ++counters_.timeouts;
    // note_failure() can fire the suspicion probe (start_resync ->
    // send_request), which appends to pending_ and may reallocate its
    // storage. It never removes entries, so index i stays valid — but a
    // reference must not be held across the call.
    note_failure();
    Pending& p = pending_[i];
    if (!retries_forever(p.expected_reply) &&
        p.attempts >= kMaxAttempts) {
      // Budget exhausted: the request completes empty — accounted as a
      // failure, never abandoned (every query conserves).
      ++counters_.failed_requests;
      const Completion complete = p.complete;
      p = pending_.back();
      pending_.pop_back();
      complete(Bytes{});
      return;
    }
    if (retries_forever(p.expected_reply) &&
        p.attempts >= kMaxAttempts) {
      // Budget-exempt kinds (loads, resyncs/recovery) retry past the
      // attempt budget — their loss would diverge durable state. Count the
      // over-budget retries so the behavior is observable, not folklore.
      ++counters_.budget_exceeded_retries;
    }
    ++p.attempts;
    ++counters_.retries;
    net::Message msg =
        request(p.kind, p.subject_id, p.sent_at, correlation);
    msg.attempt = p.attempts;
    msg.protocol_epoch = p.protocol_epoch;
    if (p.kind == net::MessageKind::kRecoverRequest) {
      // The retransmit carries the sender's *current* resident set — which
      // is exactly what the server-side row reset means.
      fill_recover_payload(msg);
    }
    arm_deadline(p);
    transport_->send(net::End::kServer, msg, net::Mechanism::kOverhead);
    return;
  }
  // Unreachable in practice: completing a request cancels its deadline.
  // A fired deadline for a retired correlation is a harmless no-op.
}

void CacheNode::note_failure() {
  ++consecutive_failures_;
  if (!suspected_ &&
      consecutive_failures_ >= kPartitionSuspectThreshold) {
    suspected_ = true;
    suspect_since_ = transport_->now();
    // Crash-stop liveness: launch an epoch resync as a probe the moment
    // suspicion fires. Resyncs retry past the budget, so the probe keeps
    // knocking until the server answers — and its reply carries the
    // incarnation stamp that tells a cache its server didn't just
    // partition, it died and restarted (triggering begin_recovery).
    if (probe_on_suspect_) start_resync();
  }
}

void CacheNode::note_success() {
  consecutive_failures_ = 0;
  if (!suspected_) return;
  // First completed round trip after suspicion: the partition healed.
  suspected_ = false;
  counters_.unavailable_seconds += transport_->now() - suspect_since_;
  start_resync();
}

void CacheNode::start_resync() {
  // A crash recovery in flight supersedes a plain resync: kRecoverRequest
  // ends with the same epoch-snapshotted ledger replay.
  if (resync_inflight_ || recovery_inflight_) return;
  resync_inflight_ = true;
  ++counters_.resyncs;
  ++epoch_;
  // The new epoch rides subject_id; the server replays every notice this
  // cache has not been replayed before (the missed-invalidations span).
  send_request(net::MessageKind::kResyncRequest, epoch_, 0,
               net::MessageKind::kResyncData,
               {&CacheNode::complete_resync, this, 0});
}

void CacheNode::complete_resync(void* self, std::uint64_t, Bytes) {
  static_cast<CacheNode*>(self)->resync_inflight_ = false;
}

void CacheNode::apply_batch(const net::Message& m) {
  if (m.batch_from == m.batch_to) return;  // the common, unbatched case
  const bool replay = m.kind == net::MessageKind::kResyncData;
  const double now = replay ? transport_->now() : 0.0;
  // By index: a handler that pumps the queue may grow the ledger.
  const std::vector<net::LedgerEntry>& notices =
      transport_->ledger(net::End::kServer);
  for (std::uint32_t i = m.batch_from, end = m.batch_to; i < end; ++i) {
    const net::LedgerEntry notice = notices[i];
    if (replay) {
      ++counters_.replayed_notices;
      // The recovery staleness spike only counts notices the wire really
      // lost (ids already applied are dedup'd, not stale).
      if (notice.ingest_at >= 0.0 &&
          applied_[static_cast<std::size_t>(notice.id)] == 0) {
        const double gap = now - notice.ingest_at;
        counters_.max_recovery_staleness_seconds =
            std::max(counters_.max_recovery_staleness_seconds, gap);
        if (recovering_) {
          // Replayed by a *crash recovery* resync: the post-restart
          // staleness spike, reported separately from partition recovery.
          counters_.post_restart_staleness_seconds =
              std::max(counters_.post_restart_staleness_seconds, gap);
        }
      }
    }
    apply_invalidation(notice.id);
  }
}

void CacheNode::observe_notice_stamp(const net::Message& m,
                                     std::int64_t ids) {
  if (!protocol_on_ || m.notice_ledger < 0) return;
  // The message covers ledger positions (notice_ledger - ids,
  // notice_ledger]. A range starting above the high-water mark means the
  // positions in between never arrived: either the wire lost them (a
  // partition is invisible to a cache with no request traffic — notices
  // are one-way) or a reorder let this message overtake them. Resync
  // either way; the replay is idempotent, so a reorder false-positive
  // costs one cheap round trip, while a real loss is repaired at the
  // FIRST post-heal notice instead of waiting for luck to put a request
  // in flight across the outage.
  if (m.notice_ledger - ids > notice_stamp_high_) start_resync();
  notice_stamp_high_ = std::max(notice_stamp_high_, m.notice_ledger);
}

void CacheNode::apply_invalidation(std::int64_t update_id) {
  const auto idx = static_cast<std::size_t>(update_id);
  DELTA_CHECK(idx < trace_->updates.size());
  if (protocol_on_) {
    // Applied-notice ledger: a fault-duplicated delivery, or a resync
    // replay of a notice that did arrive, must not double-run the policy's
    // invalidation handler (VCover counts pending updates per notice).
    if (applied_[idx] != 0) {
      ++counters_.duplicate_notices_suppressed;
      return;
    }
    applied_[idx] = 1;
    ++counters_.notices_applied;
  }
  if (!invalidation_handler_) return;
  // Re-entrancy flattening: a handler that performs a blocking round trip
  // (Replica/SOptimal refresh their replicas with ship_update) pumps the
  // event queue while it waits, which can deliver the NEXT queued notice
  // — and under a saturating open-loop backlog thousands of notices sit
  // back-to-back on the link, so running handlers recursively overflows
  // the stack. Notices arriving while a handler is on the stack are
  // queued here and drained iteratively by the outermost frame, in
  // delivery order; the observable message set is unchanged (each queued
  // handler runs after, instead of nested inside, its predecessor).
  pending_invalidations_.push_back(update_id);
  if (in_invalidation_handler_) return;
  in_invalidation_handler_ = true;
  while (pending_invalidation_cursor_ < pending_invalidations_.size()) {
    const auto next = static_cast<std::size_t>(
        pending_invalidations_[pending_invalidation_cursor_++]);
    invalidation_handler_(trace_->updates[next]);
  }
  pending_invalidations_.clear();
  pending_invalidation_cursor_ = 0;
  in_invalidation_handler_ = false;
}

void CacheNode::handle_message(const net::Message& m) {
  // Every server->cache message carries the server's incarnation stamp
  // while the protocol is armed; a jump means the server restarted and we
  // must re-register before anything else in this message is interpreted.
  observe_incarnation(m);
  switch (m.kind) {
    case net::MessageKind::kInvalidation: {
      observe_notice_stamp(m, 1 + m.batch_size());
      apply_invalidation(m.subject_id);
      // Congestion batching: further notices merged into this message, in
      // server ingest order.
      apply_batch(m);
      return;
    }
    case net::MessageKind::kQueryResult:
    case net::MessageKind::kUpdateShip:
    case net::MessageKind::kLoadData:
    case net::MessageKind::kQueryReject:
    case net::MessageKind::kResyncData: {
      // Notices piggybacked on the reply (or replayed by a resync, which
      // stamps no ledger position) are older than the reply itself — apply
      // them before releasing the request's completion.
      observe_notice_stamp(m, m.batch_size());
      apply_batch(m);
      for (std::size_t i = 0; i < pending_.size(); ++i) {
        if (pending_[i].correlation != m.correlation_id) continue;
        if (m.kind == net::MessageKind::kQueryReject) {
          // The server shed the query: the empty reject completes the
          // request (accounted, not lost).
          DELTA_CHECK_MSG(pending_[i].expected_reply ==
                              net::MessageKind::kQueryResult,
                          "kQueryReject answers only query requests");
          ++counters_.shed_replies;
        } else {
          DELTA_CHECK_MSG(pending_[i].expected_reply == m.kind,
                          "reply kind " << net::to_string(m.kind)
                                        << " does not match the pending "
                                           "request's expectation");
        }
        // Detach before completing: the completion (or the resync a healed
        // partition triggers) may issue new requests (mutating pending_).
        const Pending done = pending_[i];
        pending_[i] = pending_.back();
        pending_.pop_back();
        if (protocol_on_) {
          events_->cancel(done.deadline);
          note_success();
        }
        done.complete(m.payload);
        return;
      }
      if (protocol_on_) {
        // The request was retired before this reply landed: it timed out
        // past its budget, or an earlier attempt's reply won the race.
        ++counters_.late_replies;
        return;
      }
      DELTA_CHECK_MSG(false, "reply with unknown correlation id "
                                 << m.correlation_id);
      return;
    }
    default:
      return;  // control chatter carries no cache-side effects
  }
}

void CacheNode::set_subscription(MetadataSubscription subscription) {
  // Remembered locally so a crash restart can re-subscribe: the server's
  // copy is exactly the soft state a server crash wipes.
  subscription_ = subscription;
  server_->set_subscription(subscription);
}

void CacheNode::set_invalidation_handler(
    std::function<void(const workload::Update&)> handler) {
  invalidation_handler_ = std::move(handler);
}

void CacheNode::ship_query_async(const workload::Query& q,
                                 Completion complete) {
  send_request(net::MessageKind::kQueryRequest, q.id.value(), q.time,
               net::MessageKind::kQueryResult, complete);
}

void CacheNode::ship_update_async(const workload::Update& u,
                                  Completion complete) {
  // "ship update <id>" request travels as control chatter.
  send_request(net::MessageKind::kControl, u.id.value(), u.time,
               net::MessageKind::kUpdateShip, complete);
}

std::int64_t CacheNode::begin_load(ObjectId o) {
  if (!protocol_on_) return -1;
  const auto idx = static_cast<std::size_t>(o.value());
  resident_[idx] = 1;
  if (recovering_) ++counters_.cold_misses;
  return ++reg_gen_[idx];
}

void CacheNode::load_object_async(ObjectId o, Completion complete) {
  send_request(net::MessageKind::kLoadRequest, o.value(), 0,
               net::MessageKind::kLoadData, complete,
               begin_load(o));
}

Bytes CacheNode::ship_query(const workload::Query& q) {
  return request_and_wait(net::MessageKind::kQueryRequest, q.id.value(),
                          q.time, net::MessageKind::kQueryResult);
}

Bytes CacheNode::ship_update(const workload::Update& u) {
  return request_and_wait(net::MessageKind::kControl, u.id.value(), u.time,
                          net::MessageKind::kUpdateShip);
}

Bytes CacheNode::load_object(ObjectId o) {
  const Bytes loaded = request_and_wait(net::MessageKind::kLoadRequest,
                                        o.value(), 0,
                                        net::MessageKind::kLoadData,
                                        begin_load(o));
  // Under the hardened protocol a reordered eviction notice can still be
  // in flight when the load completes — registration is guaranteed by the
  // generation guard, not instantaneously observable.
  if (!protocol_on_) DELTA_CHECK(is_registered(o));
  return loaded;
}

void CacheNode::notify_eviction(ObjectId o) {
  net::Message msg = request(net::MessageKind::kInvalidation, o.value(), 0,
                             /*correlation=*/-1);
  if (protocol_on_) {
    // Stamp the generation of the registration being dropped: the server
    // ignores this notice if a newer load re-registered the object first.
    msg.protocol_epoch = reg_gen_[static_cast<std::size_t>(o.value())];
    resident_[static_cast<std::size_t>(o.value())] = 0;
  }
  transport_->send(net::End::kServer, msg, net::Mechanism::kOverhead);
  // The notice is unacknowledged; only a synchronous transport has
  // necessarily applied it by the time the send returns.
  if (transport_inline_) DELTA_CHECK(!is_registered(o));
}

}  // namespace delta::core
