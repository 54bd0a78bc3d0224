// Message transport between the two middleware endpoints.
//
// The production deployment the paper describes runs MS SQL replication
// between two workstations; what the algorithms observe is only *which*
// messages flow and *how many bytes* they carry. LoopbackTransport is the
// in-process implementation used by the simulator: synchronous delivery,
// deterministic ordering, full byte accounting (payload through the caller's
// TrafficMeter category, headers as overhead).
//
// A transport is one duplex wire between a repository and a cache, the
// link Delta's decision framework prices. It has exactly two ends,
// End::kServer and End::kCache, each bound once with a name and a handler.
// A message is addressed to an end; its sender is the other end. Each end
// owns a meter that sees exactly the messages delivered *to* it, so the two
// end meters partition all traffic on the wire.
// Each direction also has an append-only id ledger: a message's id list is
// a span of its sender's ledger. The wire owns the ledgers, so a span in
// flight resolves to the ids it was sent with even across a sender crash.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "net/message.h"
#include "net/traffic_meter.h"
#include "util/check.h"

namespace delta::util {
class EventQueue;
}  // namespace delta::util

namespace delta::net {

/// The two ends of a wire.
enum class End : std::uint8_t { kServer = 0, kCache = 1 };

/// The end a message to `to` comes from.
[[nodiscard]] constexpr End other_end(End to) {
  return to == End::kServer ? End::kCache : End::kServer;
}

[[nodiscard]] constexpr std::size_t end_index(End end) {
  return static_cast<std::size_t>(end);
}

[[nodiscard]] constexpr const char* to_string(End end) {
  return end == End::kServer ? "server" : "cache";
}

/// The receiving side of a bound end.
using MessageHandler = std::function<void(const Message&)>;

class Transport {
 public:
  Transport() = default;
  Transport(const Transport&) = delete;
  Transport& operator=(const Transport&) = delete;
  virtual ~Transport() = default;

  /// Binds `end` under `name`. Binding an end twice, a null handler, or
  /// the other end's name is a checked failure that binds nothing.
  virtual void bind(End end, std::string name, MessageHandler handler);

  /// Delivers `message` to `to`, from the other end, accounting
  /// `message.payload` under `mechanism` and the header under overhead.
  /// Sending before both ends are bound is a checked failure. The
  /// transport may stamp simulated timestamps into `message` in place
  /// (senders that keep the message own it).
  virtual void send(End to, Message& message, Mechanism mechanism) = 0;

  /// Sends a request whose reply the caller is about to block on (the
  /// sync-façade round trip). Semantically identical to send; the blocking
  /// contract lets an event-driven transport fast-forward its clock to the
  /// delivery instant and deliver inline — skipping the event queue — when
  /// no earlier event is pending, and extend the same fast path to the
  /// reply sent while this request is being handled. Callers that do NOT
  /// immediately wait for the reply must use send.
  virtual void send_call(End to, Message& message, Mechanism mechanism) {
    send(to, message, mechanism);
  }

  /// True when send delivers (and meters) inline before returning —
  /// LoopbackTransport. Event-driven transports return false: delivery
  /// happens when the simulated clock reaches the message's arrival time.
  [[nodiscard]] virtual bool synchronous() const { return true; }

  /// Completion predicate for wait_until: a plain function pointer plus a
  /// context pointer, so the per-request wait of a sync façade constructs
  /// no std::function (the wait sits on the replay hot path).
  using WaitPredicate = bool (*)(void* ctx);

  /// Blocks the caller until `done(ctx)` holds. On a synchronous transport
  /// every request has already completed inline, so the default merely
  /// checks; an event-driven transport overrides this to pump its event
  /// queue (delivering any messages in flight) until the condition holds.
  /// This is the primitive the CacheNode sync façade awaits replies with.
  virtual void wait_until(WaitPredicate done, void* ctx) {
    DELTA_CHECK_MSG(done(ctx),
                    "request did not complete inline on a synchronous "
                    "transport");
  }

  /// Congestion signal: simulated seconds of serialization backlog already
  /// queued on the wire's direction out of `from` (how long a message sent
  /// now would wait before its own serialization starts). Zero on
  /// synchronous transports — there is no queueing to observe — so
  /// backlog-gated behavior (ServerNode notice batching) degenerates to the
  /// unbatched path there.
  [[nodiscard]] virtual double egress_backlog_seconds(End from) const {
    (void)from;
    return 0.0;
  }

  /// The event queue driving an event-driven transport, or nullptr on a
  /// synchronous one. Protocol features that need simulated-time timers
  /// (retry deadlines) probe this and stay disabled when it is absent.
  [[nodiscard]] virtual util::EventQueue* events() { return nullptr; }

  /// Current simulated time in seconds (0.0 on synchronous transports,
  /// which have no clock). Used for protocol timestamps (notice ingest
  /// instants, unavailability windows) without reaching into the queue.
  [[nodiscard]] virtual double now() const { return 0.0; }

  /// Meter of the traffic delivered to `end`.
  [[nodiscard]] const TrafficMeter& endpoint_meter(End end) const {
    return ends_[end_index(end)].meter;
  }

  /// The id ledger out of `from`. It is append-only, so an index stays
  /// valid for the wire's lifetime; a reference to an entry does not.
  [[nodiscard]] const std::vector<LedgerEntry>& ledger(End from) const {
    return ledgers_[end_index(from)];
  }
  /// Appends `entry` to the ledger out of `from`; returns the new end.
  std::uint32_t append_to_ledger(End from, LedgerEntry entry) {
    std::vector<LedgerEntry>& ledger = ledgers_[end_index(from)];
    DELTA_CHECK(ledger.size() < UINT32_MAX);  // spans index by 32 bits
    ledger.push_back(entry);
    return static_cast<std::uint32_t>(ledger.size());
  }
  [[nodiscard]] std::uint32_t ledger_end(End from) const {
    return static_cast<std::uint32_t>(ledgers_[end_index(from)].size());
  }
  void reserve_ledger(End from, std::size_t entries) {
    ledgers_[end_index(from)].reserve(entries);
  }

 protected:
  struct Endpoint {
    std::string name;
    MessageHandler handler;
    TrafficMeter meter;
  };

  /// Checks, per send, that both ends are bound.
  void check_wired(End to) const {
    DELTA_CHECK_MSG(wired_, "send to the " << to_string(to)
                                           << " end of an unbound wire");
  }

  std::array<Endpoint, 2> ends_;
  std::array<std::vector<LedgerEntry>, 2> ledgers_;  // by sending end
  /// True once both ends are bound.
  bool wired_ = false;
};

/// Synchronous in-process transport with deterministic delivery order.
class LoopbackTransport final : public Transport {
 public:
  void send(End to, Message& message, Mechanism mechanism) override;
};

}  // namespace delta::net
