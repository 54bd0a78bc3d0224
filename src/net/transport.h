// Message transport between middleware endpoints.
//
// The production deployment the paper describes runs MS SQL replication
// between two workstations; what the algorithms observe is only *which*
// messages flow and *how many bytes* they carry. LoopbackTransport is the
// in-process implementation used by the simulator: synchronous delivery,
// deterministic ordering, full byte accounting (payload through the caller's
// TrafficMeter category, headers as overhead).
//
// Endpoints register once, under a unique name, and get a stable slot;
// from then on every message is addressed by slot alone: the destination
// is a send_to argument and the sender is Message::sender. Each
// registered endpoint owns a meter that sees exactly the messages
// delivered *to* it, so the per-endpoint meters partition all traffic:
// every send is accounted to exactly one endpoint meter.
#pragma once

#include <deque>
#include <functional>
#include <string>

#include "net/message.h"
#include "net/traffic_meter.h"
#include "util/check.h"

namespace delta::util {
class EventQueue;
}  // namespace delta::util

namespace delta::net {

/// The receiving side of a registered endpoint.
using MessageHandler = std::function<void(const Message&)>;

/// One registered endpoint, as both transports keep it per slot.
struct Endpoint {
  std::string name;
  MessageHandler handler;
  TrafficMeter meter;
};

/// Appends a new endpoint to `endpoints` and returns its slot. A null
/// handler, or a name some endpoint already holds, is a checked failure.
/// A deque, so endpoint meters stay at stable addresses as later
/// endpoints register — callers may hold endpoint_meter() references
/// long-term.
std::size_t add_endpoint(std::deque<Endpoint>& endpoints,
                         const std::string& name, MessageHandler handler);

class Transport {
 public:
  virtual ~Transport() = default;

  /// Registers a destination endpoint and returns its stable slot, the
  /// only address send_to and Message::sender take. Names are unique: a
  /// second registration under a registered name is a checked failure.
  virtual std::size_t register_endpoint(const std::string& name,
                                        MessageHandler handler) = 0;

  /// Delivers `message` to the endpoint at `destination_slot`, accounting
  /// `message.payload` under `mechanism` and the header under overhead.
  /// An unregistered destination or sender slot is a checked failure. The
  /// transport may stamp simulated timestamps into `message` in place
  /// (senders that keep the message own it).
  virtual void send_to(std::size_t destination_slot, Message& message,
                       Mechanism mechanism) = 0;

  /// Sends a request whose reply the caller is about to block on (the
  /// sync-façade round trip). Semantically identical to send_to; the
  /// blocking contract lets an event-driven transport fast-forward its
  /// clock to the delivery instant and deliver inline — skipping the event
  /// queue — when no earlier event is pending, and extend the same fast
  /// path to the reply sent while this request is being handled. Callers
  /// that do NOT immediately wait for the reply must use send_to.
  virtual void send_call(std::size_t destination_slot, Message& message,
                         Mechanism mechanism) {
    send_to(destination_slot, message, mechanism);
  }

  /// True when send_to delivers (and meters) inline before returning —
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
  /// queued on the egress link from `from_slot` to `to_slot` (how long a
  /// message sent now would wait before its own serialization starts).
  /// Zero on synchronous transports — there is no queueing to observe —
  /// so backlog-gated behavior (ServerNode notice batching) degenerates to
  /// the unbatched path there.
  [[nodiscard]] virtual double egress_backlog_seconds(
      std::size_t from_slot, std::size_t to_slot) const {
    (void)from_slot;
    (void)to_slot;
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

  /// Meter of the traffic delivered to the endpoint at `slot` (checked
  /// failure if no endpoint holds it).
  [[nodiscard]] virtual const TrafficMeter& endpoint_meter(
      std::size_t slot) const = 0;
};

/// Synchronous in-process transport with deterministic delivery order. It
/// also keeps the aggregate meter over every delivery, which the
/// single-cache system reports as its figure traffic.
class LoopbackTransport final : public Transport {
 public:
  std::size_t register_endpoint(const std::string& name,
                                MessageHandler handler) override;

  void send_to(std::size_t destination_slot, Message& message,
               Mechanism mechanism) override;

  /// Aggregate accounting across all endpoints.
  [[nodiscard]] const TrafficMeter& meter() const { return meter_; }

  [[nodiscard]] const TrafficMeter& endpoint_meter(
      std::size_t slot) const override;
  [[nodiscard]] std::size_t endpoint_count() const {
    return endpoints_.size();
  }

  [[nodiscard]] std::int64_t delivered_count() const { return delivered_; }

 private:
  std::deque<Endpoint> endpoints_;
  TrafficMeter meter_;
  std::int64_t delivered_ = 0;
};

}  // namespace delta::net
