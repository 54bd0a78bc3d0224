// Latency-aware, non-blocking transport: sends schedule their delivery on a
// shared discrete-event queue instead of invoking the destination handler
// inline.
//
// The wire's two directions (server -> cache, cache -> server) run over
// one LinkModel, each with its own FIFO. A message entering a direction at
// time t:
//   departs at   max(t, direction busy-until)  (FIFO: queue behind earlier
//                                               sends the same way)
//   occupies it for (payload+header)/bandwidth seconds
//                                              (serialization occupancy)
//   is delivered at depart + serialization + RTT/2.
// Delivery times are therefore nondecreasing per direction, and the event
// queue's stable (time, seq) order makes the whole schedule deterministic.
//
// Each end's meter is charged as on LoopbackTransport, but at *delivery*
// time: traffic in flight is not yet counted, which is what the
// warm-up-boundary snapshot semantics of the engines require.
//
// End names are read only when a fault plan is resolved: its rules,
// partitions and crash schedules name endpoints, and each fate is drawn
// from a stream keyed by the direction's two names.
//
// Per-sender uplink statistics (serialization busy time, queueing waits)
// expose the contention that the single-cache loop can only assume
// away; the event engine reads them for its server-uplink yardstick.
#pragma once

#include <algorithm>
#include <array>
#include <string>
#include <vector>

#include "net/fault_plan.h"
#include "net/link_model.h"
#include "net/message.h"
#include "net/traffic_meter.h"
#include "net/transport.h"
#include "util/event_queue.h"

namespace delta::net {

/// Egress-side contention counters for one sending end.
struct UplinkStats {
  std::int64_t sends = 0;
  /// Seconds the end's outgoing direction spent serializing messages.
  double busy_seconds = 0.0;
  /// Seconds messages waited behind earlier sends before departing.
  double total_queue_wait = 0.0;
  double max_queue_wait = 0.0;

  /// Folds `other` into this record: counts and times add, the longest
  /// wait is kept.
  UplinkStats& merge(const UplinkStats& other) {
    sends += other.sends;
    busy_seconds += other.busy_seconds;
    total_queue_wait += other.total_queue_wait;
    max_queue_wait = std::max(max_queue_wait, other.max_queue_wait);
    return *this;
  }
};

class DelayedTransport final : public Transport {
 public:
  /// Called on every delivery, after metering, before the destination
  /// handler. The message carries its sim_sent_at/sim_delivered_at stamps —
  /// the event engine derives its staleness yardstick from them. A typed
  /// function pointer plus context, like every other per-delivery hook:
  /// the observer fires once per delivered message.
  using DeliveryObserver = void (*)(void* ctx, const Message& message,
                                    End to);

  /// The queue outlives the transport. Both directions run over `link`.
  DelayedTransport(util::EventQueue* events, LinkModel link);

  // ---- Transport interface ----

  /// Binds the end; binding the second end resolves an installed fault
  /// plan against the two names.
  void bind(End end, std::string name, MessageHandler handler) override;
  void send(End to, Message& message, Mechanism mechanism) override {
    transmit(to, message, mechanism, /*call=*/false);
  }
  void send_call(End to, Message& message, Mechanism mechanism) override {
    transmit(to, message, mechanism, /*call=*/true);
  }
  [[nodiscard]] bool synchronous() const override { return false; }
  void wait_until(WaitPredicate done, void* ctx) override;
  [[nodiscard]] util::EventQueue* events() override { return events_; }
  [[nodiscard]] double now() const override { return events_->now(); }
  /// Serialization backlog already queued out of `from`: how long a
  /// message sent now would wait before its own serialization starts
  /// (max(0, busy_until - now)). The congestion signal ServerNode's notice
  /// batching gates on.
  [[nodiscard]] double egress_backlog_seconds(End from) const override {
    return std::max(0.0, busy_until_[end_index(from)] - events_->now());
  }

  // ---- fault injection ----

  /// Installs (or replaces) the fault plan. The plan's endpoint names
  /// resolve against the two bound names here, or when the second end
  /// binds; names neither end holds are ignored. Installing a plan
  /// restarts both directions' draw streams at sequence zero. A disabled
  /// plan — or one with no nonzero probability, no partition window and
  /// no crash window — deactivates every fault hook, including the inline
  /// fast-path gate, so such a config is byte-identical to never having
  /// called this at all.
  void set_fault_plan(FaultPlan plan);
  /// The fault fates this transport counted (faults_*, partition_dropped,
  /// crash_dropped); every other field stays zero.
  [[nodiscard]] const ChaosYardsticks& counters() const { return counters_; }
  [[nodiscard]] bool faults_active() const { return faults_active_; }
  /// The crash windows that kill `end`'s process: those of the plan's
  /// first schedule that names the end and has windows. nullptr when no
  /// plan is active, the wire is not yet bound, or no schedule applies.
  [[nodiscard]] const std::vector<FaultWindow>* crash_windows(End end) const {
    return crash_windows_[end_index(end)];
  }
  /// True when `end`'s process is crashed at simulated instant `t` (one of
  /// its crash windows covers t).
  [[nodiscard]] bool endpoint_down(End end, double t) const {
    const std::vector<FaultWindow>* windows = crash_windows(end);
    if (windows == nullptr) return false;
    for (const FaultWindow& w : *windows) {
      if (w.covers(t)) return true;
    }
    return false;
  }

  // ---- simulation-side instrumentation ----

  /// Observes every delivered message.
  void set_delivery_observer(DeliveryObserver observer, void* ctx);

  /// Egress contention of the messages `from` sent.
  [[nodiscard]] const UplinkStats& uplink_stats(End from) const {
    return uplink_[end_index(from)];
  }
  [[nodiscard]] std::int64_t delivered_count() const { return delivered_; }

 private:
  /// A scheduled-but-undelivered message, a plain record, pooled so each
  /// send's event record is just {trampoline, this, pool index} —
  /// scheduling a delivery never allocates once the pool is warm.
  struct InFlight {
    Message message;
    End to = End::kServer;
    Mechanism mechanism = Mechanism::kOverhead;
  };

  /// Send/arrival instants of one transfer. Computing them runs the
  /// direction's state machine (FIFO depart, serialization occupancy,
  /// uplink stats) — call exactly once per message.
  struct LinkTiming {
    util::SimTime sent_at = 0.0;
    util::SimTime deliver_at = 0.0;
  };
  [[nodiscard]] LinkTiming plan_transfer(const Message& message, End to);

  /// Fault state of one direction. `seq` is its message sequence counter,
  /// the sole per-run state the draws depend on.
  struct LinkFaultState {
    LinkFaults faults;
    const std::vector<FaultWindow>* windows = nullptr;  // into plan_
    std::uint64_t key = 0;
    std::uint64_t seq = 0;
  };

  /// The fate apply_link_faults hands back for one sent message.
  struct FaultDecision {
    bool deliver = true;
    bool duplicate = false;
  };

  /// Draws this message's fate from its direction's stream: partition
  /// windows and drops kill it (serialization is already paid — the sender
  /// cannot know the wire ate it), reorder pushes deliver_at forward,
  /// duplicate asks the caller to schedule a second flight with the same
  /// timing (the original delivers first by event order). Advances the
  /// direction's seq.
  [[nodiscard]] FaultDecision apply_link_faults(End to, LinkTiming& timing);
  /// Resolves the plan's rules, partitions and crash schedules against the
  /// two end names, with both streams at sequence zero. Clears every fault
  /// hook while no fault is active or an end is unbound.
  void resolve_faults();

  /// True when the queue holds nothing that would execute before an event
  /// at `deliver_at` — the guard under which delivering inline (after
  /// fast-forwarding the clock) is indistinguishable from a trip through
  /// the queue. Strict: a pending event at exactly `deliver_at` was
  /// scheduled earlier, so it must run first.
  /// Faults force every message through the queue: a dropped or delayed
  /// reply must NOT short-circuit past the fault draw's consequences, and
  /// keeping one schedule shape keeps the chaos runs bit-identical across
  /// thread counts.
  [[nodiscard]] bool can_deliver_inline(util::SimTime deliver_at) {
    return !faults_active_ && events_->next_time() > deliver_at;
  }

  /// The one send path: plan the transfer on the sender's direction, draw
  /// its fault fate, then deliver inline when `call` (send_call) or the
  /// reply window allows it, else put the message (and any duplicate) in
  /// flight.
  void transmit(End to, Message& message, Mechanism mechanism, bool call);
  /// Inline (fast-forwarded clock) delivery of `message`, stamped in
  /// place, when can_deliver_inline allows; returns false when the event
  /// queue must carry the message instead. `request_window` opens the
  /// one-shot reply window across the dispatch (the send_call case).
  bool deliver_inline(End to, Message& message, Mechanism mechanism,
                      const LinkTiming& timing, bool request_window);
  void schedule_flight(End to, const Message& message, Mechanism mechanism,
                       const LinkTiming& timing);
  void deliver_pooled(std::uint32_t flight_index);
  void deliver(End to, const Message& message, Mechanism mechanism);

  util::EventQueue* events_;
  LinkModel link_;
  /// Per-direction state, indexed by the sending end: when its FIFO frees
  /// up, its contention counters and its fault stream.
  std::array<util::SimTime, 2> busy_until_{};
  std::array<UplinkStats, 2> uplink_{};
  std::array<LinkFaultState, 2> link_faults_{};
  /// Per-end crash windows (into plan_.crashes), indexed by the end itself;
  /// nullptr = the end never crashes.
  std::array<const std::vector<FaultWindow>*, 2> crash_windows_{};
  FaultPlan plan_;
  ChaosYardsticks counters_;
  bool faults_active_ = false;
  std::vector<InFlight> flight_pool_;
  std::vector<std::uint32_t> flight_free_;
  DeliveryObserver observer_ = nullptr;
  void* observer_ctx_ = nullptr;
  /// One-shot flag raised while a send_call request is being handled: the
  /// first send inside that window is the blocked caller's reply and may
  /// take the same inline fast path.
  bool reply_window_ = false;
  /// True while a send_call request dispatch is on the stack. The inline
  /// fast path is exact only while the handled request triggers at most
  /// ONE further send (the reply): a second send would be planned at the
  /// fast-forwarded clock instead of the request's arrival instant, so
  /// plan_transfer fails loudly on it (see the check there).
  bool inline_dispatch_ = false;
  std::int64_t delivered_ = 0;
};

}  // namespace delta::net
