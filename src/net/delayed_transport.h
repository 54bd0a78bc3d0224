// Latency-aware, non-blocking transport: sends schedule their delivery on a
// shared discrete-event queue instead of invoking the destination handler
// inline.
//
// Every directed (sender slot -> destination slot) pair of registered
// endpoints is a link parameterized by a LinkModel; a message's link is
// keyed by its Message::sender slot and the send_to destination slot. A
// message entering a link at time t:
//   departs at   max(t, link busy-until)        (FIFO: queue behind earlier
//                                                sends on the same link)
//   occupies the link for (payload+header)/bandwidth seconds
//                                               (serialization occupancy)
//   is delivered at depart + serialization + RTT/2.
// Delivery times are therefore nondecreasing per link, and the event
// queue's stable (time, seq) order makes the whole schedule deterministic.
//
// Each endpoint's meter is charged as on LoopbackTransport, but at
// *delivery* time: traffic in flight is not yet counted, which is what the
// warm-up-boundary snapshot semantics of the engines require. There is no
// aggregate meter: the per-endpoint meters partition all traffic, so a
// caller derives any total as their sum.
//
// Endpoint names are read only when a fault plan is resolved: its rules,
// partitions and crash schedules name endpoints, and each fate is drawn
// from a stream keyed by the link's two names.
//
// Per-source uplink statistics (serialization busy time, queueing waits)
// expose the contention that the single-cache loop can only assume
// away; the event engine reads them for its server-uplink yardstick.
#pragma once

#include <deque>
#include <string>
#include <vector>

#include "net/fault_plan.h"
#include "net/link_model.h"
#include "net/message.h"
#include "net/traffic_meter.h"
#include "net/transport.h"
#include "util/event_queue.h"

namespace delta::net {

/// Egress-side contention counters for one sender endpoint, aggregated
/// over all links it sources.
struct UplinkStats {
  std::int64_t sends = 0;
  /// Seconds the endpoint's links spent serializing messages.
  double busy_seconds = 0.0;
  /// Seconds messages waited behind earlier sends before departing.
  double total_queue_wait = 0.0;
  double max_queue_wait = 0.0;
};

class DelayedTransport final : public Transport {
 public:
  /// Called on every delivery, after metering, before the destination
  /// handler. The message carries its sim_sent_at/sim_delivered_at stamps —
  /// the event engine derives its staleness yardstick from them. A typed
  /// function pointer plus context, like every other per-delivery hook:
  /// the observer fires once per delivered message.
  using DeliveryObserver = void (*)(void* ctx, const Message& message,
                                    std::size_t destination_slot);

  /// The queue outlives the transport. Links default to `default_link`
  /// until configured individually.
  explicit DelayedTransport(util::EventQueue* events,
                            LinkModel default_link = LinkModel{});

  // ---- Transport interface ----

  std::size_t register_endpoint(const std::string& name,
                                MessageHandler handler) override;
  void send_to(std::size_t destination_slot, Message& message,
               Mechanism mechanism) override {
    transmit(destination_slot, message, mechanism, /*call=*/false);
  }
  void send_call(std::size_t destination_slot, Message& message,
                 Mechanism mechanism) override {
    transmit(destination_slot, message, mechanism, /*call=*/true);
  }
  [[nodiscard]] bool synchronous() const override { return false; }
  void wait_until(WaitPredicate done, void* ctx) override;
  [[nodiscard]] util::EventQueue* events() override { return events_; }
  [[nodiscard]] double now() const override { return events_->now(); }
  /// Serialization backlog already queued on the directed link: how long a
  /// message sent now would wait before its own serialization starts
  /// (max(0, busy_until - now)). The congestion signal ServerNode's notice
  /// batching gates on.
  [[nodiscard]] double egress_backlog_seconds(
      std::size_t from_slot, std::size_t to_slot) const override;
  [[nodiscard]] const TrafficMeter& endpoint_meter(
      std::size_t slot) const override;
  [[nodiscard]] std::size_t endpoint_count() const { return endpoint_count_; }

  // ---- link configuration ----

  /// Configures the directed link `from_slot` -> `to_slot`. Both endpoints
  /// must be registered. Replacing a link keeps its busy-until horizon (the
  /// wire does not forget its backlog when re-parameterized).
  void set_link(std::size_t from_slot, std::size_t to_slot, LinkModel link);

  /// Configures both directions between `a_slot` and `b_slot` with the same
  /// model — the common duplex server<->cache path.
  void set_duplex_link(std::size_t a_slot, std::size_t b_slot,
                       LinkModel link);

  // ---- fault injection ----

  /// Installs (or replaces) the fault plan. The plan's endpoint names
  /// resolve to slots here and again whenever an endpoint registers; names
  /// no endpoint holds are ignored until one does. Installing a plan
  /// restarts every link's draw stream at sequence zero. A disabled plan —
  /// or one with no nonzero probability and no partition window —
  /// deactivates every fault hook, including the inline fast-path gate, so
  /// such a config is byte-identical to never having called this at all.
  void set_fault_plan(FaultPlan plan);
  /// The fault fates this transport counted (faults_*, partition_dropped,
  /// crash_dropped); every other field stays zero.
  [[nodiscard]] const ChaosYardsticks& counters() const { return counters_; }
  [[nodiscard]] bool faults_active() const { return faults_active_; }
  /// True when `slot`'s process is crashed at simulated instant `t`
  /// (some crash window of the installed plan covers t). False when no
  /// plan is active or the endpoint has no crash schedule.
  [[nodiscard]] bool endpoint_down(std::size_t slot, double t) const {
    if (slot >= crash_windows_.size() || crash_windows_[slot] == nullptr) {
      return false;
    }
    for (const FaultWindow& w : *crash_windows_[slot]) {
      if (w.covers(t)) return true;
    }
    return false;
  }

  // ---- simulation-side instrumentation ----

  /// Observes every delivered message.
  void set_delivery_observer(DeliveryObserver observer, void* ctx);

  [[nodiscard]] const UplinkStats& uplink_stats(std::size_t slot) const;
  [[nodiscard]] std::int64_t delivered_count() const { return delivered_; }
  /// Messages scheduled but not yet delivered.
  [[nodiscard]] std::int64_t in_flight() const { return in_flight_; }

 private:
  struct Link {
    LinkModel model;
    util::SimTime busy_until = 0.0;
  };

  /// A scheduled-but-undelivered message, pooled so each send's event
  /// record is just {trampoline, this, pool index} — scheduling a delivery
  /// never allocates once the pool is warm.
  struct InFlight {
    Message message;
    std::size_t destination_slot = 0;
    Mechanism mechanism = Mechanism::kOverhead;
  };

  [[nodiscard]] Link& link_between(std::size_t from, std::size_t to) {
    return link_grid_[from * grid_cols_ + to];
  }
  [[nodiscard]] const Link& link_between(std::size_t from,
                                         std::size_t to) const {
    return link_grid_[from * grid_cols_ + to];
  }

  /// Send/arrival instants of one transfer. Computing them runs the link
  /// state machine (FIFO depart, serialization occupancy, uplink stats) —
  /// call exactly once per message.
  struct LinkTiming {
    util::SimTime sent_at = 0.0;
    util::SimTime deliver_at = 0.0;
    std::size_t sender_slot = 0;
  };
  [[nodiscard]] LinkTiming plan_transfer(const Message& message,
                                         std::size_t destination_slot);

  /// Per-directed-link fault state, indexed like link_grid_. `seq` is the
  /// link's message sequence counter — the sole per-run state the draws
  /// depend on, preserved across grid growth so a link's stream position
  /// never depends on when later endpoints registered.
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

  /// Draws this message's fate from its link's stream: partition windows
  /// and drops kill it (serialization is already paid — the sender cannot
  /// know the wire ate it), reorder pushes deliver_at forward, duplicate
  /// asks the caller to schedule a second flight with the same timing (the
  /// original delivers first by event order). Advances the link's seq.
  [[nodiscard]] FaultDecision apply_link_faults(std::size_t destination_slot,
                                                LinkTiming& timing);
  void rebuild_fault_grid(const std::vector<LinkFaultState>& old_grid,
                          std::size_t old_cols);

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

  /// The one send path: plan the transfer on the sender's link, draw its
  /// fault fate, then deliver inline when `call` (send_call) or the reply
  /// window allows it, else put the message (and any duplicate) in flight.
  void transmit(std::size_t destination_slot, Message& message,
                Mechanism mechanism, bool call);
  /// Inline (fast-forwarded clock) delivery of `message`, stamped in
  /// place, when can_deliver_inline allows; returns false when the event
  /// queue must carry the message instead. `request_window` opens the
  /// one-shot reply window across the dispatch (the send_call case).
  bool deliver_inline(std::size_t destination_slot, Message& message,
                      Mechanism mechanism, const LinkTiming& timing,
                      bool request_window);
  void schedule_flight(std::size_t destination_slot, const Message& message,
                       Mechanism mechanism, const LinkTiming& timing);
  void deliver_pooled(std::uint32_t flight_index);
  void deliver(std::size_t destination_slot, const Message& message,
               Mechanism mechanism);

  void grow_link_grid();

  util::EventQueue* events_;
  LinkModel default_link_;
  std::deque<Endpoint> endpoints_;
  /// Cached endpoints_.size(): the per-send slot checks must not pay the
  /// deque's iterator arithmetic.
  std::size_t endpoint_count_ = 0;
  /// Uplink stats live outside Endpoint in a flat vector: plan_transfer
  /// touches them once per sent message, and deque indexing costs an
  /// integer division per access.
  std::vector<UplinkStats> uplink_;
  /// Dense per-directed-pair link state, one row per sender slot by
  /// `grid_cols_` destination columns: the per-send link lookup is one
  /// multiply-add. Rebuilt (preserving busy horizons) when an endpoint
  /// registers.
  std::vector<Link> link_grid_;
  std::size_t grid_cols_ = 0;
  FaultPlan plan_;
  /// Parallel to link_grid_; empty while no fault is active.
  std::vector<LinkFaultState> fault_grid_;
  /// Per-endpoint crash windows (into plan_.crashes), indexed by endpoint
  /// slot; nullptr = the endpoint never crashes. Empty while no fault is
  /// active. Name-resolved alongside the fault grid so registration order
  /// cannot matter.
  std::vector<const std::vector<FaultWindow>*> crash_windows_;
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
  std::int64_t in_flight_ = 0;
};

}  // namespace delta::net
