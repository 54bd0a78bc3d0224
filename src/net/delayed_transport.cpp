#include "net/delayed_transport.h"

#include <algorithm>
#include <utility>

#include "util/check.h"

namespace delta::net {

DelayedTransport::DelayedTransport(util::EventQueue* events, LinkModel link)
    : events_(events), link_(link) {
  DELTA_CHECK(events != nullptr);
}

void DelayedTransport::bind(End end, std::string name,
                            MessageHandler handler) {
  Transport::bind(end, std::move(name), std::move(handler));
  resolve_faults();
}

void DelayedTransport::set_fault_plan(FaultPlan plan) {
  plan_ = std::move(plan);
  faults_active_ = false;
  if (plan_.enabled) {
    faults_active_ = plan_.default_faults.any();
    for (const LinkFaultRule& rule : plan_.rules) {
      faults_active_ = faults_active_ || rule.faults.any();
    }
    for (const LinkPartition& partition : plan_.partitions) {
      faults_active_ = faults_active_ || !partition.windows.empty();
    }
    for (const CrashSchedule& crash : plan_.crashes) {
      faults_active_ = faults_active_ || !crash.windows.empty();
    }
  }
  resolve_faults();  // a new plan restarts both directions' streams
}

void DelayedTransport::resolve_faults() {
  link_faults_.fill(LinkFaultState{});
  crash_windows_.fill(nullptr);
  if (!faults_active_ || !wired_) return;
  for (const End end : {End::kServer, End::kCache}) {
    const std::string& from = ends_[end_index(end)].name;
    for (const CrashSchedule& crash : plan_.crashes) {
      if (crash.name == from && !crash.windows.empty()) {
        crash_windows_[end_index(end)] = &crash.windows;
        break;
      }
    }
    // The direction out of `end`.
    const std::string& to = ends_[end_index(other_end(end))].name;
    LinkFaultState& state = link_faults_[end_index(end)];
    state.key = fault_link_key(plan_.seed, from, to);
    state.faults = plan_.default_faults;
    for (const LinkFaultRule& rule : plan_.rules) {  // last match wins
      if ((rule.from == from && rule.to == to) ||
          (rule.duplex && rule.from == to && rule.to == from)) {
        state.faults = rule.faults;
      }
    }
    for (const LinkPartition& partition : plan_.partitions) {
      if ((partition.from == from && partition.to == to) ||
          (partition.duplex && partition.from == to &&
           partition.to == from)) {
        state.windows = &partition.windows;
        break;
      }
    }
  }
}

DelayedTransport::FaultDecision DelayedTransport::apply_link_faults(
    End to, LinkTiming& timing) {
  if (!faults_active_) return FaultDecision{};
  const End from = other_end(to);
  LinkFaultState& state = link_faults_[end_index(from)];
  const std::uint64_t seq = state.seq++;
  // Crash-stop gating (ISSUE 10): a dead process can neither send nor
  // receive. The sender check uses the send instant; the destination check
  // runs at the *final* delivery instant, after any reorder delay, so a
  // message in flight across a heal still lands (late replies are the
  // restarted cache's problem, not the wire's).
  if (endpoint_down(from, timing.sent_at)) {
    ++counters_.crash_dropped;
    return FaultDecision{false, false};
  }
  if (state.windows != nullptr) {
    for (const FaultWindow& window : *state.windows) {
      if (window.covers(timing.sent_at)) {
        ++counters_.partition_dropped;
        return FaultDecision{false, false};
      }
    }
  }
  if (!state.faults.any()) {
    if (endpoint_down(to, timing.deliver_at)) {
      ++counters_.crash_dropped;
      return FaultDecision{false, false};
    }
    return FaultDecision{};
  }
  // The message's private splitmix stream: its fate is a pure function of
  // (plan seed, the direction's two end names, its sequence number) — no
  // shared RNG state, so shard interleaving and thread count cannot touch
  // it.
  std::uint64_t s = state.key ^ fault_mix64(seq);
  const auto draw = [&s] {
    s = fault_mix64(s);
    return fault_u01(s);
  };
  if (draw() < state.faults.drop) {
    ++counters_.faults_dropped;
    return FaultDecision{false, false};
  }
  FaultDecision fate;
  if (draw() < state.faults.reorder) {
    ++counters_.faults_reordered;
    timing.deliver_at += draw() * state.faults.reorder_max_delay_seconds;
  }
  if (draw() < state.faults.duplicate) {
    ++counters_.faults_duplicated;
    fate.duplicate = true;
  }
  // Post-reorder delivery instant: the destination must be alive when the
  // message actually lands (the duplicate shares this timing, so one dead
  // destination kills both copies).
  if (endpoint_down(to, timing.deliver_at)) {
    ++counters_.crash_dropped;
    return FaultDecision{false, false};
  }
  return fate;
}

void DelayedTransport::transmit(End to, Message& message,
                                Mechanism mechanism, bool call) {
  check_wired(to);
  LinkTiming timing = plan_transfer(message, to);
  const FaultDecision fate = apply_link_faults(to, timing);
  if (!fate.deliver) return;  // lost on the wire; serialization is paid
  // A send_call request may skip the queue: its caller blocks until the
  // reply, so jumping the clock to the request's arrival is exactly what
  // popping it off the queue would have done. So may the first send while
  // such a request is being handled: that is the reply the caller is
  // blocked on. Either way the caller owns the message, which is stamped
  // in place.
  const bool may_inline = call || reply_window_;
  reply_window_ = false;
  if (may_inline && deliver_inline(to, message, mechanism, timing,
                                   /*request_window=*/call)) {
    return;
  }
  schedule_flight(to, message, mechanism, timing);
  if (fate.duplicate) schedule_flight(to, message, mechanism, timing);
}

void DelayedTransport::wait_until(WaitPredicate done, void* ctx) {
  events_->pump_until([done, ctx] { return done(ctx); });
}

DelayedTransport::LinkTiming DelayedTransport::plan_transfer(
    const Message& message, End to) {
  // The inline fast path's exactness rests on "one send per handled
  // request": while a send_call dispatch is on the stack, the clock may
  // already sit at the reply's arrival, so any send after the window was
  // consumed would be planned at the wrong instant. Fail loudly instead
  // of silently diverging from the queue schedule.
  DELTA_CHECK_MSG(!inline_dispatch_ || reply_window_,
                  "handler sent more than one message while its request "
                  "was delivered inline (send_call fast path supports "
                  "exactly one reply; use send from an async context)");
  const std::size_t from = end_index(other_end(to));
  util::SimTime& busy_until = busy_until_[from];

  const util::SimTime now = events_->now();
  const util::SimTime depart = std::max(now, busy_until);
  const double serialization = link_.serialization_seconds(
      message.payload + kMessageHeaderBytes + message.batch_bytes());
  busy_until = depart + serialization;

  UplinkStats& uplink = uplink_[from];
  ++uplink.sends;
  uplink.busy_seconds += serialization;
  if (depart > now) {  // queued behind an earlier send (wait > 0)
    const double wait = depart - now;
    uplink.total_queue_wait += wait;
    uplink.max_queue_wait = std::max(uplink.max_queue_wait, wait);
  }
  return LinkTiming{now, depart + serialization + link_.one_way_seconds()};
}

bool DelayedTransport::deliver_inline(End to, Message& message,
                                      Mechanism mechanism,
                                      const LinkTiming& timing,
                                      bool request_window) {
  if (!can_deliver_inline(timing.deliver_at)) return false;
  events_->fast_forward(timing.deliver_at);
  message.sim_sent_at = timing.sent_at;
  message.sim_delivered_at = timing.deliver_at;
  if (request_window) {
    const bool outer_dispatch = inline_dispatch_;
    inline_dispatch_ = true;
    reply_window_ = true;
    deliver(to, message, mechanism);
    reply_window_ = false;
    inline_dispatch_ = outer_dispatch;
  } else {
    deliver(to, message, mechanism);
  }
  return true;
}

void DelayedTransport::schedule_flight(End to, const Message& message,
                                       Mechanism mechanism,
                                       const LinkTiming& timing) {
  std::uint32_t flight_index;
  if (flight_free_.empty()) {
    flight_index = static_cast<std::uint32_t>(flight_pool_.size());
    flight_pool_.emplace_back();
  } else {
    flight_index = flight_free_.back();
    flight_free_.pop_back();
  }
  InFlight& flight = flight_pool_[flight_index];
  flight.message = message;
  flight.message.sim_sent_at = timing.sent_at;
  flight.message.sim_delivered_at = timing.deliver_at;
  flight.to = to;
  flight.mechanism = mechanism;
  events_->schedule(
      timing.deliver_at,
      [](void* self, std::uint64_t index) {
        static_cast<DelayedTransport*>(self)->deliver_pooled(
            static_cast<std::uint32_t>(index));
      },
      this, flight_index);
}

void DelayedTransport::deliver_pooled(std::uint32_t flight_index) {
  // Copy the record out and free its pool entry BEFORE invoking the handler:
  // handlers send further messages, which may grow (and reallocate) the
  // pool mid-delivery.
  const InFlight flight = flight_pool_[flight_index];
  flight_free_.push_back(flight_index);
  // A popped delivery is never the fast-path reply target: the window is
  // only open across an inline send_call dispatch.
  deliver(flight.to, flight.message, flight.mechanism);
}

void DelayedTransport::deliver(End to, const Message& message,
                               Mechanism mechanism) {
  Endpoint& endpoint = ends_[end_index(to)];
  endpoint.meter.record(mechanism, message.payload);
  endpoint.meter.record(Mechanism::kOverhead,
                        kMessageHeaderBytes + message.batch_bytes());
  ++delivered_;
  if (observer_ != nullptr) {
    observer_(observer_ctx_, message, to);
  }
  endpoint.handler(message);
}

void DelayedTransport::set_delivery_observer(DeliveryObserver observer,
                                             void* ctx) {
  observer_ = observer;
  observer_ctx_ = ctx;
}

}  // namespace delta::net
