#include "net/delayed_transport.h"

#include <algorithm>
#include <utility>

#include "util/check.h"

namespace delta::net {

DelayedTransport::DelayedTransport(util::EventQueue* events,
                                   LinkModel default_link,
                                   bool aggregate_metering)
    : events_(events),
      default_link_(default_link),
      aggregate_metering_(aggregate_metering) {
  DELTA_CHECK(events != nullptr);
}

std::size_t DelayedTransport::register_endpoint(const std::string& name,
                                                MessageHandler handler) {
  DELTA_CHECK(handler != nullptr);
  const auto it = index_.find(name);
  if (it != index_.end()) {
    endpoints_[it->second].handler = std::move(handler);  // meter survives
    return it->second;
  }
  const std::size_t slot = endpoints_.size();
  index_.emplace(name, slot);
  endpoints_.push_back(Endpoint{name, std::move(handler), TrafficMeter{}});
  endpoint_count_ = endpoints_.size();
  uplink_.push_back(UplinkStats{});
  grow_link_grid();
  return slot;
}

void DelayedTransport::grow_link_grid() {
  // Rebuild the dense (sender row, destination column) grid around the new
  // endpoint count. Existing links keep their model and busy horizon (the
  // wire does not forget its backlog when the topology grows).
  const std::size_t old_cols = grid_cols_;
  const std::size_t new_cols = endpoints_.size();
  std::vector<Link> grid((new_cols + 1) * new_cols,
                         Link{default_link_, 0.0});
  for (std::size_t row = 0; row < old_cols + 1; ++row) {
    for (std::size_t col = 0; col < old_cols; ++col) {
      grid[row * new_cols + col] = link_grid_[row * old_cols + col];
    }
  }
  link_grid_ = std::move(grid);
  grid_cols_ = new_cols;
  if (faults_active_) {
    const std::vector<LinkFaultState> old_faults = std::move(fault_grid_);
    rebuild_fault_grid(old_faults, old_cols);
  }
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
  rebuild_fault_grid({}, 0);  // a new plan restarts every link's stream
}

void DelayedTransport::rebuild_fault_grid(
    const std::vector<LinkFaultState>& old_grid, std::size_t old_cols) {
  if (!faults_active_) {
    fault_grid_.clear();
    crash_windows_.clear();
    return;
  }
  fault_grid_.assign((grid_cols_ + 1) * grid_cols_, LinkFaultState{});
  // Crash-stop schedules resolve by endpoint name, like everything else in
  // the plan, so registration order cannot perturb fates.
  crash_windows_.assign(grid_cols_, nullptr);
  for (std::size_t slot = 0; slot < grid_cols_; ++slot) {
    for (const CrashSchedule& crash : plan_.crashes) {
      if (crash.name == endpoints_[slot].name && !crash.windows.empty()) {
        crash_windows_[slot] = &crash.windows;
        break;
      }
    }
  }
  for (std::size_t row = 0; row < grid_cols_ + 1; ++row) {
    // Row 0 is the shared external-sender source; a plan addresses it with
    // an empty endpoint name.
    static const std::string kExternalName;
    const std::string& from =
        row == 0 ? kExternalName : endpoints_[row - 1].name;
    for (std::size_t col = 0; col < grid_cols_; ++col) {
      const std::string& to = endpoints_[col].name;
      LinkFaultState& state = fault_grid_[row * grid_cols_ + col];
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
  // Topology growth preserves every existing link's stream position.
  for (std::size_t row = 0; row < old_cols + 1; ++row) {
    for (std::size_t col = 0; col < old_cols; ++col) {
      fault_grid_[row * grid_cols_ + col].seq =
          old_grid[row * old_cols + col].seq;
    }
  }
}

DelayedTransport::FaultDecision DelayedTransport::apply_link_faults(
    std::size_t destination_slot, LinkTiming& timing) {
  if (!faults_active_) return FaultDecision{};
  LinkFaultState& state =
      fault_grid_[link_row(timing.sender_slot) * grid_cols_ +
                  destination_slot];
  const std::uint64_t seq = state.seq++;
  // Crash-stop gating (ISSUE 10): a dead process can neither send nor
  // receive. The sender check uses the send instant; the destination check
  // runs at the *final* delivery instant, after any reorder delay, so a
  // message in flight across a heal still lands (late replies are the
  // restarted cache's problem, not the wire's).
  if (endpoint_down(timing.sender_slot, timing.sent_at)) {
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
    if (endpoint_down(destination_slot, timing.deliver_at)) {
      ++counters_.crash_dropped;
      return FaultDecision{false, false};
    }
    return FaultDecision{};
  }
  // The message's private splitmix stream: its fate is a pure function of
  // (plan seed, link endpoint names, per-link sequence number) — no shared
  // RNG state, so shard interleaving and thread count cannot touch it.
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
  if (endpoint_down(destination_slot, timing.deliver_at)) {
    ++counters_.crash_dropped;
    return FaultDecision{false, false};
  }
  return fate;
}

std::size_t DelayedTransport::endpoint_slot(const std::string& name) const {
  const auto it = index_.find(name);
  DELTA_CHECK_MSG(it != index_.end(), "unknown endpoint '" << name << "'");
  return it->second;
}

void DelayedTransport::send(const std::string& destination,
                            const Message& message, Mechanism mechanism) {
  const auto it = index_.find(destination);
  DELTA_CHECK_MSG(it != index_.end(),
                  "unknown endpoint '" << destination << "'");
  schedule_delivery(it->second, message, mechanism);
}

void DelayedTransport::send_to(std::size_t destination_slot,
                               const Message& message, Mechanism mechanism) {
  DELTA_CHECK_MSG(destination_slot < endpoint_count_,
                  "unknown endpoint slot " << destination_slot);
  schedule_delivery(destination_slot, message, mechanism);
}

void DelayedTransport::send_to(std::size_t destination_slot,
                               Message& message, Mechanism mechanism) {
  DELTA_CHECK_MSG(destination_slot < endpoint_count_,
                  "unknown endpoint slot " << destination_slot);
  LinkTiming timing = plan_transfer(message, destination_slot);
  const FaultDecision fate = apply_link_faults(destination_slot, timing);
  if (!fate.deliver) return;  // lost on the wire; serialization is paid
  if (reply_window_) {
    // First send while a send_call request is being handled: this is the
    // reply its sender is blocked on, and the caller owns the message —
    // stamp in place, no copy (the path every server reply takes).
    reply_window_ = false;
    if (deliver_inline(destination_slot, message, mechanism, timing,
                       /*request_window=*/false)) {
      return;
    }
  }
  schedule_flight(destination_slot, message, mechanism, timing);
  if (fate.duplicate) {
    schedule_flight(destination_slot, message, mechanism, timing);
  }
}

void DelayedTransport::wait_until(WaitPredicate done, void* ctx) {
  events_->pump_until([done, ctx] { return done(ctx); });
}

double DelayedTransport::egress_backlog_seconds(std::size_t from_slot,
                                                std::size_t to_slot) const {
  DELTA_CHECK_MSG(from_slot < endpoint_count_ && to_slot < endpoint_count_,
                  "no backlog: unknown endpoint slot");
  const Link& link = link_between(from_slot, to_slot);
  return std::max(0.0, link.busy_until - events_->now());
}

std::size_t DelayedTransport::resolve_sender(const Message& message) const {
  // Fast path: endpoints stamp their own transport slot, so the per-send
  // name hash is reserved for external senders (mirrors the slot fast path
  // in ServerNode::sender_entry).
  if (message.sender_transport_slot >= 0 &&
      static_cast<std::size_t>(message.sender_transport_slot) <
          endpoint_count_) {
    const auto slot =
        static_cast<std::size_t>(message.sender_transport_slot);
    // A slot from another transport instance (or a forged one) must not be
    // silently attributed to the wrong sender's link.
    DELTA_DCHECK(endpoints_[slot].name == message.sender);
    return slot;
  }
  const auto it = index_.find(message.sender);
  return it == index_.end() ? kExternalSource : it->second;
}

void DelayedTransport::set_link(const std::string& from,
                                const std::string& to, LinkModel link) {
  const std::size_t from_slot = endpoint_slot(from);
  const std::size_t to_slot = endpoint_slot(to);
  link_between(from_slot, to_slot).model = link;
}

void DelayedTransport::set_duplex_link(const std::string& a,
                                       const std::string& b, LinkModel link) {
  set_link(a, b, link);
  set_link(b, a, link);
}

DelayedTransport::LinkTiming DelayedTransport::plan_transfer(
    const Message& message, std::size_t destination_slot) {
  // The inline fast path's exactness rests on "one send per handled
  // request": while a send_call dispatch is on the stack, the clock may
  // already sit at the reply's arrival, so any send after the window was
  // consumed would be planned at the wrong instant. Fail loudly instead
  // of silently diverging from the queue schedule.
  DELTA_CHECK_MSG(!inline_dispatch_ || reply_window_,
                  "handler sent more than one message while its request "
                  "was delivered inline (send_call fast path supports "
                  "exactly one reply; use send_to from an async context)");
  const std::size_t sender_slot = resolve_sender(message);
  Link& link = link_between(sender_slot, destination_slot);

  const util::SimTime now = events_->now();
  const util::SimTime depart = std::max(now, link.busy_until);
  const double serialization = link.model.serialization_seconds(
      message.payload + kMessageHeaderBytes + message.batch_bytes);
  link.busy_until = depart + serialization;

  if (sender_slot != kExternalSource) {
    UplinkStats& uplink = uplink_[sender_slot];
    ++uplink.sends;
    uplink.busy_seconds += serialization;
    if (depart > now) {  // queued behind an earlier send (wait > 0)
      const double wait = depart - now;
      uplink.total_queue_wait += wait;
      uplink.max_queue_wait = std::max(uplink.max_queue_wait, wait);
    }
  }
  return LinkTiming{now, depart + serialization + link.model.one_way_seconds(),
                    sender_slot};
}

void DelayedTransport::schedule_delivery(std::size_t destination_slot,
                                         const Message& message,
                                         Mechanism mechanism) {
  LinkTiming timing = plan_transfer(message, destination_slot);
  const FaultDecision fate = apply_link_faults(destination_slot, timing);
  if (!fate.deliver) return;  // lost on the wire; serialization is paid
  if (reply_window_) {
    // First send while a send_call request is being handled: this is the
    // reply its sender is blocked on, so the clock may fast-forward to its
    // arrival when nothing executes earlier (see send_call). const-ref
    // senders get a stamped copy.
    reply_window_ = false;
    Message stamped = message;
    if (deliver_inline(destination_slot, stamped, mechanism, timing,
                       /*request_window=*/false)) {
      return;
    }
  }
  schedule_flight(destination_slot, message, mechanism, timing);
  if (fate.duplicate) {
    schedule_flight(destination_slot, message, mechanism, timing);
  }
}

void DelayedTransport::send_call(std::size_t destination_slot,
                                 Message& message, Mechanism mechanism) {
  DELTA_CHECK_MSG(destination_slot < endpoint_count_,
                  "unknown endpoint slot " << destination_slot);
  LinkTiming timing = plan_transfer(message, destination_slot);
  const FaultDecision fate = apply_link_faults(destination_slot, timing);
  if (!fate.deliver) return;  // the blocked caller only learns via timeout
  // The caller blocks until the reply, so jumping the clock to the
  // request's arrival is exactly what popping it off the queue would have
  // done — minus the queue round trip and the in-flight copy. The message
  // is stamped in place (the caller owns it).
  if (deliver_inline(destination_slot, message, mechanism, timing,
                     /*request_window=*/true)) {
    return;
  }
  schedule_flight(destination_slot, message, mechanism, timing);
  if (fate.duplicate) {
    schedule_flight(destination_slot, message, mechanism, timing);
  }
}

bool DelayedTransport::deliver_inline(std::size_t destination_slot,
                                      Message& message, Mechanism mechanism,
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
    deliver(destination_slot, message, mechanism);
    reply_window_ = false;
    inline_dispatch_ = outer_dispatch;
  } else {
    deliver(destination_slot, message, mechanism);
  }
  return true;
}

void DelayedTransport::schedule_flight(std::size_t destination_slot,
                                       const Message& message,
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
  flight.destination_slot = destination_slot;
  flight.mechanism = mechanism;
  ++in_flight_;
  events_->schedule(
      timing.deliver_at,
      [](void* self, std::uint64_t index) {
        static_cast<DelayedTransport*>(self)->deliver_pooled(
            static_cast<std::uint32_t>(index));
      },
      this, flight_index);
}

void DelayedTransport::deliver_pooled(std::uint32_t flight_index) {
  // Move the record out and free the slot BEFORE invoking the handler:
  // handlers send further messages, which may grow (and reallocate) the
  // pool mid-delivery.
  InFlight& flight = flight_pool_[flight_index];
  const Message delivered = std::move(flight.message);
  const std::size_t destination_slot = flight.destination_slot;
  const Mechanism mechanism = flight.mechanism;
  flight_free_.push_back(flight_index);
  --in_flight_;
  // A popped delivery is never the fast-path reply target: the window is
  // only open across an inline send_call dispatch.
  deliver(destination_slot, delivered, mechanism);
}

void DelayedTransport::deliver(std::size_t destination_slot,
                               const Message& message, Mechanism mechanism) {
  Endpoint& endpoint = endpoints_[destination_slot];
  if (aggregate_metering_) {
    meter_.record(mechanism, message.payload);
    meter_.record(Mechanism::kOverhead,
                  kMessageHeaderBytes + message.batch_bytes);
  }
  endpoint.meter.record(mechanism, message.payload);
  endpoint.meter.record(Mechanism::kOverhead,
                        kMessageHeaderBytes + message.batch_bytes);
  ++delivered_;
  if (observer_ != nullptr) {
    observer_(observer_ctx_, message, destination_slot);
  }
  endpoint.handler(message);
}

bool DelayedTransport::has_endpoint(const std::string& name) const {
  return index_.count(name) != 0;
}

const TrafficMeter& DelayedTransport::endpoint_meter(
    const std::string& name) const {
  return endpoints_[endpoint_slot(name)].meter;
}

const TrafficMeter& DelayedTransport::endpoint_meter(
    std::size_t slot) const {
  DELTA_CHECK_MSG(slot < endpoint_count_,
                  "no meter: unknown endpoint slot " << slot);
  return endpoints_[slot].meter;
}

std::vector<std::string> DelayedTransport::endpoint_names() const {
  std::vector<std::string> names;
  names.reserve(endpoints_.size());
  for (const Endpoint& e : endpoints_) names.push_back(e.name);
  return names;
}

void DelayedTransport::set_delivery_observer(DeliveryObserver observer,
                                             void* ctx) {
  observer_ = observer;
  observer_ctx_ = ctx;
}

const UplinkStats& DelayedTransport::uplink_stats(std::size_t slot) const {
  DELTA_CHECK_MSG(slot < endpoint_count_,
                  "no uplink stats: unknown endpoint slot " << slot);
  return uplink_[slot];
}

}  // namespace delta::net
