// Deterministic discrete-event scheduling: a simulated clock plus an event
// queue with stable ordering.
//
// The event-driven simulation engine (sim/event_engine) and the latency-
// aware transport (net::DelayedTransport) share one queue: the transport
// schedules message deliveries at their computed arrival times, the engine
// advances the clock to trace arrivals and pumps deliveries in between.
// Determinism is structural, not incidental: events execute in strict
// (time, schedule-sequence) order, so two events scheduled for the same
// instant always run in the order they were scheduled, independent of
// platform or run count.
//
// The queue is a binary min-heap over (time, seq) of 40-byte typed
// records — a function pointer, a context pointer and a 64-bit argument —
// so scheduling and dispatch never allocate (past the heap's growth) and
// never indirect through std::function. seq is unique, so (time, seq) is a
// total order and the execution order does not depend on the heap's
// internal layout. Deadline and retry timers ride on top as O(1)
// tombstone-cancel records (schedule_cancellable / cancel). Everything
// lives in this header so the engines' inner loops inline it, and
// pump_until takes its predicate as a template — the sync façade's
// closed-loop wait constructs no std::function.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "util/check.h"

namespace delta::util {

/// Simulated time, in seconds since the start of the run.
using SimTime = double;

/// The simulation clock. Time only moves forward; the queue advances it to
/// each executed event's timestamp (or explicitly via advance_to).
class SimClock {
 public:
  [[nodiscard]] SimTime now() const { return now_; }

  /// Moves the clock forward to `t` (checked failure on travel backwards).
  void advance_to(SimTime t) {
    DELTA_CHECK_MSG(t >= now_, "simulated time cannot move backwards ("
                                   << t << " < " << now_ << ")");
    now_ = t;
  }

 private:
  SimTime now_ = 0.0;
};

class EventQueue {
 public:
  /// A scheduled action: `fn(ctx, arg)`. Typed and trivially copyable so a
  /// pending event is a 40-byte POD record — no allocation, no type
  /// erasure. Callers with richer state park it behind `ctx` (see
  /// DelayedTransport's pooled in-flight records).
  using EventFn = void (*)(void* ctx, std::uint64_t arg);

  /// Handle of a cancellable timer (schedule_cancellable). A TimerId stays
  /// valid-to-cancel until the timer fires or is cancelled; afterwards the
  /// slot's generation has moved on and cancel() is a harmless no-op that
  /// returns false. Default-constructed ids are inert.
  struct TimerId {
    std::uint32_t slot = kNoTimerSlot;
    std::uint32_t generation = 0;
    [[nodiscard]] bool armed() const { return slot != kNoTimerSlot; }
  };

  /// Schedules `fn(ctx, arg)` at simulated time `time` (>= now, checked).
  /// Events scheduled for the same instant run in schedule order.
  void schedule(SimTime time, EventFn fn, void* ctx, std::uint64_t arg = 0) {
    DELTA_DCHECK(fn != nullptr);
    DELTA_CHECK_MSG(time >= clock_.now(),
                    "cannot schedule into the past (" << time << " < "
                                                      << clock_.now() << ")");
    heap_.push_back(Event{time, next_seq_++, fn, ctx, arg});
    std::push_heap(heap_.begin(), heap_.end(), Later{});
  }

  /// Cancellable variant of schedule() for deadline/retry timers: O(1) to
  /// cancel. The queued record is a 40-byte trampoline carrying (slot,
  /// generation); cancel() bumps the slot's generation and releases it,
  /// turning the still-queued record into a tombstone that pops as a no-op
  /// when its time comes — nothing is removed from the heap. Slots are
  /// recycled through a free list; a fired or cancelled timer's id can
  /// never alias a later timer (the generation check).
  TimerId schedule_cancellable(SimTime time, EventFn fn, void* ctx,
                               std::uint64_t arg = 0) {
    DELTA_DCHECK(fn != nullptr);
    std::uint32_t slot;
    if (timer_free_.empty()) {
      slot = static_cast<std::uint32_t>(timer_slots_.size());
      DELTA_CHECK_MSG(slot != kNoTimerSlot, "timer slot space exhausted");
      timer_slots_.push_back(TimerSlot{});
    } else {
      slot = timer_free_.back();
      timer_free_.pop_back();
    }
    TimerSlot& s = timer_slots_[slot];
    s.live = true;
    s.fn = fn;
    s.ctx = ctx;
    s.arg = arg;
    const std::uint64_t packed =
        (static_cast<std::uint64_t>(slot) << 32) | s.generation;
    schedule(time, &EventQueue::run_timer, this, packed);
    return TimerId{slot, s.generation};
  }

  /// Cancels a timer armed by schedule_cancellable. Returns true when the
  /// timer was still pending (it will now never fire); false when it had
  /// already fired, been cancelled, or `id` is inert. O(1): the queued
  /// record becomes a generation-checked tombstone.
  bool cancel(TimerId id) {
    if (id.slot == kNoTimerSlot ||
        static_cast<std::size_t>(id.slot) >= timer_slots_.size()) {
      return false;
    }
    TimerSlot& s = timer_slots_[id.slot];
    if (!s.live || s.generation != id.generation) return false;
    s.live = false;
    ++s.generation;
    timer_free_.push_back(id.slot);
    ++cancelled_timers_;
    return true;
  }

  /// Timers cancelled whose tombstone records may still sit in the queue
  /// (pending() includes them; they pop as no-ops).
  [[nodiscard]] std::int64_t cancelled_timers() const {
    return cancelled_timers_;
  }

  [[nodiscard]] SimTime now() const { return clock_.now(); }
  [[nodiscard]] bool empty() const { return heap_.empty(); }
  [[nodiscard]] std::size_t pending() const { return heap_.size(); }
  [[nodiscard]] std::int64_t executed() const { return executed_; }

  /// Timestamp of the earliest pending event, tombstones included (+inf
  /// when empty). Never executes anything.
  [[nodiscard]] SimTime next_time() const {
    return heap_.empty() ? std::numeric_limits<SimTime>::infinity()
                         : heap_.front().time;
  }

  /// Pops and runs the earliest event, advancing the clock to its time.
  /// Returns false (and leaves the clock alone) when the queue is empty.
  bool run_one() {
    return run_one_if_due(std::numeric_limits<SimTime>::infinity());
  }

  /// Pops and runs the earliest event if it is due at or before `limit`;
  /// returns false (and leaves the clock alone) when the queue is empty or
  /// the earliest event is later.
  bool run_one_if_due(SimTime limit) {
    if (heap_.empty() || heap_.front().time > limit) return false;
    // Popped before executing: the action may schedule further events.
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    const Event event = heap_.back();
    heap_.pop_back();
    clock_.advance_to(event.time);
    ++executed_;
    event.fn(event.ctx, event.arg);
    return true;
  }

  /// Runs every event due at or before the current clock time.
  void run_ready() {
    while (run_one_if_due(clock_.now())) {
    }
  }

  /// Runs every event due at or before `t`, then leaves the clock at
  /// max(now, t) — the "advance to the next trace arrival" primitive.
  void advance_until(SimTime t) {
    while (run_one_if_due(t)) {
    }
    if (t > clock_.now()) clock_.advance_to(t);
  }

  /// Moves the clock to `t` WITHOUT executing anything. Only callers that
  /// have just established `next_time() > t` may use this (the transport's
  /// inline fast path); skipping an event that was due is a contract
  /// violation, checked in debug builds.
  void fast_forward(SimTime t) {
    DELTA_DCHECK(next_time() > t);
    clock_.advance_to(t);
  }

  /// Drains the queue completely (e.g. in-flight deliveries at end of run).
  void run_until_idle() {
    while (run_one()) {
    }
  }

  /// Runs events until `done()` holds — how a synchronous façade awaits its
  /// reply. The predicate is a template parameter (callable or function
  /// pointer), so the per-call wait constructs no std::function. Checked
  /// failure if the queue drains first: the reply the caller is waiting
  /// for can no longer arrive.
  template <typename Done>
  void pump_until(Done&& done) {
    while (!done()) {
      DELTA_CHECK_MSG(run_one(),
                      "event queue drained while awaiting a completion — "
                      "the awaited reply can no longer arrive");
    }
  }

 private:
  static constexpr std::uint32_t kNoTimerSlot =
      std::numeric_limits<std::uint32_t>::max();

  struct Event {
    SimTime time = 0.0;
    std::uint64_t seq = 0;  // tie-break: schedule order
    EventFn fn = nullptr;
    void* ctx = nullptr;
    std::uint64_t arg = 0;
  };

  /// Backing state of one cancellable timer. The queued Event only carries
  /// (slot, generation); the callback lives here so cancel() can retire it
  /// without finding the record in the heap.
  struct TimerSlot {
    std::uint32_t generation = 0;
    bool live = false;
    EventFn fn = nullptr;
    void* ctx = nullptr;
    std::uint64_t arg = 0;
  };

  /// Trampoline for cancellable timers: validates (slot, generation)
  /// against the slot's current state — a mismatch is a tombstone from a
  /// cancelled (or already recycled) timer and pops as a no-op. The slot is
  /// released BEFORE the callback runs: the callback may arm new timers
  /// (growing timer_slots_), so everything it needs is copied out first.
  static void run_timer(void* self, std::uint64_t packed) {
    auto* queue = static_cast<EventQueue*>(self);
    const auto slot = static_cast<std::uint32_t>(packed >> 32);
    TimerSlot& s = queue->timer_slots_[slot];
    if (!s.live || s.generation != static_cast<std::uint32_t>(packed)) {
      return;  // cancelled: tombstone
    }
    const EventFn fn = s.fn;
    void* ctx = s.ctx;
    const std::uint64_t arg = s.arg;
    s.live = false;
    ++s.generation;
    queue->timer_free_.push_back(slot);
    fn(ctx, arg);
  }

  /// The (time, seq) total order events execute in, as the heap's "less":
  /// `a` is later than `b`. The std heap keeps its greatest element in
  /// front, which under this order is the earliest event.
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  std::vector<Event> heap_;  // binary min-heap by (time, seq)
  std::vector<TimerSlot> timer_slots_;     // cancellable-timer state
  std::vector<std::uint32_t> timer_free_;  // recycled timer slots
  std::int64_t cancelled_timers_ = 0;
  SimClock clock_;
  std::uint64_t next_seq_ = 0;
  std::int64_t executed_ = 0;
};

}  // namespace delta::util
