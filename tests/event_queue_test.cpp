// EventQueue/SimClock: the determinism contract the whole event-driven
// stack rests on — strict (time, schedule-sequence) execution order,
// forward-only clock, and well-defined advance/pump primitives. The
// randomized check of the execution order against a sorted reference model
// lives in event_queue_differential_test.cpp.
#include "util/event_queue.h"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <vector>

namespace delta::util {
namespace {

/// Typed-record test fixture state: the queue's EventFn is a function
/// pointer, so recorded values travel through the 64-bit argument and the
/// recorder travels through the context pointer.
struct Recorder {
  std::vector<int> ran;
  EventQueue* queue = nullptr;  // for events that schedule further events

  static void record(void* ctx, std::uint64_t arg) {
    static_cast<Recorder*>(ctx)->ran.push_back(static_cast<int>(arg));
  }
  static void nothing(void*, std::uint64_t) {}
};

TEST(SimClockTest, AdvancesForwardOnly) {
  SimClock clock;
  EXPECT_EQ(clock.now(), 0.0);
  clock.advance_to(1.5);
  EXPECT_EQ(clock.now(), 1.5);
  clock.advance_to(1.5);  // standing still is allowed
  EXPECT_THROW(clock.advance_to(1.0), std::logic_error);
}

TEST(EventQueueTest, RunsInTimeOrder) {
  EventQueue q;
  Recorder rec;
  q.schedule(3.0, Recorder::record, &rec, 3);
  q.schedule(1.0, Recorder::record, &rec, 1);
  q.schedule(2.0, Recorder::record, &rec, 2);
  q.run_until_idle();
  EXPECT_EQ(rec.ran, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.now(), 3.0);
  EXPECT_EQ(q.executed(), 3);
}

// The determinism keystone: events scheduled for the same instant run in
// schedule order, regardless of how the heap stores them.
TEST(EventQueueTest, EqualTimestampsRunInScheduleOrder) {
  EventQueue q;
  Recorder rec;
  constexpr int kEvents = 200;
  for (int i = 0; i < kEvents; ++i) {
    q.schedule(1.0, Recorder::record, &rec,
               static_cast<std::uint64_t>(i));
  }
  q.run_until_idle();
  ASSERT_EQ(rec.ran.size(), static_cast<std::size_t>(kEvents));
  for (int i = 0; i < kEvents; ++i) {
    EXPECT_EQ(rec.ran[static_cast<size_t>(i)], i);
  }
}

// An action scheduling at the *current* instant queues behind every event
// already scheduled for that instant (its sequence number is larger).
TEST(EventQueueTest, ActionsScheduledDuringRunKeepStableOrder) {
  EventQueue q;
  Recorder rec;
  rec.queue = &q;
  q.schedule(1.0,
             [](void* ctx, std::uint64_t) {
               auto* r = static_cast<Recorder*>(ctx);
               r->ran.push_back(0);
               r->queue->schedule(1.0, Recorder::record, r, 2);
             },
             &rec);
  q.schedule(1.0, Recorder::record, &rec, 1);
  q.run_until_idle();
  EXPECT_EQ(rec.ran, (std::vector<int>{0, 1, 2}));
}

TEST(EventQueueTest, AdvanceUntilRunsDueEventsAndMovesClock) {
  EventQueue q;
  Recorder rec;
  q.schedule(1.0, Recorder::record, &rec, 1);
  q.schedule(2.0, Recorder::record, &rec, 2);
  q.schedule(3.0, Recorder::record, &rec, 3);
  q.advance_until(2.0);  // inclusive boundary
  EXPECT_EQ(rec.ran, (std::vector<int>{1, 2}));
  EXPECT_EQ(q.now(), 2.0);
  EXPECT_EQ(q.pending(), 1u);
  // Advancing into empty time still moves the clock.
  q.advance_until(2.5);
  EXPECT_EQ(q.now(), 2.5);
  EXPECT_EQ(q.pending(), 1u);
}

// After advance_until has looked at (and declined) the earliest pending
// event, a newly scheduled earlier event must still run first.
TEST(EventQueueTest, EarlierEventAfterPeekStillRunsFirst) {
  EventQueue q;
  Recorder rec;
  q.schedule(50.0, Recorder::record, &rec, 50);
  q.advance_until(10.0);  // sees the t=50 event, then moves the clock
  EXPECT_EQ(q.now(), 10.0);
  q.schedule(20.0, Recorder::record, &rec, 20);
  q.run_until_idle();
  EXPECT_EQ(rec.ran, (std::vector<int>{20, 50}));
}

// next_time() is what DelayedTransport's inline fast path checks before it
// fast-forwards the clock: +inf when empty, the earliest pending time
// whatever the schedule order, and a cancelled timer's time until its
// tombstone pops.
TEST(EventQueueTest, NextTimeReportsEarliestPendingEvent) {
  EventQueue q;
  Recorder rec;
  EXPECT_EQ(q.next_time(), std::numeric_limits<SimTime>::infinity());
  q.schedule(5.0, Recorder::record, &rec, 5);
  q.schedule(2.0, Recorder::record, &rec, 2);
  q.schedule(7.0, Recorder::record, &rec, 7);
  EXPECT_EQ(q.next_time(), 2.0);
  const EventQueue::TimerId timer =
      q.schedule_cancellable(1.0, Recorder::record, &rec, 1);
  EXPECT_EQ(q.next_time(), 1.0);
  ASSERT_TRUE(q.cancel(timer));
  EXPECT_EQ(q.next_time(), 1.0);  // the tombstone is still queued
  ASSERT_TRUE(q.run_one());       // pops the tombstone as a no-op
  EXPECT_TRUE(rec.ran.empty());
  EXPECT_EQ(q.now(), 1.0);
  EXPECT_EQ(q.next_time(), 2.0);
  q.run_until_idle();
  EXPECT_EQ(rec.ran, (std::vector<int>{2, 5, 7}));
  EXPECT_EQ(q.next_time(), std::numeric_limits<SimTime>::infinity());
}

TEST(EventQueueTest, RunReadyOnlyRunsEventsDueNow) {
  EventQueue q;
  Recorder rec;
  q.schedule(0.0, Recorder::record, &rec, 0);
  q.schedule(1.0, Recorder::record, &rec, 1);
  q.run_ready();  // clock is 0: only the first is due
  EXPECT_EQ(rec.ran, (std::vector<int>{0}));
  EXPECT_EQ(q.now(), 0.0);
}

TEST(EventQueueTest, SchedulingIntoThePastIsACheckedFailure) {
  EventQueue q;
  Recorder rec;
  q.schedule(2.0, Recorder::nothing, &rec);
  q.run_until_idle();
  EXPECT_EQ(q.now(), 2.0);
  EXPECT_THROW(q.schedule(1.0, Recorder::nothing, &rec), std::logic_error);
}

TEST(EventQueueTest, PumpUntilStopsAtCondition) {
  EventQueue q;
  int count = 0;
  const auto bump = [](void* ctx, std::uint64_t) {
    ++*static_cast<int*>(ctx);
  };
  for (int i = 0; i < 5; ++i) q.schedule(1.0 * i, bump, &count);
  q.pump_until([&] { return count == 3; });
  EXPECT_EQ(count, 3);
  EXPECT_EQ(q.pending(), 2u);
}

// Waiting for a completion that can no longer arrive (queue drained) is a
// protocol bug, not a hang — it must fail loudly.
TEST(EventQueueTest, PumpUntilOnDrainedQueueIsACheckedFailure) {
  EventQueue q;
  int unused = 0;
  q.schedule(1.0, Recorder::nothing, &unused);
  EXPECT_THROW(q.pump_until([] { return false; }), std::logic_error);
}

// A deep queue filled far from monotone drains without losing events or
// order (pending() and executed() stay consistent).
TEST(EventQueueTest, DeepQueueGrowsAndDrainsConsistently) {
  EventQueue q;
  Recorder rec;
  constexpr int kEvents = 5000;
  for (int i = 0; i < kEvents; ++i) {
    // Interleaved times so insertion is far from monotone.
    const double t = static_cast<double>((i * 7919) % kEvents);
    q.schedule(t, Recorder::record, &rec, static_cast<std::uint64_t>(t));
  }
  EXPECT_EQ(q.pending(), static_cast<std::size_t>(kEvents));
  q.run_until_idle();
  EXPECT_EQ(q.executed(), kEvents);
  ASSERT_EQ(rec.ran.size(), static_cast<std::size_t>(kEvents));
  for (int i = 1; i < kEvents; ++i) {
    EXPECT_LE(rec.ran[static_cast<std::size_t>(i) - 1],
              rec.ran[static_cast<std::size_t>(i)]);
  }
}

}  // namespace
}  // namespace delta::util
