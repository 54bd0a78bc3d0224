// EventQueue vs a sorted reference model: the queue must execute any
// schedule in exact (time, schedule-order) order. The model is a std::set
// keyed by (time, token), with tokens issued in schedule order, so its
// first entry is always the event the queue has to run next. Inputs cover
// randomized interleavings of schedule/run with same-instant ties and
// far-future outliers, events scheduled from inside running events, a churn
// that ramps into the thousands and jumps 1e7 s ahead, a deep steady hold
// at >= 4k pending with decaying increments, and timer cancellation — where
// every cancel() verdict and the tombstone count are checked against the
// model too.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <utility>
#include <vector>

#include "util/event_queue.h"
#include "util/rng.h"

namespace delta::util {
namespace {

/// (time, token): the model's key, and the record of one executed event.
using Key = std::pair<SimTime, std::uint64_t>;

/// Drives an EventQueue and the reference model through the same schedule.
/// Each executed event logs (now, token) next to the model's earliest
/// entry, which it then retires; an optional cascade makes running events
/// schedule further events, including at the current instant.
class ModelCheck {
 public:
  void schedule(SimTime time) {
    queue_.schedule(time, &ModelCheck::run, this, next_token_);
    model_.emplace(time, next_token_);
    ++next_token_;
  }

  /// Runs the queue's next event; returns false when the queue is idle,
  /// which must be exactly when the model is empty.
  bool run_one() {
    const bool expect_ran = !model_.empty();
    const bool ran = queue_.run_one();
    EXPECT_EQ(ran, expect_ran);
    return ran;
  }

  /// From now on each executed event, while `budget` lasts, schedules one
  /// more event with probability 0.5 (a third of them at the current
  /// instant, behind everything already queued for it).
  void cascade(Rng* rng, int budget) {
    cascade_rng_ = rng;
    cascade_budget_ = budget;
  }

  void expect_matches_model() {
    ASSERT_EQ(ran_.size(), expected_.size());
    for (std::size_t i = 0; i < ran_.size(); ++i) {
      ASSERT_EQ(ran_[i], expected_[i]) << "divergence at pop " << i;
    }
    EXPECT_EQ(queue_.pending(), model_.size());
    EXPECT_EQ(queue_.executed(), static_cast<std::int64_t>(ran_.size()));
  }

  [[nodiscard]] SimTime now() const { return queue_.now(); }
  [[nodiscard]] std::size_t pending() const { return queue_.pending(); }
  [[nodiscard]] std::size_t executed() const { return ran_.size(); }

 private:
  static void run(void* ctx, std::uint64_t token) {
    auto* self = static_cast<ModelCheck*>(ctx);
    self->ran_.emplace_back(self->queue_.now(), token);
    if (self->model_.empty()) {
      ADD_FAILURE() << "queue ran token " << token << " the model lacks";
      return;
    }
    self->expected_.push_back(*self->model_.begin());
    self->model_.erase(self->model_.begin());
    Rng* rng = self->cascade_rng_;
    if (rng != nullptr && self->cascade_budget_ > 0 && rng->bernoulli(0.5)) {
      --self->cascade_budget_;
      const double offset = rng->bernoulli(0.3) ? 0.0 : rng->uniform(0.0, 2.0);
      self->schedule(self->queue_.now() + offset);
    }
  }

  EventQueue queue_;
  std::set<Key> model_;
  std::vector<Key> ran_;
  std::vector<Key> expected_;
  std::uint64_t next_token_ = 0;
  Rng* cascade_rng_ = nullptr;
  int cascade_budget_ = 0;
};

// Random interleavings of scheduling and popping, with times drawn from a
// mixture that includes exact ties (same-instant events) and occasional
// far-future outliers.
TEST(EventQueueDifferentialTest, RandomizedSchedulesMatchModel) {
  for (const std::uint64_t seed : {7u, 11u, 303u, 9001u}) {
    ModelCheck queues;
    Rng rng{seed};
    std::vector<SimTime> recent;  // pool of reusable instants for ties
    for (int step = 0; step < 6000; ++step) {
      const bool want_pop =
          queues.pending() > 0 && (rng.bernoulli(0.45) ||
                                   queues.pending() > 400);
      if (want_pop) {
        queues.run_one();
        continue;
      }
      SimTime t;
      if (!recent.empty() && rng.bernoulli(0.25)) {
        // Same-instant tie with an event that may still be pending.
        t = recent[static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(recent.size()) - 1))];
        if (t < queues.now()) t = queues.now();
      } else if (rng.bernoulli(0.05)) {
        t = queues.now() + rng.uniform(1e3, 1e6);  // far-future outlier
      } else {
        t = queues.now() + rng.uniform(0.0, 10.0);
      }
      queues.schedule(t);
      recent.push_back(t);
      if (recent.size() > 32) recent.erase(recent.begin());
    }
    while (queues.run_one()) {
    }
    queues.expect_matches_model();
  }
}

// Schedule-during-execute: events scheduled from inside a running event —
// including at the *current* instant — take fresh sequence numbers and
// execute after everything already queued for that instant. Injections
// between pops at the next instant add same-instant races from outside.
TEST(EventQueueDifferentialTest, ScheduleDuringExecuteMatchesModel) {
  ModelCheck queues;
  Rng rng{42};
  Rng cascade_rng{43};
  queues.cascade(&cascade_rng, 2000);
  int injections = 2000;
  for (int i = 0; i < 64; ++i) {
    queues.schedule(rng.uniform(0.0, 4.0));
  }
  while (queues.pending() > 0) {
    if (injections > 0 && rng.bernoulli(0.6)) {
      --injections;
      const double offset = rng.bernoulli(0.3) ? 0.0 : rng.uniform(0.0, 2.0);
      queues.schedule(queues.now() + offset);
    }
    queues.run_one();
  }
  queues.expect_matches_model();
  EXPECT_GT(queues.executed(), 3000u);
}

// Fuzz-style churn: depth ramps up into the thousands, drains to
// near-empty, and jumps 1e7 s ahead across a long empty stretch, with
// heavy same-instant bursts throughout.
TEST(EventQueueDifferentialTest, ChurnFuzzAcrossDepthsAndLongJumps) {
  ModelCheck queues;
  Rng rng{2024};
  for (int cycle = 0; cycle < 3; ++cycle) {
    // Ramp up: bursty near-monotone inserts (the link-serialization shape).
    SimTime horizon = queues.now();
    for (int i = 0; i < 3000; ++i) {
      if (rng.bernoulli(0.2)) horizon += rng.exponential(0.5);
      const int burst = static_cast<int>(rng.uniform_int(1, 4));
      for (int b = 0; b < burst; ++b) {
        queues.schedule(horizon);  // same-instant burst
      }
      if (rng.bernoulli(0.3)) queues.run_one();
    }
    // Drain almost dry.
    while (queues.pending() > 5) queues.run_one();
    // Jump far ahead of everything still pending.
    queues.schedule(queues.now() + 1e7 + rng.uniform(0.0, 1e3));
    while (queues.run_one()) {
    }
  }
  queues.expect_matches_model();
  EXPECT_GT(queues.executed(), 9000u);
}

// Deep steady hold with decaying increments: the backlog is built past 4k
// pending, then held there — every pop schedules one replacement — while
// the inter-event gap decays by four orders of magnitude, so the occupied
// span narrows under the head of the queue. Same-instant injections
// exercise schedule-during-execute ties at depth.
TEST(EventQueueDifferentialTest, DeepSteadyHoldWithDecayingIncrements) {
  ModelCheck queues;
  Rng rng{777};
  SimTime horizon = 0.0;
  for (int i = 0; i < 4500; ++i) {
    horizon += rng.exponential(1.0);
    queues.schedule(horizon);
  }
  ASSERT_GE(queues.pending(), 4500u);

  double mean = 1.0;
  std::size_t min_depth = queues.pending();
  for (int step = 0; step < 30000; ++step) {
    queues.run_one();
    // Decay the increment scale ~1.0 -> 1e-4 across the hold.
    mean = mean > 1e-4 ? mean * 0.9997 : 1e-4;
    if (rng.bernoulli(0.02)) {
      queues.schedule(queues.now());  // same-instant tie at depth
    }
    horizon += rng.exponential(mean);
    queues.schedule(horizon < queues.now() ? queues.now() : horizon);
    min_depth = queues.pending() < min_depth ? queues.pending() : min_depth;
  }
  EXPECT_GE(min_depth, 4000u);  // the hold really stayed deep
  while (queues.run_one()) {
  }
  queues.expect_matches_model();
}

void note(void* ctx, std::uint64_t token) {
  static_cast<std::vector<std::uint64_t>*>(ctx)->push_back(token);
}

// O(1) timer cancellation: a cancelled timer's queued record becomes a
// tombstone that pops as a no-op, slots recycle through a free list, and
// generations make stale ids inert.
TEST(EventQueueDifferentialTest, CancelIsExactAcrossSlotRecycling) {
  EventQueue q;
  std::vector<std::uint64_t> fired;
  const EventQueue::TimerId a = q.schedule_cancellable(1.0, &note, &fired, 1);
  EXPECT_TRUE(q.cancel(a));
  EXPECT_FALSE(q.cancel(a));  // second cancel: harmless no-op
  // The freed slot is recycled immediately; the stale id must not be able
  // to hit the new occupant (generation check).
  const EventQueue::TimerId b = q.schedule_cancellable(2.0, &note, &fired, 2);
  EXPECT_EQ(a.slot, b.slot);
  EXPECT_NE(a.generation, b.generation);
  EXPECT_FALSE(q.cancel(a));
  q.run_until_idle();
  ASSERT_EQ(fired, (std::vector<std::uint64_t>{2}));
  EXPECT_EQ(q.cancelled_timers(), 1);
  EXPECT_FALSE(q.cancel(b));  // already fired: no-op
  EXPECT_FALSE(q.cancel(EventQueue::TimerId{}));  // inert default id
}

// Randomized arm/cancel/fire churn against the model. The model holds
// every queued record, tombstones included, so it predicts each pop: a
// live record must fire its token, a cancelled one must pop silently.
// Each cancel() verdict must be "still queued and not yet cancelled", and
// cancelled_timers() must count exactly the model's tombstones.
TEST(EventQueueDifferentialTest, CancellationChurnMatchesModel) {
  EventQueue q;
  std::set<Key> queued;                   // every record still in the queue
  std::set<std::uint64_t> cancelled;      // tokens of cancelled timers
  std::vector<Key> timers;                // every timer ever armed
  std::vector<EventQueue::TimerId> ids;   // ... and its handle
  std::vector<std::uint64_t> fired;
  Rng rng{555};
  std::uint64_t token = 0;

  const auto run_and_check = [&] {
    const bool expect_ran = !queued.empty();
    const std::size_t fired_before = fired.size();
    ASSERT_EQ(q.run_one(), expect_ran);
    if (!expect_ran) return;
    const Key next = *queued.begin();
    queued.erase(queued.begin());
    ASSERT_EQ(q.now(), next.first);
    if (cancelled.count(next.second) != 0) {
      ASSERT_EQ(fired.size(), fired_before) << "cancelled timer fired";
    } else {
      ASSERT_EQ(fired.size(), fired_before + 1);
      ASSERT_EQ(fired.back(), next.second);
    }
  };

  for (int step = 0; step < 6000; ++step) {
    if (!timers.empty() && rng.bernoulli(0.25)) {
      // Cancel a random armed-at-some-point timer; it may already have
      // fired or been cancelled, and then the queue must refuse.
      const auto idx = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(timers.size()) - 1));
      const Key& timer = timers[idx];
      const bool expect = queued.count(timer) != 0 &&
                          cancelled.count(timer.second) == 0;
      ASSERT_EQ(q.cancel(ids[idx]), expect) << "token " << timer.second;
      if (expect) cancelled.insert(timer.second);
    } else if (rng.bernoulli(0.55)) {
      const SimTime t = q.now() + rng.uniform(0.0, 5.0);
      ids.push_back(q.schedule_cancellable(t, &note, &fired, token));
      timers.emplace_back(t, token);
      queued.emplace(t, token);
      ++token;
    } else {
      // Plain events interleave with timers in the same (time, seq) order.
      const SimTime t = q.now() + rng.uniform(0.0, 5.0);
      q.schedule(t, &note, &fired, token);
      queued.emplace(t, token);
      ++token;
    }
    ASSERT_EQ(q.cancelled_timers(),
              static_cast<std::int64_t>(cancelled.size()));
    ASSERT_EQ(q.pending(), queued.size());
    if (rng.bernoulli(0.4)) run_and_check();
    if (HasFatalFailure()) return;
  }
  while (!queued.empty() && !HasFatalFailure()) run_and_check();
  run_and_check();  // idle: run_one() must report false
  EXPECT_EQ(q.executed(), static_cast<std::int64_t>(token));
  EXPECT_EQ(fired.size(), token - cancelled.size());
  EXPECT_GT(cancelled.size(), 100u);
}

}  // namespace
}  // namespace delta::util
