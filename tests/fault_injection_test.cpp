// Deterministic fault injection on DelayedTransport: drop / duplicate /
// reorder draws from per-direction splitmix streams, scheduled partition
// windows, crash schedules resolved to the end they name, the zero-fault
// byte-identity contract, and the stream-independence properties (traffic
// the other way, bind order and plan-install order never perturb a
// direction's fates) — plus the merge rules of the ChaosYardsticks counter
// record the transport's fates are counted in.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "net/delayed_transport.h"
#include "net/fault_plan.h"
#include "result_identity.h"
#include "util/event_queue.h"

namespace delta::net {
namespace {

struct Delivery {
  std::string endpoint;
  std::int64_t subject = -1;
  double at = 0.0;
};

/// Queue + transport + recording ends. The tests name ends, as fault plans
/// do: by default "a" is the server end and "b" the cache end.
struct Harness {
  util::EventQueue events;
  DelayedTransport transport;
  std::vector<Delivery> deliveries;
  std::map<std::string, End> ends;

  explicit Harness(LinkModel link = LinkModel{1e6, 0.020})
      : transport(&events, link) {}

  void bind(End end, const std::string& name) {
    transport.bind(end, name, [this, name](const Message& m) {
      deliveries.push_back(Delivery{name, m.subject_id, events.now()});
    });
    ends[name] = end;
  }
  void bind_both() {
    bind(End::kServer, "a");
    bind(End::kCache, "b");
  }

  [[nodiscard]] End end(const std::string& name) const {
    return ends.at(name);
  }

  /// Sends to the end named `to`, from the other end.
  void send(const std::string& to, std::int64_t subject,
            Bytes payload = Bytes{99'936}) {
    Message m;
    m.kind = MessageKind::kControl;
    m.payload = payload;
    m.subject_id = subject;
    transport.send(end(to), m, Mechanism::kQueryShip);
  }

  /// Subjects delivered to the end named `name`, in delivery order.
  [[nodiscard]] std::vector<std::int64_t> delivered_to(
      const std::string& name) const {
    std::vector<std::int64_t> subjects;
    for (const Delivery& d : deliveries) {
      if (d.endpoint == name) subjects.push_back(d.subject);
    }
    return subjects;
  }
};

FaultPlan plan_with(LinkFaults faults) {
  FaultPlan plan;
  plan.enabled = true;
  plan.default_faults = faults;
  return plan;
}

TEST(FaultInjectionTest, CertainDropKillsEveryDeliveryButPaysSerialization) {
  Harness h;
  h.bind_both();
  LinkFaults faults;
  faults.drop = 1.0;
  h.transport.set_fault_plan(plan_with(faults));
  EXPECT_TRUE(h.transport.faults_active());
  for (int i = 0; i < 8; ++i) h.send("b", i);
  h.events.run_until_idle();
  EXPECT_TRUE(h.deliveries.empty());
  EXPECT_EQ(h.transport.counters().faults_dropped, 8);
  // The wire ate the messages AFTER serialization: the egress link was
  // busy (the sender cannot know), but nothing was metered at delivery.
  const UplinkStats& uplink = h.transport.uplink_stats(h.end("a"));
  EXPECT_EQ(uplink.sends, 8);
  EXPECT_GT(uplink.busy_seconds, 0.0);
  EXPECT_EQ(h.transport.endpoint_meter(h.end("b")).figure_total(), Bytes{0});
}

TEST(FaultInjectionTest, CertainDuplicateDeliversTwiceOriginalFirst) {
  Harness h;
  h.bind_both();
  LinkFaults faults;
  faults.duplicate = 1.0;
  h.transport.set_fault_plan(plan_with(faults));
  h.send("b", 7);
  h.events.run_until_idle();
  ASSERT_EQ(h.deliveries.size(), 2u);
  EXPECT_EQ(h.deliveries[0].subject, 7);
  EXPECT_EQ(h.deliveries[1].subject, 7);
  // The copy shares the original's timing (a retransmit artifact, not a
  // second serialization) and lands right after it by event order.
  EXPECT_EQ(h.deliveries[0].at, h.deliveries[1].at);
  EXPECT_EQ(h.transport.counters().faults_duplicated, 1);
  // Duplicated flights are not themselves re-drawn: exactly one copy.
  const UplinkStats& uplink = h.transport.uplink_stats(h.end("a"));
  EXPECT_EQ(uplink.sends, 1);
}

TEST(FaultInjectionTest, CertainReorderDefersDeliveryWithinBound) {
  Harness clean;
  clean.bind_both();
  clean.send("b", 0);
  clean.events.run_until_idle();
  ASSERT_EQ(clean.deliveries.size(), 1u);
  const double undisturbed = clean.deliveries[0].at;

  Harness h;
  h.bind_both();
  LinkFaults faults;
  faults.reorder = 1.0;
  faults.reorder_max_delay_seconds = 0.5;
  h.transport.set_fault_plan(plan_with(faults));
  h.send("b", 0);
  h.events.run_until_idle();
  ASSERT_EQ(h.deliveries.size(), 1u);
  EXPECT_GE(h.deliveries[0].at, undisturbed);
  EXPECT_LE(h.deliveries[0].at, undisturbed + 0.5);
  EXPECT_EQ(h.transport.counters().faults_reordered, 1);
}

TEST(FaultInjectionTest, PartitionWindowDropsExactlyItsSpan) {
  Harness h;
  h.bind_both();
  FaultPlan plan;
  plan.enabled = true;
  plan.partitions.push_back(
      LinkPartition{"a", "b", /*duplex=*/true, {FaultWindow{10.0, 20.0}}});
  h.transport.set_fault_plan(plan);
  EXPECT_TRUE(h.transport.faults_active());

  h.send("b", 0);  // before the window: delivered
  h.events.run_until_idle();
  h.events.advance_until(10.0);
  h.send("b", 1);  // inside [down, heal): dropped
  h.events.run_until_idle();
  h.events.advance_until(19.999);
  h.send("b", 2);  // still inside (half-open): dropped
  h.events.run_until_idle();
  h.events.advance_until(20.0);
  h.send("b", 3);  // healed: delivered
  h.events.run_until_idle();

  ASSERT_EQ(h.deliveries.size(), 2u);
  EXPECT_EQ(h.deliveries[0].subject, 0);
  EXPECT_EQ(h.deliveries[1].subject, 3);
  EXPECT_EQ(h.transport.counters().partition_dropped, 2);
  EXPECT_EQ(h.transport.counters().faults_dropped, 0);
}

// A duplex partition kills both directions; a directed one only its own.
TEST(FaultInjectionTest, PartitionsApplyPerDirection) {
  for (const bool duplex : {true, false}) {
    Harness h;
    h.bind_both();
    FaultPlan plan;
    plan.enabled = true;
    plan.partitions.push_back(
        LinkPartition{"a", "b", duplex, {FaultWindow{0.0, 1.0}}});
    h.transport.set_fault_plan(plan);
    h.send("b", 0);
    h.send("a", 1);
    h.events.run_until_idle();
    SCOPED_TRACE(duplex ? "duplex" : "directed");
    EXPECT_TRUE(h.delivered_to("b").empty());
    EXPECT_EQ(h.delivered_to("a").size(), duplex ? 0u : 1u);
    EXPECT_EQ(h.transport.counters().partition_dropped, duplex ? 2 : 1);
  }
}

// The zero-fault contract: an enabled plan with no nonzero probability and
// no partition window leaves the transport byte-identical to one that
// never saw a plan — including the inline fast path (faults_active stays
// false, so delivery schedules are unchanged).
TEST(FaultInjectionTest, ZeroProbabilityPlanIsIdenticalToNoPlan) {
  Harness bare;
  Harness planned;
  for (Harness* h : {&bare, &planned}) h->bind_both();
  planned.transport.set_fault_plan(plan_with(LinkFaults{}));
  EXPECT_FALSE(planned.transport.faults_active());
  for (int i = 0; i < 16; ++i) {
    bare.send("b", i);
    planned.send("b", i);
    bare.send("a", 100 + i);
    planned.send("a", 100 + i);
    if (i % 3 == 0) {
      bare.events.run_until_idle();
      planned.events.run_until_idle();
    }
  }
  bare.events.run_until_idle();
  planned.events.run_until_idle();
  ASSERT_EQ(bare.deliveries.size(), planned.deliveries.size());
  for (std::size_t i = 0; i < bare.deliveries.size(); ++i) {
    EXPECT_EQ(bare.deliveries[i].endpoint, planned.deliveries[i].endpoint);
    EXPECT_EQ(bare.deliveries[i].subject, planned.deliveries[i].subject);
    EXPECT_EQ(bare.deliveries[i].at, planned.deliveries[i].at);  // bitwise
  }
  EXPECT_EQ(planned.transport.counters().faults_dropped, 0);
}

// A direction's fate stream is keyed by (seed, sender name, destination
// name, per-direction seq): traffic the other way must not perturb it.
TEST(FaultInjectionTest, DirectionStreamsAreIndependent) {
  LinkFaults faults;
  faults.drop = 0.5;
  Harness quiet;
  Harness noisy;
  for (Harness* h : {&quiet, &noisy}) {
    h->bind_both();
    h->transport.set_fault_plan(plan_with(faults));
  }
  for (int i = 0; i < 64; ++i) {
    quiet.send("b", i);
    noisy.send("b", i);
    noisy.send("a", 1000 + i);  // extra traffic the other way
  }
  quiet.events.run_until_idle();
  noisy.events.run_until_idle();
  const std::vector<std::int64_t> quiet_b = quiet.delivered_to("b");
  ASSERT_EQ(quiet_b, noisy.delivered_to("b"));  // same survivors, same order
  EXPECT_GT(quiet_b.size(), 0u);
  EXPECT_LT(quiet_b.size(), 64u);  // the drop really did something
  // The two directions draw from different streams.
  std::vector<std::int64_t> noisy_a = noisy.delivered_to("a");
  for (std::int64_t& subject : noisy_a) subject -= 1000;
  EXPECT_NE(noisy_a, quiet_b);
}

// Fates are keyed by end names, not by which end holds which name, which
// end binds first, or whether the plan is installed before, between or
// after the binds.
TEST(FaultInjectionTest, RegistrationOrderDoesNotPerturbLinkStreams) {
  LinkFaults faults;
  faults.drop = 0.5;
  std::vector<std::int64_t> first_b;
  std::vector<std::int64_t> first_a;
  for (const bool a_is_server : {true, false}) {
    for (const bool a_binds_first : {true, false}) {
      for (const int plan_after_binds : {0, 1, 2}) {
        Harness h;
        const End a_end = a_is_server ? End::kServer : End::kCache;
        std::vector<std::pair<End, std::string>> binds = {
            {a_end, "a"}, {other_end(a_end), "b"}};
        if (!a_binds_first) std::swap(binds[0], binds[1]);
        for (int bound = 0; bound <= 2; ++bound) {
          if (bound == plan_after_binds) {
            h.transport.set_fault_plan(plan_with(faults));
          }
          if (bound < 2) h.bind(binds[bound].first, binds[bound].second);
        }
        for (int i = 0; i < 64; ++i) {
          h.send("b", i);
          h.send("a", i);
        }
        h.events.run_until_idle();
        if (first_b.empty()) {
          first_b = h.delivered_to("b");
          first_a = h.delivered_to("a");
          EXPECT_GT(first_b.size(), 0u);
          EXPECT_LT(first_b.size(), 64u);
          continue;
        }
        SCOPED_TRACE(::testing::Message()
                     << "a_is_server=" << a_is_server << " a_binds_first="
                     << a_binds_first << " plan_after=" << plan_after_binds);
        EXPECT_EQ(h.delivered_to("b"), first_b);
        EXPECT_EQ(h.delivered_to("a"), first_a);
      }
    }
  }
}

// Directed rules override the default for their direction only, and a
// duplex rule covers the reverse direction too.
TEST(FaultInjectionTest, RulesOverrideDefaultPerDirection) {
  for (const bool duplex : {false, true}) {
    Harness h;
    h.bind_both();
    FaultPlan plan;
    plan.enabled = true;
    plan.default_faults.drop = 1.0;  // everything dies...
    LinkFaultRule spare;             // ...except a -> b (and b -> a)
    spare.from = "a";
    spare.to = "b";
    spare.duplex = duplex;
    spare.faults = LinkFaults{};
    plan.rules.push_back(spare);
    h.transport.set_fault_plan(plan);

    h.send("b", 0);
    h.send("a", 1);
    h.events.run_until_idle();
    SCOPED_TRACE(duplex ? "duplex" : "directed");
    EXPECT_EQ(h.delivered_to("b"), std::vector<std::int64_t>{0});
    EXPECT_EQ(h.delivered_to("a").size(), duplex ? 1u : 0u);
    EXPECT_EQ(h.transport.counters().faults_dropped, duplex ? 0 : 1);
  }
}

// A crash schedule resolves to the end it names: the first schedule that
// names it and has windows wins; an end no schedule names never crashes.
TEST(FaultInjectionTest, CrashSchedulesResolveToTheNamedEnd) {
  FaultPlan plan;
  plan.enabled = true;
  plan.crashes.push_back(CrashSchedule{"b", {}});  // inert: no windows
  plan.crashes.push_back(CrashSchedule{"b", {FaultWindow{1.0, 2.0}}});
  plan.crashes.push_back(CrashSchedule{"b", {FaultWindow{5.0, 6.0}}});
  plan.crashes.push_back(CrashSchedule{"elsewhere", {FaultWindow{0.0, 9.0}}});
  for (const End b_end : {End::kCache, End::kServer}) {
    Harness h;
    h.transport.set_fault_plan(plan);
    EXPECT_EQ(h.transport.crash_windows(b_end), nullptr);  // not yet bound
    h.bind(b_end, "b");
    h.bind(other_end(b_end), "a");
    ASSERT_NE(h.transport.crash_windows(b_end), nullptr);
    ASSERT_EQ(h.transport.crash_windows(b_end)->size(), 1u);
    EXPECT_EQ(h.transport.crash_windows(b_end)->front().down_seconds, 1.0);
    EXPECT_EQ(h.transport.crash_windows(other_end(b_end)), nullptr);
    EXPECT_TRUE(h.transport.endpoint_down(b_end, 1.5));
    EXPECT_FALSE(h.transport.endpoint_down(b_end, 5.5));
    EXPECT_FALSE(h.transport.endpoint_down(other_end(b_end), 1.5));

    // A message to the crashed end lands inside its window and dies; one
    // sent after the heal gets through.
    h.events.advance_until(1.0);
    h.send("b", 0);
    h.events.run_until_idle();
    h.events.advance_until(2.0);
    h.send("b", 1);
    h.events.run_until_idle();
    EXPECT_EQ(h.delivered_to("b"), std::vector<std::int64_t>{1});
    EXPECT_EQ(h.transport.counters().crash_dropped, 1);
  }
}

// The merge rule of each counter, stated here independently of the
// record's own list: the three staleness/reconvergence maxima keep the
// largest value, every other field sums.
bool takes_max(std::string_view field) {
  return field == "max_recovery_staleness_seconds" ||
         field == "max_reconvergence_seconds" ||
         field == "post_restart_staleness_seconds";
}

TEST(ChaosYardsticksTest, MergeSumsCountersAndKeepsMaxima) {
  // Field k holds k in `a`; in `b` it holds k - 1 for odd k (a is larger)
  // and 100 + k for even k (b is larger), so each max field is checked
  // against whichever side wins for it.
  ChaosYardsticks a;
  ChaosYardsticks b;
  int k = 0;
#define FILL(type, name, rule)                                \
  ++k;                                                        \
  a.name = static_cast<type>(k);                              \
  b.name = static_cast<type>(k % 2 == 1 ? k - 1 : 100 + k);
  DELTA_CHAOS_YARDSTICKS(FILL)
#undef FILL
  ChaosYardsticks merged = a;
  merged.merge(b);
  int max_fields = 0;
#define CHECK_FIELD(type, name, rule)                                    \
  max_fields += takes_max(#name) ? 1 : 0;                                \
  EXPECT_EQ(merged.name,                                                 \
            takes_max(#name) ? std::max(a.name, b.name) : a.name + b.name) \
      << #name;
  DELTA_CHAOS_YARDSTICKS(CHECK_FIELD)
#undef CHECK_FIELD
  EXPECT_EQ(max_fields, 3);
  EXPECT_EQ(static_cast<std::size_t>(k), kChaosYardstickCount);
}

TEST(ChaosYardsticksTest, EmptyRecordIsTheMergeIdentity) {
  ChaosYardsticks a;
  a.timeouts = 5;
  a.faults_dropped = 2;
  a.unavailable_seconds = 0.75;
  a.max_reconvergence_seconds = 1.5;
  ChaosYardsticks left = a;
  left.merge(ChaosYardsticks{});
  EXPECT_EQ(left, a);
  ChaosYardsticks right;
  right.merge(a);
  EXPECT_EQ(right, a);
  EXPECT_NE(right.merge(a), a);
}

}  // namespace
}  // namespace delta::net
