// Deterministic fault injection on DelayedTransport (ISSUE 8): drop /
// duplicate / reorder draws from per-link splitmix streams, scheduled
// partition windows, the zero-fault byte-identity contract, and the
// stream-independence properties (other links' traffic and registration
// order never perturb a link's fates) — plus the merge rules of the
// ChaosYardsticks counter record the transport's fates are counted in.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <string_view>
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

struct Harness {
  util::EventQueue events;
  DelayedTransport transport;
  std::vector<Delivery> deliveries;

  explicit Harness(LinkModel default_link = LinkModel{1e6, 0.020})
      : transport(&events, default_link) {}

  std::size_t add_endpoint(const std::string& name) {
    return transport.register_endpoint(name, [this, name](const Message& m) {
      deliveries.push_back(Delivery{name, m.subject_id, events.now()});
    });
  }

  void send(const std::string& from, const std::string& to,
            std::int64_t subject, Bytes payload = Bytes{99'936}) {
    Message m;
    m.kind = MessageKind::kControl;
    m.payload = payload;
    m.sender = from;
    m.subject_id = subject;
    transport.send(to, m, Mechanism::kQueryShip);
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
  h.add_endpoint("a");
  h.add_endpoint("b");
  LinkFaults faults;
  faults.drop = 1.0;
  h.transport.set_fault_plan(plan_with(faults));
  EXPECT_TRUE(h.transport.faults_active());
  for (int i = 0; i < 8; ++i) h.send("a", "b", i);
  h.events.run_until_idle();
  EXPECT_TRUE(h.deliveries.empty());
  EXPECT_EQ(h.transport.counters().faults_dropped, 8);
  // The wire ate the messages AFTER serialization: the egress link was
  // busy (the sender cannot know), but nothing was metered at delivery.
  const UplinkStats& uplink =
      h.transport.uplink_stats(h.transport.endpoint_slot("a"));
  EXPECT_EQ(uplink.sends, 8);
  EXPECT_GT(uplink.busy_seconds, 0.0);
  EXPECT_EQ(h.transport.endpoint_meter("b").figure_total(), Bytes{0});
}

TEST(FaultInjectionTest, CertainDuplicateDeliversTwiceOriginalFirst) {
  Harness h;
  h.add_endpoint("a");
  h.add_endpoint("b");
  LinkFaults faults;
  faults.duplicate = 1.0;
  h.transport.set_fault_plan(plan_with(faults));
  h.send("a", "b", 7);
  h.events.run_until_idle();
  ASSERT_EQ(h.deliveries.size(), 2u);
  EXPECT_EQ(h.deliveries[0].subject, 7);
  EXPECT_EQ(h.deliveries[1].subject, 7);
  // The copy shares the original's timing (a retransmit artifact, not a
  // second serialization) and lands right after it by event order.
  EXPECT_EQ(h.deliveries[0].at, h.deliveries[1].at);
  EXPECT_EQ(h.transport.counters().faults_duplicated, 1);
  // Duplicated flights are not themselves re-drawn: exactly one copy.
  const UplinkStats& uplink =
      h.transport.uplink_stats(h.transport.endpoint_slot("a"));
  EXPECT_EQ(uplink.sends, 1);
}

TEST(FaultInjectionTest, CertainReorderDefersDeliveryWithinBound) {
  Harness clean;
  clean.add_endpoint("a");
  clean.add_endpoint("b");
  clean.send("a", "b", 0);
  clean.events.run_until_idle();
  ASSERT_EQ(clean.deliveries.size(), 1u);
  const double undisturbed = clean.deliveries[0].at;

  Harness h;
  h.add_endpoint("a");
  h.add_endpoint("b");
  LinkFaults faults;
  faults.reorder = 1.0;
  faults.reorder_max_delay_seconds = 0.5;
  h.transport.set_fault_plan(plan_with(faults));
  h.send("a", "b", 0);
  h.events.run_until_idle();
  ASSERT_EQ(h.deliveries.size(), 1u);
  EXPECT_GE(h.deliveries[0].at, undisturbed);
  EXPECT_LE(h.deliveries[0].at, undisturbed + 0.5);
  EXPECT_EQ(h.transport.counters().faults_reordered, 1);
}

TEST(FaultInjectionTest, PartitionWindowDropsExactlyItsSpan) {
  Harness h;
  h.add_endpoint("a");
  h.add_endpoint("b");
  FaultPlan plan;
  plan.enabled = true;
  plan.partitions.push_back(
      LinkPartition{"a", "b", /*duplex=*/true, {FaultWindow{10.0, 20.0}}});
  h.transport.set_fault_plan(plan);
  EXPECT_TRUE(h.transport.faults_active());

  h.send("a", "b", 0);  // before the window: delivered
  h.events.run_until_idle();
  h.events.advance_until(10.0);
  h.send("a", "b", 1);  // inside [down, heal): dropped
  h.events.run_until_idle();
  h.events.advance_until(19.999);
  h.send("a", "b", 2);  // still inside (half-open): dropped
  h.events.run_until_idle();
  h.events.advance_until(20.0);
  h.send("a", "b", 3);  // healed: delivered
  h.events.run_until_idle();

  ASSERT_EQ(h.deliveries.size(), 2u);
  EXPECT_EQ(h.deliveries[0].subject, 0);
  EXPECT_EQ(h.deliveries[1].subject, 3);
  EXPECT_EQ(h.transport.counters().partition_dropped, 2);
  EXPECT_EQ(h.transport.counters().faults_dropped, 0);
}

TEST(FaultInjectionTest, DuplexPartitionKillsBothDirections) {
  Harness h;
  h.add_endpoint("a");
  h.add_endpoint("b");
  FaultPlan plan;
  plan.enabled = true;
  plan.partitions.push_back(
      LinkPartition{"a", "b", /*duplex=*/true, {FaultWindow{0.0, 1.0}}});
  h.transport.set_fault_plan(plan);
  h.send("a", "b", 0);
  h.send("b", "a", 1);
  h.events.run_until_idle();
  EXPECT_TRUE(h.deliveries.empty());
  EXPECT_EQ(h.transport.counters().partition_dropped, 2);
}

// The zero-fault contract: an enabled plan with no nonzero probability and
// no partition window leaves the transport byte-identical to one that
// never saw a plan — including the inline fast path (faults_active stays
// false, so delivery schedules are unchanged).
TEST(FaultInjectionTest, ZeroProbabilityPlanIsIdenticalToNoPlan) {
  Harness bare;
  Harness planned;
  for (Harness* h : {&bare, &planned}) {
    h->add_endpoint("a");
    h->add_endpoint("b");
  }
  planned.transport.set_fault_plan(plan_with(LinkFaults{}));
  EXPECT_FALSE(planned.transport.faults_active());
  for (int i = 0; i < 16; ++i) {
    bare.send("a", "b", i);
    planned.send("a", "b", i);
    if (i % 3 == 0) {
      bare.events.run_until_idle();
      planned.events.run_until_idle();
    }
  }
  bare.events.run_until_idle();
  planned.events.run_until_idle();
  ASSERT_EQ(bare.deliveries.size(), planned.deliveries.size());
  for (std::size_t i = 0; i < bare.deliveries.size(); ++i) {
    EXPECT_EQ(bare.deliveries[i].subject, planned.deliveries[i].subject);
    EXPECT_EQ(bare.deliveries[i].at, planned.deliveries[i].at);  // bitwise
  }
  EXPECT_EQ(planned.transport.counters().faults_dropped, 0);
}

// A link's fate stream is keyed by (seed, endpoint names, per-link seq):
// traffic on OTHER links must not perturb it.
TEST(FaultInjectionTest, LinkStreamsAreIndependentOfOtherLinksTraffic) {
  LinkFaults faults;
  faults.drop = 0.5;
  Harness quiet;
  Harness noisy;
  for (Harness* h : {&quiet, &noisy}) {
    h->add_endpoint("a");
    h->add_endpoint("b");
    h->add_endpoint("c");
    h->transport.set_fault_plan(plan_with(faults));
  }
  for (int i = 0; i < 64; ++i) {
    quiet.send("a", "b", i);
    noisy.send("a", "b", i);
    noisy.send("a", "c", 1000 + i);  // extra traffic on a different link
  }
  quiet.events.run_until_idle();
  noisy.events.run_until_idle();
  std::vector<std::int64_t> quiet_b;
  std::vector<std::int64_t> noisy_b;
  for (const Delivery& d : quiet.deliveries) {
    if (d.endpoint == "b") quiet_b.push_back(d.subject);
  }
  for (const Delivery& d : noisy.deliveries) {
    if (d.endpoint == "b") noisy_b.push_back(d.subject);
  }
  ASSERT_EQ(quiet_b, noisy_b);  // identical survivors, identical order
  EXPECT_GT(quiet_b.size(), 0u);
  EXPECT_LT(quiet_b.size(), 64u);  // the drop really did something
}

// Registration order must not perturb a link's stream either: endpoints
// registered AFTER traffic started (grid growth) leave earlier links'
// sequences intact.
TEST(FaultInjectionTest, GridGrowthPreservesLinkStreams) {
  LinkFaults faults;
  faults.drop = 0.5;
  Harness grown;
  grown.add_endpoint("a");
  grown.add_endpoint("b");
  grown.transport.set_fault_plan(plan_with(faults));
  Harness upfront;
  upfront.add_endpoint("a");
  upfront.add_endpoint("b");
  upfront.add_endpoint("c");
  upfront.transport.set_fault_plan(plan_with(faults));

  for (int i = 0; i < 32; ++i) {
    grown.send("a", "b", i);
    upfront.send("a", "b", i);
  }
  grown.events.run_until_idle();
  upfront.events.run_until_idle();
  grown.add_endpoint("c");  // grow the grid mid-run
  for (int i = 32; i < 64; ++i) {
    grown.send("a", "b", i);
    upfront.send("a", "b", i);
  }
  grown.events.run_until_idle();
  upfront.events.run_until_idle();

  std::vector<std::int64_t> grown_b;
  std::vector<std::int64_t> upfront_b;
  for (const Delivery& d : grown.deliveries) grown_b.push_back(d.subject);
  for (const Delivery& d : upfront.deliveries) upfront_b.push_back(d.subject);
  ASSERT_EQ(grown_b, upfront_b);
}

// Directed rules override the default, and a duplex rule covers the
// reverse direction.
TEST(FaultInjectionTest, RulesOverrideDefaultPerLink) {
  Harness h;
  h.add_endpoint("a");
  h.add_endpoint("b");
  h.add_endpoint("c");
  FaultPlan plan;
  plan.enabled = true;
  plan.default_faults.drop = 1.0;  // everything dies...
  LinkFaultRule spare;             // ...except the a<->b pair
  spare.from = "a";
  spare.to = "b";
  spare.duplex = true;
  spare.faults = LinkFaults{};
  plan.rules.push_back(spare);
  h.transport.set_fault_plan(plan);

  h.send("a", "b", 0);
  h.send("b", "a", 1);
  h.send("a", "c", 2);
  h.events.run_until_idle();
  ASSERT_EQ(h.deliveries.size(), 2u);
  EXPECT_EQ(h.deliveries[0].subject, 0);
  EXPECT_EQ(h.deliveries[1].subject, 1);
  EXPECT_EQ(h.transport.counters().faults_dropped, 1);
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
