// The on_query_async completion contract (core/policy.h, core/async_query.h):
//  * every QueryDone fires exactly once, after the last reply its query's
//    decision waited for;
//  * that holds when CacheNode::crash_restart fails the pending requests
//    with an empty payload, and at the end of a crash-windowed open-loop
//    engine run every context slot of every policy is free again;
//  * a recycled context slot starts clean (result_bytes, objects_loaded,
//    shipped_update_ids back at their defaults);
//  * a QueryDone that begins a query on the same policy trips the
//    re-entrancy DCHECK (Debug builds).
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/cache_node.h"
#include "core/server_node.h"
#include "core/vcover_policy.h"
#include "core/yardsticks.h"
#include "net/delayed_transport.h"
#include "sim/event_engine.h"
#include "sim/experiment.h"
#include "trace_builder.h"
#include "util/event_queue.h"

namespace delta::core {
namespace {

/// One replica on a 1 Gbit/s, 40 ms wire with the protocol armed.
struct Replica {
  workload::Trace trace;
  util::EventQueue events;
  net::DelayedTransport transport{&events, net::LinkModel{125e6, 0.040}};
  ServerNode server{&trace, &transport};
  CacheNode cache{&trace, &server};

  explicit Replica(workload::Trace t) : trace(std::move(t)) {
    ProtocolOptions protocol;
    protocol.enabled = true;
    server.set_protocol(protocol);
    cache.set_protocol(protocol, /*probe_on_suspect=*/false);
  }
};

VCoverOptions deterministic_vcover(Bytes capacity) {
  VCoverOptions o;
  o.cache_capacity = capacity;
  o.loading.randomized = false;
  return o;
}

/// What each query's QueryDone saw, indexed by the tag (the query index).
struct Completions {
  const CacheNode* cache = nullptr;
  std::vector<int> fired;
  std::vector<QueryOutcome> outcomes;  // copies: the reference dies
  std::vector<std::size_t> pending_at_fire;

  Completions(const CacheNode* node, std::size_t queries)
      : cache(node),
        fired(queries, 0),
        outcomes(queries),
        pending_at_fire(queries, 0) {}

  CachePolicy::QueryDone done(std::size_t query) {
    return {&Completions::record, this, query};
  }

  static void record(void* self, std::uint64_t tag,
                     const QueryOutcome& outcome) {
    auto& c = *static_cast<Completions*>(self);
    const auto i = static_cast<std::size_t>(tag);
    ++c.fired[i];
    c.outcomes[i] = outcome;
    c.pending_at_fire[i] = c.cache->pending_requests();
  }
};

// One query in flight at a time, so the cache's pending table holds only
// that query's requests: its QueryDone must find the table empty. VCover's
// first two queries each ship the query and load an object — two
// requests — the third ships an update and the last sends nothing.
TEST(AsyncQueryContractTest, DoneFiresOnceAfterTheLastReply) {
  testing::TraceBuilder b{{1'000'000, 1'000'000, 1'000'000}};
  b.query({0}, 2'000'000);
  b.query({1}, 2'000'000);
  b.update(0, 10'000);
  b.query({0}, 2'000'000);
  b.query({0, 1}, 500'000);
  Replica node{b.build()};
  VCoverPolicy policy{&node.cache, deterministic_vcover(Bytes{10'000'000})};
  Completions c{&node.cache, node.trace.queries.size()};
  std::size_t next_query = 0;
  for (const workload::Event& e : node.trace.order) {
    const auto i = static_cast<std::size_t>(e.index);
    if (e.kind == workload::Event::Kind::kUpdate) {
      node.server.ingest_update(node.trace.updates[i]);
    } else {
      policy.on_query_async(node.trace.queries[i], c.done(next_query++));
    }
    node.events.run_until_idle();
  }
  ASSERT_EQ(next_query, node.trace.queries.size());
  for (std::size_t q = 0; q < next_query; ++q) {
    SCOPED_TRACE(q);
    EXPECT_EQ(c.fired[q], 1);
    EXPECT_EQ(c.pending_at_fire[q], 0u);
  }
  EXPECT_EQ(c.outcomes[0].objects_loaded, 1);
  EXPECT_EQ(c.outcomes[1].objects_loaded, 1);
  EXPECT_EQ(c.outcomes[2].path, QueryOutcome::Path::kCacheAfterUpdates);
  EXPECT_EQ(c.outcomes[3].path, QueryOutcome::Path::kCacheFresh);
  EXPECT_EQ(policy.async_queries().in_flight(), 0u);
}

// A crash completes every pending request empty: each query whose
// requests were in flight completes exactly once, with no result bytes,
// and the replies that land afterwards are counted late, not delivered to
// a recycled slot.
TEST(AsyncQueryContractTest, CrashRestartFailsEachPendingQueryOnce) {
  testing::TraceBuilder b{{1'000'000, 1'000'000, 1'000'000, 1'000'000}};
  for (std::int64_t o = 0; o < 4; ++o) b.query({o}, 2'000'000);
  for (std::int64_t o = 0; o < 4; ++o) b.query({o, (o + 1) % 4}, 300'000);
  Replica node{b.build()};
  VCoverPolicy policy{&node.cache, deterministic_vcover(Bytes{10'000'000})};
  const std::size_t queries = node.trace.queries.size();
  Completions c{&node.cache, queries};
  for (std::size_t q = 0; q < queries; ++q) {
    policy.on_query_async(node.trace.queries[q], c.done(q));
  }
  // Nothing was delivered yet. The first four queries each wait on a ship
  // and a load; the last four find their objects resident (a load enters
  // the store at dispatch) and completed inside on_query_async.
  const std::size_t pending = node.cache.pending_requests();
  ASSERT_EQ(pending, 8u);
  EXPECT_EQ(policy.async_queries().in_flight(), 4u);

  node.cache.crash_restart(/*downtime_seconds=*/0.0);
  EXPECT_EQ(node.cache.pending_requests(), 0u);
  EXPECT_EQ(node.cache.counters().failed_requests,
            static_cast<std::int64_t>(pending));
  EXPECT_EQ(policy.async_queries().in_flight(), 0u);
  for (std::size_t q = 0; q < queries; ++q) {
    SCOPED_TRACE(q);
    EXPECT_EQ(c.fired[q], 1);
    EXPECT_EQ(c.outcomes[q].result_bytes, Bytes{});
  }

  node.events.run_until_idle();
  EXPECT_EQ(node.cache.counters().late_replies,
            static_cast<std::int64_t>(pending));
  for (std::size_t q = 0; q < queries; ++q) EXPECT_EQ(c.fired[q], 1);
}

// With one query in flight at a time, every query reuses slot 0. The slot
// first carries result bytes and a load, then a shipped update id; the
// next query must see none of them.
TEST(AsyncQueryContractTest, ReusedSlotStartsClean) {
  testing::TraceBuilder b{{1'000'000}};
  b.query({0}, 2'000'000);  // ships the query and loads the object
  b.update(0, 10'000);
  b.query({0}, 2'000'000);  // ships the update
  b.query({0}, 2'000'000);  // fresh at the cache
  Replica node{b.build()};
  VCoverPolicy policy{&node.cache, deterministic_vcover(Bytes{10'000'000})};
  Completions c{&node.cache, node.trace.queries.size()};
  std::size_t next_query = 0;
  for (const workload::Event& e : node.trace.order) {
    const auto i = static_cast<std::size_t>(e.index);
    if (e.kind == workload::Event::Kind::kUpdate) {
      node.server.ingest_update(node.trace.updates[i]);
    } else {
      policy.on_query_async(node.trace.queries[i], c.done(next_query++));
    }
    node.events.run_until_idle();
  }
  EXPECT_EQ(policy.async_queries().capacity(), 1u);
  EXPECT_EQ(c.outcomes[0].path, QueryOutcome::Path::kShipped);
  EXPECT_EQ(c.outcomes[0].result_bytes, Bytes{2'000'000});
  EXPECT_EQ(c.outcomes[0].objects_loaded, 1);

  EXPECT_EQ(c.outcomes[1].path, QueryOutcome::Path::kCacheAfterUpdates);
  EXPECT_EQ(c.outcomes[1].result_bytes, Bytes{});
  EXPECT_EQ(c.outcomes[1].objects_loaded, 0);
  ASSERT_EQ(c.outcomes[1].shipped_update_ids.size(), 1u);
  EXPECT_EQ(c.outcomes[1].updates_shipped_bytes, Bytes{10'000});

  const QueryOutcome& fresh = c.outcomes[2];
  EXPECT_EQ(fresh.path, QueryOutcome::Path::kCacheFresh);
  EXPECT_EQ(fresh.result_bytes, Bytes{});
  EXPECT_EQ(fresh.objects_loaded, 0);
  EXPECT_TRUE(fresh.shipped_update_ids.empty());
  EXPECT_EQ(fresh.updates_shipped_bytes, Bytes{});
  EXPECT_EQ(fresh.max_update_bytes, Bytes{});
}

// DELTA_DCHECK compiles away under NDEBUG, so the rule is only enforced
// (and this test only built) in Debug builds.
#ifndef NDEBUG
struct Reentrant {
  NoCachePolicy* policy;
  const workload::Query* next;
  static void begin_another(void* self, std::uint64_t,
                            const QueryOutcome&) {
    auto& r = *static_cast<Reentrant*>(self);
    r.policy->on_query_async(*r.next, {&Reentrant::ignore, nullptr, 0});
  }
  static void ignore(void*, std::uint64_t, const QueryOutcome&) {}
};

TEST(AsyncQueryContractTest, DoneThatBeginsAQueryOnItsPolicyTripsTheDcheck) {
  testing::TraceBuilder b{{1'000'000}};
  b.query({0}, 100'000);
  b.query({0}, 100'000);
  Replica node{b.build()};
  NoCachePolicy policy{&node.cache};
  Reentrant reentrant{&policy, &node.trace.queries[1]};
  policy.on_query_async(node.trace.queries[0],
                        {&Reentrant::begin_another, &reentrant, 0});
  EXPECT_THROW(node.events.run_until_idle(), std::logic_error);
}
#endif

// ---- engine level: a crash-windowed open-loop run ----

/// Forwards to a policy and checks the contract from outside: each
/// query's QueryDone fires once, and when the engine tears the replica
/// down the policy's context slab is empty.
class ContractProbe final : public CachePolicy {
 public:
  struct Ledger {
    std::vector<int> begun;  // by query index
    std::vector<int> fired;
    std::vector<QueryDone> engine_done;
    std::size_t in_flight_at_teardown = 0;
    std::size_t torn_down = 0;
  };

  ContractProbe(std::unique_ptr<CachePolicy> inner, const AsyncQueryPool* pool,
                Ledger* ledger)
      : inner_(std::move(inner)), pool_(pool), ledger_(ledger) {}
  ContractProbe(const ContractProbe&) = delete;
  ContractProbe& operator=(const ContractProbe&) = delete;
  ~ContractProbe() override {
    ledger_->in_flight_at_teardown += pool_->in_flight();
    ++ledger_->torn_down;
  }

  void on_update(const workload::Update& u) override { inner_->on_update(u); }
  QueryOutcome on_query(const workload::Query& q) override {
    return inner_->on_query(q);
  }
  void on_query_async(const workload::Query& q, QueryDone done) override {
    const auto i = static_cast<std::size_t>(q.id.value());
    ++ledger_->begun[i];
    ledger_->engine_done[i] = done;
    inner_->on_query_async(q, {&ContractProbe::on_done, ledger_, i});
  }
  void set_nonblocking_invalidations(bool on) override {
    inner_->set_nonblocking_invalidations(on);
  }
  void set_admission(const AdmissionOptions& options) override {
    inner_->set_admission(options);
  }
  [[nodiscard]] std::int64_t degraded_queries() const override {
    return inner_->degraded_queries();
  }
  void on_crash_restart() override { inner_->on_crash_restart(); }
  [[nodiscard]] const char* name() const override { return inner_->name(); }

 private:
  static void on_done(void* ledger, std::uint64_t query,
                      const QueryOutcome& outcome) {
    auto& l = *static_cast<Ledger*>(ledger);
    const auto i = static_cast<std::size_t>(query);
    ++l.fired[i];
    l.engine_done[i](outcome);
  }

  std::unique_ptr<CachePolicy> inner_;
  const AsyncQueryPool* pool_;
  Ledger* ledger_;
};

const AsyncQueryPool* pool_of(const CachePolicy& policy) {
  if (const auto* p = dynamic_cast<const VCoverPolicy*>(&policy)) {
    return &p->async_queries();
  }
  if (const auto* p = dynamic_cast<const BenefitPolicy*>(&policy)) {
    return &p->async_queries();
  }
  if (const auto* p = dynamic_cast<const NoCachePolicy*>(&policy)) {
    return &p->async_queries();
  }
  if (const auto* p = dynamic_cast<const SOptimalPolicy*>(&policy)) {
    return &p->async_queries();
  }
  return nullptr;
}

sim::SetupParams crash_world() {
  sim::SetupParams p;
  p.base_level = 4;
  p.total_rows = 400;  // cheap objects: VCover loads a working set
  p.object_target = 30;
  p.trace_seed = 11;
  p.trace.query_count = 1200;
  p.trace.update_count = 1200;
  p.trace.postwarmup_query_gb = 0.05;
  p.trace.mean_postwarmup_update_mb = 0.02;
  p.trace.hotspot_max_object_gb = 0.01;
  p.benefit_window = 500;
  return p;
}

TEST(AsyncQueryContractTest, CrashWindowedOpenLoopRunFreesEverySlot) {
  const sim::Setup world{crash_world()};
  const workload::Trace& trace = world.trace();
  const double rate = 200.0;
  const double duration = static_cast<double>(trace.order.size()) / rate;
  sim::EventEngineOptions options;
  options.default_link = net::LinkModel{12.5e6, 0.040};
  options.open_loop.enabled = true;
  options.open_loop.rate_per_sec = rate;
  options.open_loop.max_in_flight = 64;
  options.protocol.enabled = true;
  options.fault_plan.enabled = true;
  options.fault_plan.crashes.push_back(net::CrashSchedule{
      "cache-0", {net::FaultWindow{0.30 * duration, 0.40 * duration}}});
  options.fault_plan.crashes.push_back(net::CrashSchedule{
      "cache-1", {net::FaultWindow{0.60 * duration, 0.70 * duration}}});

  for (const sim::PolicyKind kind :
       {sim::PolicyKind::kVCover, sim::PolicyKind::kBenefit,
        sim::PolicyKind::kNoCache, sim::PolicyKind::kSOptimal}) {
    SCOPED_TRACE(sim::to_string(kind));
    ContractProbe::Ledger ledger;
    ledger.begun.assign(trace.queries.size(), 0);
    ledger.fired.assign(trace.queries.size(), 0);
    ledger.engine_done.resize(trace.queries.size());
    options.parallel.num_threads = 1;  // the ledger is shared
    const sim::EventRunResult r = sim::run_policy_event(
        trace, 2, workload::SplitStrategy::kRoundRobin,
        [&](CacheNode& cache, std::size_t) -> std::unique_ptr<CachePolicy> {
          std::unique_ptr<CachePolicy> inner =
              sim::make_policy(kind, cache, trace, world.cache_capacity(),
                               world.params());
          const AsyncQueryPool* pool = pool_of(*inner);
          EXPECT_NE(pool, nullptr);
          return std::make_unique<ContractProbe>(std::move(inner), pool,
                                                 &ledger);
        },
        options);
    EXPECT_EQ(r.chaos.crash_restarts, 2);
    EXPECT_GT(r.chaos.failed_requests, 0);
    EXPECT_EQ(r.replay.combined.queries,
              static_cast<std::int64_t>(trace.queries.size()));
    EXPECT_EQ(ledger.torn_down, 2u);
    EXPECT_EQ(ledger.in_flight_at_teardown, 0u);
    for (std::size_t q = 0; q < trace.queries.size(); ++q) {
      ASSERT_EQ(ledger.begun[q], 1) << "query " << q;
      ASSERT_EQ(ledger.fired[q], 1) << "query " << q;
    }
  }
}

}  // namespace
}  // namespace delta::core
