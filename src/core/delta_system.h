// DeltaSystem: the single-cache wiring of the middleware — a thin façade
// over one ServerNode and one CacheNode joined by an in-process transport.
//
// The repository logic lives in ServerNode, the client endpoint logic in
// CacheNode (see their headers); DeltaSystem only assembles them and
// forwards the historical single-cache API so existing policies, tests,
// benches and examples keep working unchanged. It is also the simulation
// engines' repository replica: a multi-endpoint run builds one DeltaSystem
// per cache endpoint (see sim/multi_cache.h).
#pragma once

#include <functional>
#include <string>

#include "core/cache_node.h"
#include "core/server_node.h"
#include "net/transport.h"
#include "util/check.h"
#include "util/types.h"
#include "workload/trace.h"

namespace delta::core {

class DeltaSystem {
 public:
  /// Builds the server from the trace's initial object sizes. The trace
  /// outlives the system.
  explicit DeltaSystem(const workload::Trace* trace)
      : server_(trace, &transport_), cache_(trace, &server_, &transport_) {}

  DeltaSystem(const DeltaSystem&) = delete;
  DeltaSystem& operator=(const DeltaSystem&) = delete;

  /// The layered nodes, for callers that want the real architecture.
  [[nodiscard]] ServerNode& server() { return server_; }
  [[nodiscard]] const ServerNode& server() const { return server_; }
  [[nodiscard]] CacheNode& cache() { return cache_; }
  [[nodiscard]] const CacheNode& cache() const { return cache_; }

  // ---- repository-side driver (called by the simulator) ----

  void ingest_update(const workload::Update& u) { server_.ingest_update(u); }

  // ---- cache-side client API (called by policies) ----

  void set_subscription(MetadataSubscription subscription) {
    cache_.set_subscription(subscription);
  }
  void set_invalidation_handler(
      std::function<void(const workload::Update&)> handler) {
    cache_.set_invalidation_handler(std::move(handler));
  }
  Bytes ship_query(const workload::Query& q) { return cache_.ship_query(q); }
  Bytes ship_update(const workload::Update& u) {
    return cache_.ship_update(u);
  }
  Bytes load_object(ObjectId o) { return cache_.load_object(o); }
  void notify_eviction(ObjectId o) { cache_.notify_eviction(o); }

  // ---- repository state (metadata the cache may query cheaply) ----

  [[nodiscard]] Bytes server_object_bytes(ObjectId o) const {
    return server_.object_bytes(o);
  }
  [[nodiscard]] Bytes load_cost(ObjectId o) const {
    return server_.load_cost(o);
  }
  [[nodiscard]] bool is_registered(ObjectId o) const {
    return cache_.is_registered(o);
  }
  [[nodiscard]] std::size_t object_count() const {
    return server_.object_count();
  }

  /// Aggregate accounting over the whole system (the figure numbers).
  [[nodiscard]] const net::TrafficMeter& meter() const {
    return transport_.meter();
  }

  /// Bulk-copy framing added to every object load.
  static constexpr Bytes kLoadOverheadBytes = ServerNode::kLoadOverheadBytes;

 private:
  net::LoopbackTransport transport_;
  ServerNode server_;
  CacheNode cache_;
};

/// Null-checked access to the façade's cache endpoint, for the policies'
/// single-cache compatibility constructors.
[[nodiscard]] inline CacheNode* cache_endpoint(DeltaSystem* system) {
  DELTA_CHECK(system != nullptr);
  return &system->cache();
}

}  // namespace delta::core
