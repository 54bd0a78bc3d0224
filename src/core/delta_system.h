// DeltaSystem: the single-cache wiring of the middleware — one ServerNode
// and one CacheNode on the two ends of an in-process transport.
//
// The repository logic lives in ServerNode, the client endpoint logic in
// CacheNode (see their headers); DeltaSystem only assembles them. Callers
// reach the nodes directly: policies bind to `&system.cache()`, the replay
// loop ingests through `system.server()`. The single-cache loop
// (sim::run_policy) runs on it; the N-endpoint event engine assembles one
// server/cache pair per cache endpoint, each on its own latency-aware
// transport (see sim/event_engine.h).
#pragma once

#include "core/cache_node.h"
#include "core/server_node.h"
#include "net/transport.h"
#include "util/types.h"
#include "workload/trace.h"

namespace delta::core {

class DeltaSystem {
 public:
  /// Builds the server from the trace's initial object sizes. The trace
  /// outlives the system.
  explicit DeltaSystem(const workload::Trace* trace)
      : server_(trace, &transport_), cache_(trace, &server_) {}

  DeltaSystem(const DeltaSystem&) = delete;
  DeltaSystem& operator=(const DeltaSystem&) = delete;

  /// The layered nodes.
  [[nodiscard]] ServerNode& server() { return server_; }
  [[nodiscard]] const ServerNode& server() const { return server_; }
  [[nodiscard]] CacheNode& cache() { return cache_; }
  [[nodiscard]] const CacheNode& cache() const { return cache_; }

  /// All traffic on the wire (the figure numbers): the fold of the two end
  /// meters, which partition it.
  [[nodiscard]] net::TrafficMeter meter() const {
    net::TrafficMeter all = cache_.meter();
    all.merge(server_.meter());
    return all;
  }

 private:
  net::LoopbackTransport transport_;
  ServerNode server_;
  CacheNode cache_;
};

}  // namespace delta::core
