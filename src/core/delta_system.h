// DeltaSystem: the single-cache wiring of the middleware — one ServerNode
// and one CacheNode joined by an in-process transport.
//
// The repository logic lives in ServerNode, the client endpoint logic in
// CacheNode (see their headers); DeltaSystem only assembles them and owns
// the aggregate traffic meter. Callers reach the nodes directly: policies
// bind to `&system.cache()`, replay loops ingest through `system.server()`.
// It is also the simulation engines' repository replica: a multi-endpoint
// run builds one DeltaSystem per cache endpoint (see sim/multi_cache.h).
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
      : server_(trace, &transport_), cache_(trace, &server_, &transport_) {}

  DeltaSystem(const DeltaSystem&) = delete;
  DeltaSystem& operator=(const DeltaSystem&) = delete;

  /// The layered nodes.
  [[nodiscard]] ServerNode& server() { return server_; }
  [[nodiscard]] const ServerNode& server() const { return server_; }
  [[nodiscard]] CacheNode& cache() { return cache_; }
  [[nodiscard]] const CacheNode& cache() const { return cache_; }

  /// Aggregate accounting over the whole system (the figure numbers).
  [[nodiscard]] const net::TrafficMeter& meter() const {
    return transport_.meter();
  }

 private:
  net::LoopbackTransport transport_;
  ServerNode server_;
  CacheNode cache_;
};

}  // namespace delta::core
