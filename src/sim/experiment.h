// Shared experiment scaffolding: the paper-default setup (sky, partitions,
// trace parameters), a policy factory, and the runners the figure benches
// and examples share.
//
// Paper defaults (§6.1): ~800 GB server over 68 spatial objects; 250 k
// queries + 250 k updates; cache 30 % of the server; Benefit window
// δ = 1000; ~300 GB of post-warm-up query traffic.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/benefit_policy.h"
#include "core/vcover_policy.h"
#include "core/yardsticks.h"
#include "htm/partition_map.h"
#include "sim/event_engine.h"
#include "sim/simulator.h"
#include "storage/density_model.h"
#include "workload/trace_generator.h"
#include "workload/trace_split.h"

namespace delta::sim {

struct SetupParams {
  int base_level = 5;
  std::uint64_t sky_seed = 2010;
  /// ≈ 800 GB at the modeled 2 KiB/row.
  double total_rows = 4.0e8;
  std::size_t object_target = 68;
  std::uint64_t trace_seed = 1;
  workload::TraceParams trace;
  double cache_fraction = 0.30;
  /// Tuned for this synthetic trace via ablation A2 (the paper tuned its
  /// own trace to 1000; see EXPERIMENTS.md).
  std::int64_t benefit_window = 50'000;
  double benefit_alpha = 0.3;
};

/// A fully-built experiment world: density model, partition map, trace.
class Setup {
 public:
  explicit Setup(const SetupParams& params);

  [[nodiscard]] const SetupParams& params() const { return params_; }
  [[nodiscard]] const storage::DensityModel& density() const {
    return *density_;
  }
  [[nodiscard]] std::shared_ptr<const htm::PartitionMap> map() const {
    return map_;
  }
  [[nodiscard]] const workload::Trace& trace() const { return trace_; }
  [[nodiscard]] workload::Trace& mutable_trace() { return trace_; }

  /// Server size (sum of initial object bytes).
  [[nodiscard]] Bytes server_bytes() const;
  /// Default cache capacity: cache_fraction of the server size.
  [[nodiscard]] Bytes cache_capacity() const;

  /// Builds a partition map of a different granularity over the same sky
  /// (for the Fig. 8b sweep).
  [[nodiscard]] std::shared_ptr<const htm::PartitionMap> map_with_objects(
      std::size_t target_count) const;

 private:
  SetupParams params_;
  std::shared_ptr<storage::DensityModel> density_;
  std::shared_ptr<const htm::PartitionMap> map_;
  workload::Trace trace_;
};

enum class PolicyKind { kNoCache, kReplica, kBenefit, kVCover, kSOptimal };

[[nodiscard]] const char* to_string(PolicyKind kind);

struct PolicyOverrides {
  core::VCoverOptions vcover;  // capacity filled in by the runner
  /// window=0 / alpha=0 mean "use SetupParams defaults".
  core::BenefitOptions benefit{Bytes{}, 0, 0.0};
  core::SOptimalOptions soptimal;  // capacity filled in
};

/// Builds a policy of `kind` driving `cache`, with the same defaults-and-
/// overrides resolution the runners use.
std::unique_ptr<core::CachePolicy> make_policy(
    PolicyKind kind, core::CacheNode& cache, const workload::Trace& trace,
    Bytes cache_capacity, const SetupParams& params,
    const PolicyOverrides& overrides = PolicyOverrides{});

/// Runs one policy over the trace with a fresh DeltaSystem.
RunResult run_one(PolicyKind kind, const workload::Trace& trace,
                  Bytes cache_capacity, const SetupParams& params,
                  const PolicyOverrides& overrides = PolicyOverrides{},
                  std::int64_t series_stride = 2000);

/// Runs one policy kind over the trace on the event-driven engine: N cache
/// endpoints over a latency-aware transport (see sim/event_engine.h), each
/// with a fresh repository replica, its own policy instance and
/// `per_endpoint_capacity` of cache; queries are routed per `strategy`.
/// Any `engine.parallel` thread count yields the same results. With the
/// default zero-latency EventEngineOptions each endpoint's counters and
/// traffic totals equal run_one's over its routed sub-trace (Replica's
/// cumulative series lags by one event; see sim/event_engine.h), while the
/// engine also measures the simulated response-time, staleness and
/// contention yardsticks.
EventRunResult run_one_event(PolicyKind kind, const workload::Trace& trace,
                             Bytes per_endpoint_capacity,
                             const SetupParams& params,
                             std::size_t endpoint_count,
                             workload::SplitStrategy strategy,
                             const EventEngineOptions& engine =
                                 EventEngineOptions{},
                             const PolicyOverrides& overrides =
                                 PolicyOverrides{});

/// Runs the two algorithms and three yardsticks (Fig. 7b's cast).
std::vector<RunResult> run_all_policies(const workload::Trace& trace,
                                        Bytes cache_capacity,
                                        const SetupParams& params,
                                        std::int64_t series_stride = 2000);

}  // namespace delta::sim
