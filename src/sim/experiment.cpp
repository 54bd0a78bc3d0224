#include "sim/experiment.h"

#include "util/check.h"

namespace delta::sim {

Setup::Setup(const SetupParams& params) : params_(params) {
  density_ = std::make_shared<storage::DensityModel>(params.base_level,
                                                     params.sky_seed);
  density_->scale_to_total_rows(params.total_rows);
  map_ = std::make_shared<htm::PartitionMap>(htm::PartitionMap::build(
      params.base_level, density_->weights(), params.object_target));
  workload::TraceGenerator generator{map_, *density_, params.trace};
  trace_ = generator.generate(params.trace_seed);
}

Bytes Setup::server_bytes() const {
  Bytes total;
  for (const Bytes b : trace_.initial_object_bytes) total += b;
  return total;
}

Bytes Setup::cache_capacity() const {
  return Bytes{static_cast<std::int64_t>(server_bytes().as_double() *
                                         params_.cache_fraction)};
}

std::shared_ptr<const htm::PartitionMap> Setup::map_with_objects(
    std::size_t target_count) const {
  return std::make_shared<htm::PartitionMap>(htm::PartitionMap::build(
      params_.base_level, density_->weights(), target_count));
}

const char* to_string(PolicyKind kind) {
  switch (kind) {
    case PolicyKind::kNoCache:
      return "NoCache";
    case PolicyKind::kReplica:
      return "Replica";
    case PolicyKind::kBenefit:
      return "Benefit";
    case PolicyKind::kVCover:
      return "VCover";
    case PolicyKind::kSOptimal:
      return "SOptimal";
  }
  return "?";
}

std::unique_ptr<core::CachePolicy> make_policy(
    PolicyKind kind, core::CacheNode& cache, const workload::Trace& trace,
    Bytes cache_capacity, const SetupParams& params,
    const PolicyOverrides& overrides) {
  switch (kind) {
    case PolicyKind::kNoCache:
      return std::make_unique<core::NoCachePolicy>(&cache);
    case PolicyKind::kReplica:
      return std::make_unique<core::ReplicaPolicy>(&cache);
    case PolicyKind::kBenefit: {
      core::BenefitOptions opts = overrides.benefit;
      opts.cache_capacity = cache_capacity;
      if (opts.window <= 0) opts.window = params.benefit_window;
      opts.alpha = opts.alpha > 0.0 ? opts.alpha : params.benefit_alpha;
      return std::make_unique<core::BenefitPolicy>(&cache, opts);
    }
    case PolicyKind::kVCover: {
      core::VCoverOptions opts = overrides.vcover;
      opts.cache_capacity = cache_capacity;
      return std::make_unique<core::VCoverPolicy>(&cache, opts);
    }
    case PolicyKind::kSOptimal: {
      core::SOptimalOptions opts = overrides.soptimal;
      opts.cache_capacity = cache_capacity;
      return std::make_unique<core::SOptimalPolicy>(&cache, &trace, opts);
    }
  }
  DELTA_CHECK_MSG(false, "unknown policy kind");
  return nullptr;
}

RunResult run_one(PolicyKind kind, const workload::Trace& trace,
                  Bytes cache_capacity, const SetupParams& params,
                  const PolicyOverrides& overrides,
                  std::int64_t series_stride) {
  core::DeltaSystem system{&trace};
  const std::unique_ptr<core::CachePolicy> policy = make_policy(
      kind, system.cache(), trace, cache_capacity, params, overrides);
  return run_policy(trace, system, *policy, series_stride);
}

EventRunResult run_one_event(PolicyKind kind, const workload::Trace& trace,
                             Bytes per_endpoint_capacity,
                             const SetupParams& params,
                             std::size_t endpoint_count,
                             workload::SplitStrategy strategy,
                             const EventEngineOptions& engine,
                             const PolicyOverrides& overrides) {
  // Computed once and handed to both the policies and the engine, so the
  // routing and (for offline SOptimal) each endpoint's hindsight shard are
  // the same split by construction.
  const std::vector<std::uint32_t> assignment =
      workload::assign_queries(trace, endpoint_count, strategy);
  const bool shard_soptimal =
      kind == PolicyKind::kSOptimal && endpoint_count > 1;
  return run_policy_event(
      trace, endpoint_count, strategy,
      [&](core::CacheNode& cache, std::size_t index) {
        PolicyOverrides endpoint_overrides = overrides;
        if (shard_soptimal) {
          endpoint_overrides.soptimal.query_assignment = &assignment;
          endpoint_overrides.soptimal.endpoint =
              static_cast<std::uint32_t>(index);
        }
        return make_policy(kind, cache, trace, per_endpoint_capacity, params,
                           endpoint_overrides);
      },
      engine, &assignment);
}

std::vector<RunResult> run_all_policies(const workload::Trace& trace,
                                        Bytes cache_capacity,
                                        const SetupParams& params,
                                        std::int64_t series_stride) {
  std::vector<RunResult> results;
  for (const PolicyKind kind :
       {PolicyKind::kNoCache, PolicyKind::kReplica, PolicyKind::kBenefit,
        PolicyKind::kVCover, PolicyKind::kSOptimal}) {
    results.push_back(run_one(kind, trace, cache_capacity, params,
                              PolicyOverrides{}, series_stride));
  }
  return results;
}

}  // namespace delta::sim
