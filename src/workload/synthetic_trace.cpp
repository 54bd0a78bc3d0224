#include "workload/synthetic_trace.h"

#include <algorithm>
#include <cmath>
#include <filesystem>

#include "util/check.h"
#include "workload/trace_io.h"

namespace delta::workload {

namespace {

/// Log-normal row draw floored at one row (costs must stay positive).
double rows_draw(util::Rng& rng, double mean, double sigma) {
  // Parameterize so the draw's median is `mean` (mu = ln(mean)); the
  // heavy tail then pushes the arithmetic mean above it, YCSB-style.
  const double rows = rng.lognormal(std::log(mean), sigma);
  return rows < 1.0 ? 1.0 : rows;
}

Bytes bytes_of_rows(double rows, Bytes row_bytes) {
  const double b = rows * row_bytes.as_double();
  return Bytes{b < 1.0 ? 1 : static_cast<std::int64_t>(b)};
}

}  // namespace

SyntheticTraceParams ycsb_params(YcsbMix mix, std::int64_t object_count,
                                 std::int64_t event_count) {
  SyntheticTraceParams p;
  p.object_count = object_count;
  p.event_count = event_count;
  switch (mix) {
    case YcsbMix::kA:
      p.read_permille = 500;
      break;
    case YcsbMix::kB:
      p.read_permille = 950;
      break;
    case YcsbMix::kC:
      p.read_permille = 1000;
      break;
    case YcsbMix::kD:
      p.read_permille = 950;
      p.distribution = KeyDistribution::kLatest;
      p.scramble = false;  // recency is an id-space notion here
      break;
    case YcsbMix::kE:
      p.read_permille = 0;
      p.scan_permille = 950;
      break;
    case YcsbMix::kF:
      p.read_permille = 500;
      p.rmw_permille = 500;
      break;
  }
  return p;
}

SyntheticTraceGenerator::SyntheticTraceGenerator(SyntheticTraceParams params)
    : params_(std::move(params)) {
  DELTA_CHECK(params_.object_count > 0);
  DELTA_CHECK(params_.event_count > 0);
  DELTA_CHECK(params_.row_bytes.count() > 0);
  DELTA_CHECK(params_.max_scan_len >= 1);
  const int op_permille = params_.read_permille + params_.scan_permille +
                          params_.rmw_permille;
  DELTA_CHECK_MSG(params_.read_permille >= 0 && params_.scan_permille >= 0 &&
                      params_.rmw_permille >= 0 && op_permille <= 1000,
                  "op mix permilles must be non-negative and sum <= 1000");
  DELTA_CHECK(params_.strict_fraction >= 0.0 &&
              params_.strict_fraction <= 1.0);
  DELTA_CHECK(params_.tolerance_lo >= 0 &&
              params_.tolerance_lo <= params_.tolerance_hi);
  DELTA_CHECK(params_.warmup_fraction >= 0.0 &&
              params_.warmup_fraction < 1.0);
}

Trace SyntheticTraceGenerator::generate(std::uint64_t seed) const {
  const SyntheticTraceParams& p = params_;
  util::Rng rng{seed};

  Trace trace;
  trace.info.seed = seed;
  trace.info.base_level = 0;  // no HTM mapping: keys are opaque
  trace.info.row_bytes = p.row_bytes;
  trace.info.partition_count = static_cast<std::size_t>(p.object_count);
  trace.info.warmup_end_event = static_cast<EventTime>(
      p.warmup_fraction * static_cast<double>(p.event_count));

  // Initial object sizes: log-normal rows per key, drawn from a forked
  // stream so the event stream is invariant to object_count-only changes
  // in sizing parameters.
  util::Rng size_rng = rng.fork();
  trace.initial_object_bytes.reserve(
      static_cast<std::size_t>(p.object_count));
  for (std::int64_t i = 0; i < p.object_count; ++i) {
    trace.initial_object_bytes.push_back(bytes_of_rows(
        rows_draw(size_rng, p.object_rows_mean, p.object_rows_sigma),
        p.row_bytes));
  }

  // Key generators (at most one is exercised per run, but construction is
  // cheap except the zipfian zeta sum, so build lazily by distribution).
  UniformKeys uniform{p.object_count};
  ZipfianKeys zipf =
      p.distribution == KeyDistribution::kZipfian
          ? ZipfianKeys{p.object_count, p.zipfian_theta, p.scramble}
          : ZipfianKeys{2, 0.5, false};
  LatestKeys latest =
      p.distribution == KeyDistribution::kLatest
          ? LatestKeys{p.object_count, p.zipfian_theta}
          : LatestKeys{2, 0.5};
  ExponentialKeys expo{p.object_count, p.exponential_percentile,
                       p.exponential_frac};

  const auto read_key = [&]() -> std::int64_t {
    switch (p.distribution) {
      case KeyDistribution::kUniform:
        return uniform.next(rng);
      case KeyDistribution::kZipfian:
        return zipf.next(rng);
      case KeyDistribution::kLatest:
        return latest.next(rng);
      case KeyDistribution::kExponential:
        return expo.next(rng);
    }
    return 0;
  };
  const auto write_key = [&]() -> std::int64_t {
    // The latest law's write stream drives the recency cursor; the other
    // laws write where they read.
    if (p.distribution == KeyDistribution::kLatest) {
      return latest.next_write();
    }
    return read_key();
  };

  trace.order.reserve(static_cast<std::size_t>(p.event_count));
  EventTime now = 0;

  const auto emit_query = [&](std::int64_t first_key, std::int64_t span,
                              QueryKind kind) {
    Query q;
    q.id = QueryId{static_cast<std::int64_t>(trace.queries.size())};
    q.time = now++;
    q.kind = kind;
    for (std::int64_t k = first_key; k < first_key + span; ++k) {
      q.objects.push_back(ObjectId{k});
    }
    q.cost = bytes_of_rows(
        static_cast<double>(span) *
            rows_draw(rng, p.result_rows_mean, p.result_rows_sigma),
        p.row_bytes);
    q.staleness_tolerance =
        rng.bernoulli(p.strict_fraction)
            ? 0
            : rng.uniform_int(p.tolerance_lo, p.tolerance_hi);
    trace.order.push_back(
        Event::query(static_cast<std::int64_t>(trace.queries.size())));
    trace.queries.push_back(std::move(q));
  };
  const auto emit_update = [&](std::int64_t key) {
    Update u;
    u.id = UpdateId{static_cast<std::int64_t>(trace.updates.size())};
    u.time = now++;
    u.object = ObjectId{key};
    u.rows = rows_draw(rng, p.update_rows_mean, p.update_rows_sigma);
    u.cost = bytes_of_rows(u.rows, p.row_bytes);
    trace.order.push_back(
        Event::update(static_cast<std::int64_t>(trace.updates.size())));
    trace.updates.push_back(u);
  };

  const int read_bound = p.read_permille;
  const int scan_bound = read_bound + p.scan_permille;
  const int rmw_bound = scan_bound + p.rmw_permille;
  while (now < p.event_count) {
    const std::int64_t op = rng.uniform_int(0, 999);
    if (op < read_bound) {
      emit_query(read_key(), 1, QueryKind::kConeSearch);
    } else if (op < scan_bound) {
      const std::int64_t key = read_key();
      const std::int64_t len =
          std::min(rng.uniform_int(1, p.max_scan_len), p.object_count - key);
      emit_query(key, len, QueryKind::kScanChunk);
    } else if (op < rmw_bound && now + 1 < p.event_count) {
      // Read-modify-write: the read and its write-back are adjacent merged
      // events on the same key.
      const std::int64_t key = read_key();
      emit_query(key, 1, QueryKind::kAggregation);
      emit_update(key);
    } else {
      emit_update(write_key());
    }
  }

  trace.validate();
  return trace;
}

Trace load_or_generate(const SyntheticTraceGenerator& generator,
                       std::uint64_t seed, const std::string& path) {
  if (std::filesystem::exists(path)) {
    return load_trace(path);
  }
  Trace trace = generator.generate(seed);
  save_trace(path, trace);
  return trace;
}

}  // namespace delta::workload
