// Bitwise equality of simulation results, shared by every test that pins
// one run against another (thread counts, endpoint counts, repeated runs),
// the replay fingerprint the pinned-result tests hash runs with, and the
// gtest printer for the chaos counter record.
#pragma once

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <ostream>
#include <string>
#include <type_traits>

#include "net/fault_plan.h"
#include "sim/multi_cache.h"
#include "sim/simulator.h"

namespace delta::testing {

/// FNV-1a over the bytes of trivially copyable values.
class Fnv1a {
 public:
  template <typename T>
  void add(const T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    unsigned char bytes[sizeof(T)];
    std::memcpy(bytes, &value, sizeof(T));
    for (const unsigned char b : bytes) {
      hash_ ^= b;
      hash_ *= 0x100000001b3ULL;
    }
  }
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/// Hash of the figures the golden result rows do not pin: every series
/// point and the post-warm-up latency moments, combined view first, then
/// each endpoint.
inline std::uint64_t replay_fingerprint(const sim::MultiRunResult& multi) {
  Fnv1a h;
  const auto add = [&h](const sim::RunResult& r) {
    h.add(static_cast<std::uint64_t>(r.series.points().size()));
    for (const util::CumulativeSeries::Point& p : r.series.points()) {
      h.add(p.event_index);
      h.add(p.value);
    }
    h.add(r.postwarmup_latency.count());
    h.add(r.postwarmup_latency.mean());
    h.add(r.postwarmup_latency.variance());
    h.add(r.postwarmup_latency.min());
    h.add(r.postwarmup_latency.max());
    h.add(r.postwarmup_latency.sum());
  };
  add(multi.combined);
  for (const sim::RunResult& r : multi.per_endpoint) add(r);
  return h.value();
}

/// Every RunResult field but wall_seconds (real elapsed time). Doubles are
/// compared with EXPECT_EQ on purpose: the engines promise bit-identical
/// output, not approximate.
inline void ExpectIdentical(const sim::RunResult& a, const sim::RunResult& b,
                            const std::string& label) {
  SCOPED_TRACE(label);
  EXPECT_EQ(a.policy_name, b.policy_name);
  EXPECT_EQ(a.warmup_end, b.warmup_end);
  EXPECT_EQ(a.total_traffic, b.total_traffic);
  EXPECT_EQ(a.postwarmup_traffic, b.postwarmup_traffic);
  for (std::size_t m = 0; m < 3; ++m) {
    EXPECT_EQ(a.postwarmup_by_mechanism[m], b.postwarmup_by_mechanism[m])
        << "mechanism " << m;
  }
  EXPECT_EQ(a.overhead_traffic, b.overhead_traffic);
  EXPECT_EQ(a.queries, b.queries);
  EXPECT_EQ(a.cache_fresh, b.cache_fresh);
  EXPECT_EQ(a.cache_after_updates, b.cache_after_updates);
  EXPECT_EQ(a.shipped, b.shipped);
  EXPECT_EQ(a.objects_loaded, b.objects_loaded);
  ASSERT_EQ(a.series.points().size(), b.series.points().size());
  for (std::size_t k = 0; k < a.series.points().size(); ++k) {
    EXPECT_EQ(a.series.points()[k].event_index,
              b.series.points()[k].event_index)
        << "point " << k;
    EXPECT_EQ(a.series.points()[k].value, b.series.points()[k].value)
        << "point " << k;
  }
  EXPECT_EQ(a.postwarmup_latency.count(), b.postwarmup_latency.count());
  EXPECT_EQ(a.postwarmup_latency.mean(), b.postwarmup_latency.mean());
  EXPECT_EQ(a.postwarmup_latency.variance(), b.postwarmup_latency.variance());
  EXPECT_EQ(a.postwarmup_latency.min(), b.postwarmup_latency.min());
  EXPECT_EQ(a.postwarmup_latency.max(), b.postwarmup_latency.max());
  EXPECT_EQ(a.postwarmup_latency.sum(), b.postwarmup_latency.sum());
}

/// The combined view and every per-endpoint view, pairwise.
inline void ExpectIdentical(const sim::MultiRunResult& a,
                            const sim::MultiRunResult& b,
                            const std::string& label) {
  EXPECT_EQ(a.strategy, b.strategy);
  ASSERT_EQ(a.per_endpoint.size(), b.per_endpoint.size());
  ExpectIdentical(a.combined, b.combined, label + " combined");
  for (std::size_t i = 0; i < a.per_endpoint.size(); ++i) {
    ExpectIdentical(a.per_endpoint[i], b.per_endpoint[i],
                    label + " endpoint " + std::to_string(i));
  }
}

}  // namespace delta::testing

namespace delta::net {

/// Prints every nonzero field by name at full precision, so a failed
/// EXPECT_EQ between two records names the counters that differ.
inline void PrintTo(const ChaosYardsticks& r, std::ostream* os) {
  const std::streamsize precision = os->precision(17);
  *os << '{';
#define DELTA_CHAOS_PRINT(type, name, rule) \
  if (r.name != 0) *os << ' ' << #name << '=' << r.name;
  DELTA_CHAOS_YARDSTICKS(DELTA_CHAOS_PRINT)
#undef DELTA_CHAOS_PRINT
  *os << " }";
  os->precision(precision);
}

}  // namespace delta::net
