// Streaming statistics and fixed-bin histograms used by metrics collection
// and by the workload calibration pass.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace delta::util {

/// Welford-style streaming mean/variance with min/max tracking.
class StreamingStats {
 public:
  /// Inline: the replay loops add several samples per query (response,
  /// dispatch lag, per-endpoint views) — this must not be a call.
  void add(double x) {
    ++count_;
    sum_ += x;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (x - mean_);
    min_ = x < min_ ? x : min_;
    max_ = x > max_ ? x : max_;
  }

  /// Folds `other` into this via the parallel-Welford combination (Chan et
  /// al.). Count/min/max are exact; sum/mean/variance are the
  /// mathematically correct combination but, being floating-point folds of
  /// per-shard partials, need not be bit-equal to adding the samples one by
  /// one in arrival order. The result is a function of the merge order, so
  /// a fixed order (the event engine's endpoint order) is deterministic.
  /// Merging into an empty accumulator copies `other` bitwise.
  void merge(const StreamingStats& other);

  [[nodiscard]] std::int64_t count() const { return count_; }
  [[nodiscard]] double mean() const { return count_ > 0 ? mean_ : 0.0; }
  [[nodiscard]] double variance() const;
  [[nodiscard]] double stddev() const;
  [[nodiscard]] double min() const { return count_ > 0 ? min_ : 0.0; }
  [[nodiscard]] double max() const { return count_ > 0 ? max_ : 0.0; }
  [[nodiscard]] double sum() const { return sum_; }

 private:
  std::int64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Count/sum/min/max accumulator without the Welford moment updates — for
/// yardsticks that only ever report count, mean, and extrema (e.g. the
/// event engine's dispatch lag, added once per query on the hot path).
/// Use StreamingStats when variance matters.
class SummaryStats {
 public:
  void add(double x) {
    ++count_;
    sum_ += x;
    min_ = x < min_ ? x : min_;
    max_ = x > max_ ? x : max_;
  }

  /// Fold of two accumulators. Count/min/max are exact; sum_ is a
  /// floating-point sum, so its low bits depend on the merge order.
  void merge(const SummaryStats& other) {
    count_ += other.count_;
    sum_ += other.sum_;
    min_ = other.min_ < min_ ? other.min_ : min_;
    max_ = other.max_ > max_ ? other.max_ : max_;
  }

  [[nodiscard]] std::int64_t count() const { return count_; }
  [[nodiscard]] double sum() const { return sum_; }
  [[nodiscard]] double mean() const {
    return count_ > 0 ? sum_ / static_cast<double>(count_) : 0.0;
  }
  [[nodiscard]] double min() const { return count_ > 0 ? min_ : 0.0; }
  [[nodiscard]] double max() const { return count_ > 0 ? max_ : 0.0; }

 private:
  std::int64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Log-spaced histogram for heavy-tailed byte quantities. Values below the
/// first bucket edge land in bucket 0; values past the last edge in the
/// overflow bucket.
class LogHistogram {
 public:
  /// Buckets: [0, base), [base, base*growth), ... `bucket_count` buckets.
  LogHistogram(double base, double growth, std::size_t bucket_count);

  void add(double value);

  [[nodiscard]] std::int64_t total_count() const { return total_; }
  [[nodiscard]] double quantile(double q) const;
  [[nodiscard]] std::string to_string() const;

 private:
  double base_;
  double growth_;
  std::vector<std::int64_t> buckets_;
  std::int64_t total_ = 0;

  [[nodiscard]] double bucket_upper_edge(std::size_t i) const;
};

/// Exact-quantile helper for modest sample counts (sorts on demand).
///
/// Bounded mode: set_stride(k) switches add_tagged() to deterministic
/// stride decimation — a sample is retained iff its tag is a multiple of
/// k. Because the decision depends only on the tag (a global sample index
/// the caller assigns, e.g. trace position), sharded producers that each
/// call add_tagged with their own subset of tags retain exactly the
/// samples a single stream would have, so merged percentiles reproduce the
/// single-stream bounded percentiles bit-for-bit at any shard count. The
/// plain add() path stays exact and is untouched by the stride.
class QuantileSketch {
 public:
  void add(double v) { values_.push_back(v); }
  /// Retain every stride-th tag (1 = keep all). The caller derives the
  /// stride globally — e.g. max(1, total_samples / cap) — so all shards
  /// agree on the selection.
  void set_stride(std::int64_t stride) { stride_ = stride < 1 ? 1 : stride; }
  [[nodiscard]] std::int64_t stride() const { return stride_; }
  /// add() gated by the decimation stride; `tag` is the sample's global
  /// index. Keeps tag 0, stride, 2*stride, ...
  void add_tagged(double v, std::int64_t tag) {
    if (stride_ <= 1 || tag % stride_ == 0) values_.push_back(v);
  }
  /// Pre-sizes the sample buffer (the replay engines know the query count
  /// up front, so the hot loop never pays a reallocation).
  void reserve(std::size_t n) { values_.reserve(n); }
  /// Appends `other`'s samples. Quantiles are order-invariant (the sketch
  /// sorts on demand), so folding per-shard sketches in any deterministic
  /// order reproduces the single-stream percentiles exactly.
  void merge(const QuantileSketch& other) {
    values_.insert(values_.end(), other.values_.begin(),
                   other.values_.end());
  }
  [[nodiscard]] double quantile(double q) const;
  [[nodiscard]] std::size_t size() const { return values_.size(); }

 private:
  mutable std::vector<double> values_;
  std::int64_t stride_ = 1;
};

}  // namespace delta::util
