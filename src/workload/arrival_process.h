// Open-loop arrival processes: the inter-arrival schedules that replace
// the replay engines' closed-loop pacing when the simulation drives the
// middleware at a production arrival rate instead of one-query-in-flight
// per cache.
//
// The process assigns each merged trace event an absolute arrival instant;
// the trace's relative event ORDER is untouched (updates still interleave
// with queries at the same sequence points), only its pacing is replaced.
// Three classic shapes:
//   * poisson — memoryless arrivals at a constant mean rate; the default
//     saturation workload.
//   * bursty  — geometric trains of closely spaced arrivals separated by
//     long gaps, same long-run mean rate; stresses queueing at the server
//     uplink far harder than Poisson at the same rate.
//   * diurnal — a sinusoidally modulated Poisson process (peak/trough
//     pattern of a day compressed to kDiurnalPeriodSeconds), so a run sweeps
//     through under- and over-saturated regimes deterministically.
//
// Determinism: the schedule is a pure function of (kind, rate, seed) via
// util::Rng, and the engine generates it once on the calling thread into
// the shared decoded stream — every partition sees the identical tape, so
// results stay bit-identical for any thread count.
#pragma once

#include <cstdint>
#include <string>

#include "util/rng.h"

namespace delta::workload {

/// Simulated seconds of one diurnal peak/trough cycle.
inline constexpr double kDiurnalPeriodSeconds = 10.0;

class ArrivalProcess {
 public:
  enum class Kind : std::uint8_t { kPoisson, kBursty, kDiurnal };

  /// Parses "poisson" | "bursty" | "diurnal" (checked failure otherwise).
  static Kind parse_kind(const std::string& name);
  [[nodiscard]] static const char* kind_name(Kind kind);

  /// `rate_per_sec` is the long-run mean arrival rate of the merged event
  /// stream.
  ArrivalProcess(Kind kind, double rate_per_sec, std::uint64_t seed);

  /// Absolute arrival instant of the next event (nondecreasing).
  double next();

 private:
  Kind kind_;
  double rate_;
  util::Rng rng_;
  double clock_ = 0.0;
  std::int64_t burst_left_ = 0;  // bursty: arrivals left in current train
};

}  // namespace delta::workload
