#include "workload/arrival_process.h"

#include <cmath>

#include "util/check.h"

namespace delta::workload {

namespace {

/// Bursty-shape constants: trains of mean kBurstMean arrivals whose intra-
/// train gaps are kIntraFactor times shorter than the mean inter-arrival
/// time. The inter-train gap absorbs the remainder so the long-run mean
/// rate stays exactly `rate`:
///   E[train span] = (B-1) * f/rate + g  and  E[events]/E[span] = rate
///   => g = (B - (B-1) * f) / rate.
constexpr double kBurstMean = 8.0;
constexpr double kIntraFactor = 0.1;

}  // namespace

ArrivalProcess::Kind ArrivalProcess::parse_kind(const std::string& name) {
  if (name == "poisson") return Kind::kPoisson;
  if (name == "bursty") return Kind::kBursty;
  if (name == "diurnal") return Kind::kDiurnal;
  DELTA_CHECK_MSG(false, "unknown arrival process '"
                             << name
                             << "' (poisson | bursty | diurnal)");
  return Kind::kPoisson;
}

const char* ArrivalProcess::kind_name(Kind kind) {
  switch (kind) {
    case Kind::kPoisson:
      return "poisson";
    case Kind::kBursty:
      return "bursty";
    case Kind::kDiurnal:
      return "diurnal";
  }
  return "?";
}

ArrivalProcess::ArrivalProcess(Kind kind, double rate_per_sec,
                               std::uint64_t seed)
    : kind_(kind), rate_(rate_per_sec), rng_(seed) {
  DELTA_CHECK(rate_per_sec > 0.0);
}

double ArrivalProcess::next() {
  const double mean_gap = 1.0 / rate_;
  switch (kind_) {
    case Kind::kPoisson:
      clock_ += rng_.exponential(mean_gap);
      break;
    case Kind::kBursty: {
      if (burst_left_ > 0) {
        --burst_left_;
        clock_ += rng_.exponential(kIntraFactor * mean_gap);
      } else {
        // Start a new train: a geometric(mean kBurstMean) number of
        // arrivals, the first preceded by the long inter-train gap.
        burst_left_ = 0;
        while (rng_.next_double() > 1.0 / kBurstMean) ++burst_left_;
        const double inter_gap =
            (kBurstMean - (kBurstMean - 1.0) * kIntraFactor) * mean_gap;
        clock_ += rng_.exponential(inter_gap);
      }
      break;
    }
    case Kind::kDiurnal: {
      // Sinusoidally modulated Poisson, by rate-rescaling the exponential
      // gap with the instantaneous rate at the current clock. Piecewise
      // approximation (rate treated constant across one gap) — standard
      // for DES workload generators and exactly reproducible.
      constexpr double kAmplitude = 0.8;
      const double phase =
          2.0 * 3.14159265358979323846 * clock_ / kDiurnalPeriodSeconds;
      const double instantaneous =
          rate_ * (1.0 + kAmplitude * std::sin(phase));
      clock_ += rng_.exponential(1.0 / instantaneous);
      break;
    }
  }
  return clock_;
}

}  // namespace delta::workload
