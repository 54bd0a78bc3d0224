// Per-link bandwidth/latency parameterization.
//
// The paper minimizes traffic, noting that reduced traffic "naturally
// decreases response times" and that delayed queries can be helped by
// preshipping (§4 Discussion). LinkModel carries the two parameters of a
// directed network path — bandwidth and round-trip time — and is how
// DelayedTransport links are configured: a message entering a link occupies
// it for serialization_seconds (so back-to-back sends queue behind each
// other) and lands one_way_seconds of propagation later. The event-driven
// engine therefore *simulates* latency, staleness and uplink contention
// per message instead of assuming them.
//
// transfer_seconds — the legacy closed-form RTT + bytes/bandwidth proxy —
// is retained only for the single-cache loop's comparable response-time
// yardstick (sim::proxy_response_seconds); new code should configure links
// and read the simulated timestamps instead.
#pragma once

#include "util/check.h"
#include "util/types.h"

namespace delta::net {

class LinkModel {
 public:
  /// Defaults approximate a 2010-era well-provisioned WAN path:
  /// 1 Gbit/s and 40 ms RTT.
  explicit LinkModel(double bandwidth_bytes_per_sec = 125e6,
                     double rtt_seconds = 0.040);

  /// An idealized link: infinite bandwidth, zero RTT. Over such links the
  /// event-driven engine degenerates to synchronous delivery order (the
  /// golden-equivalence configuration).
  [[nodiscard]] static LinkModel zero_latency();

  /// Seconds the link is occupied serializing `size` bytes
  /// (bytes/bandwidth). Inline multiply by the cached reciprocal: this
  /// runs once per scheduled message on the event-engine hot path.
  [[nodiscard]] double serialization_seconds(Bytes size) const {
    DELTA_DCHECK(size.count() >= 0);
    return size.as_double() * inv_bandwidth_;
  }

  /// One-way propagation delay (RTT/2).
  [[nodiscard]] double one_way_seconds() const { return rtt_ / 2.0; }

  /// Legacy analytic proxy: seconds to complete a transfer of the given
  /// size as one round trip plus serialization (linear scaling, valid for
  /// transfers much larger than a frame, per the TCP assumption the paper
  /// cites). Kept for the single-cache loop's response-time yardstick.
  [[nodiscard]] double transfer_seconds(Bytes size) const {
    DELTA_DCHECK(size.count() >= 0);
    return rtt_ + size.as_double() * inv_bandwidth_;
  }

  [[nodiscard]] double bandwidth_bytes_per_sec() const { return bandwidth_; }
  [[nodiscard]] double rtt_seconds() const { return rtt_; }

 private:
  double bandwidth_;
  /// 1/bandwidth (0.0 for an infinite-bandwidth zero-latency link).
  double inv_bandwidth_;
  double rtt_;
};

}  // namespace delta::net
