#include "net/traffic_meter.h"

#include <sstream>

#include "util/check.h"
#include "util/format.h"

namespace delta::net {

// Relaxed ordering throughout: the counters are pure accumulators with no
// inter-variable invariants to publish; cross-thread visibility at read
// time is provided by the engine's join/merge barrier. record() lives in
// the header (hot path).

TrafficMeter::TrafficMeter(const TrafficMeter& other) { *this = other; }

TrafficMeter& TrafficMeter::operator=(const TrafficMeter& other) {
  for (std::size_t i = 0; i < kMechanismCount; ++i) {
    totals_[i].store(other.totals_[i].load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
    counts_[i].store(other.counts_[i].load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
  }
  return *this;
}

std::int64_t TrafficMeter::message_count(Mechanism mechanism) const {
  return counts_[static_cast<std::size_t>(mechanism)].load(
      std::memory_order_relaxed);
}

void TrafficMeter::reset() {
  for (std::size_t i = 0; i < kMechanismCount; ++i) {
    totals_[i].store(0, std::memory_order_relaxed);
    counts_[i].store(0, std::memory_order_relaxed);
  }
}

TrafficMeter& TrafficMeter::merge(const TrafficMeter& other) {
  for (std::size_t i = 0; i < kMechanismCount; ++i) {
    totals_[i].store(totals_[i].load(std::memory_order_relaxed) +
                         other.totals_[i].load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
    counts_[i].store(counts_[i].load(std::memory_order_relaxed) +
                         other.counts_[i].load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
  }
  return *this;
}

std::string TrafficMeter::summary() const {
  std::ostringstream os;
  for (std::size_t i = 0; i < kMechanismCount; ++i) {
    if (i > 0) os << ", ";
    os << to_string(static_cast<Mechanism>(i)) << "="
       << util::human_bytes(total(static_cast<Mechanism>(i))) << " ("
       << message_count(static_cast<Mechanism>(i)) << " msgs)";
  }
  os << ", figure_total=" << util::human_bytes(figure_total());
  return os.str();
}

}  // namespace delta::net
