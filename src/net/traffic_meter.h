// Per-mechanism network-traffic accounting: the metric every figure in the
// paper's evaluation plots.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <string>

#include "net/message.h"
#include "util/check.h"
#include "util/types.h"

namespace delta::net {

/// The paper's three data-communication mechanisms plus result return.
enum class Mechanism : std::uint8_t {
  kQueryShip = 0,   // query sent to the server + its result bytes
  kUpdateShip = 1,  // update content pushed to the cache
  kObjectLoad = 2,  // whole data objects bulk-copied to the cache
  kOverhead = 3,    // headers / control chatter (not part of figure totals)
};

inline constexpr std::size_t kMechanismCount = 4;

[[nodiscard]] constexpr const char* to_string(Mechanism m) {
  switch (m) {
    case Mechanism::kQueryShip:
      return "query_ship";
    case Mechanism::kUpdateShip:
      return "update_ship";
    case Mechanism::kObjectLoad:
      return "object_load";
    case Mechanism::kOverhead:
      return "overhead";
  }
  return "?";
}

/// Thread-safety contract: single writer, concurrent readers. At most one
/// thread may call record()/reset() on a meter at a time — exactly how the
/// simulation engines use meters (each replica's meters are confined to one
/// worker between the launch and join barriers). Under that contract the
/// counters are written with plain (non-read-modify-write) relaxed atomic
/// stores, so recording costs ordinary loads and stores on the replay hot
/// path; storage stays atomic so a concurrent *reader* (e.g. a progress
/// observer) sees untorn, monotonically-growing values. A consistent
/// snapshot across mechanisms (the warm-up boundary captures in sim/)
/// additionally requires writer quiescence, which the engines' barriers
/// provide. Totals over concurrent writers to the SAME meter are NOT exact
/// — give each writer its own meter and fold after the barrier, as the
/// parallel engine does (tests/net_test.cpp pins this model).
class TrafficMeter {
 public:
  TrafficMeter() = default;
  // Copies are snapshots: meters are copied only while quiescent
  // (warm-up snapshots, merge-time folding), never mid-record.
  TrafficMeter(const TrafficMeter& other);
  TrafficMeter& operator=(const TrafficMeter& other);

  /// Inline: this is the single hottest call in the replay loop (two per
  /// delivered message, into the destination end's meter).
  void record(Mechanism mechanism, Bytes bytes) {
    DELTA_CHECK(bytes.count() >= 0);
    const auto i = static_cast<std::size_t>(mechanism);
    // Single-writer contract: load+store, not fetch_add (see class docs).
    totals_[i].store(totals_[i].load(std::memory_order_relaxed) +
                         bytes.count(),
                     std::memory_order_relaxed);
    counts_[i].store(counts_[i].load(std::memory_order_relaxed) + 1,
                     std::memory_order_relaxed);
  }

  [[nodiscard]] Bytes total(Mechanism mechanism) const {
    return Bytes{totals_[static_cast<std::size_t>(mechanism)].load(
        std::memory_order_relaxed)};
  }

  /// Figure total: query shipping + update shipping + object loading
  /// (overhead excluded, as in the paper's cost model). Inline: the replay
  /// loops read it once per meter per trace event for the cumulative
  /// series.
  [[nodiscard]] Bytes figure_total() const {
    return Bytes{totals_[0].load(std::memory_order_relaxed) +
                 totals_[1].load(std::memory_order_relaxed) +
                 totals_[2].load(std::memory_order_relaxed)};
  }

  [[nodiscard]] std::int64_t message_count(Mechanism mechanism) const;

  void reset();

  /// Folds `other`'s bytes and message counts into this meter, mechanism
  /// by mechanism. Both meters must be quiescent (like copies).
  TrafficMeter& merge(const TrafficMeter& other);

  [[nodiscard]] std::string summary() const;

 private:
  std::array<std::atomic<std::int64_t>, kMechanismCount> totals_{};
  std::array<std::atomic<std::int64_t>, kMechanismCount> counts_{};
};

}  // namespace delta::net
