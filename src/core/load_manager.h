// LoadManager (paper Fig. 6): decides, in the background of a shipped
// query, whether loading the query's missing objects would pay off.
//
// The bypass-caching rule (Malik et al., ICDE'05) says: keep shipping
// queries for an object until the shipped cost reaches the object's load
// cost, then load. The paper implements the rule *without per-object
// counters* by randomized attribution: the query's cost ν(q) is walked over
// its missing objects in random order; an object whose load cost fits
// entirely in the remaining budget becomes a candidate outright, otherwise
// it becomes one with probability c/l(o) — so in expectation an object is
// proposed exactly once per l(o) bytes of shipped-query demand.
// Candidates are then admitted/evicted by the lazy object-caching policy.
//
// A counter-based exact variant is provided for ablation A3.
#pragma once

#include <algorithm>
#include <vector>

#include "cache/eviction_policy.h"
#include "util/check.h"
#include "util/rng.h"
#include "util/types.h"
#include "workload/events.h"

namespace delta::core {

class LoadManager {
 public:
  struct Options {
    /// Exact per-object counters (default) vs the paper's randomized
    /// attribution. Both implement the bypass rule; the randomized variant
    /// saves per-object counter state but only matches the rule in
    /// expectation — on workloads with many objects whose total demand is
    /// close to their load cost it adds variance-driven load traffic
    /// (quantified in ablation A3).
    bool randomized = false;
    /// Lazy batch admission (paper) vs eager per-candidate admission.
    bool lazy = true;
  };

  /// Counter mode keeps one counter per object id in [0, object_count);
  /// randomized mode keeps none.
  LoadManager(Options options, util::Rng rng, std::size_t object_count)
      : options_(options),
        rng_(rng),
        counters_(options.randomized ? 0 : object_count, 0.0) {}

  /// Runs the attribution walk over the query's missing objects (shuffled
  /// in place) and returns the proposed load candidates. In lazy mode the
  /// caller hands the whole batch to the eviction policy at once; in eager
  /// mode it applies each candidate as its own single-element batch. The
  /// returned reference points at reused scratch, valid until the next
  /// consider() call (keeps the per-query replay path allocation-free).
  template <typename SizeFn, typename CostFn>
  const std::vector<cache::LoadCandidate>& consider(
      const workload::Query& q, std::vector<ObjectId>& missing,
      SizeFn&& size_of, CostFn&& load_cost_of) {
    std::vector<cache::LoadCandidate>& candidates = candidates_;
    candidates.clear();
    rng_.shuffle(missing);
    double budget = q.cost.as_double();
    for (const ObjectId o : missing) {
      if (budget <= 0.0) break;
      const Bytes load_cost = load_cost_of(o);
      const double l = load_cost.as_double();
      bool propose = false;
      if (options_.randomized) {
        if (budget >= l) {
          propose = true;
          budget -= l;
        } else {
          propose = rng_.bernoulli(budget / l);
          budget = 0.0;
        }
      } else {
        // Exact counters: accumulate the attributed share; propose once the
        // accumulated shipped cost covers the load cost.
        const double share = std::min(budget, l);
        budget -= share;
        double& counter = counters_[counter_slot(o)];
        counter += share;
        if (counter >= l) {
          propose = true;
          counter = 0.0;
        }
      }
      if (propose) {
        candidates.push_back(cache::LoadCandidate{o, size_of(o), load_cost});
      }
    }
    return candidates;
  }

  [[nodiscard]] const Options& options() const { return options_; }

  /// Counter-mode bookkeeping dropped when an object is loaded or evicted.
  void forget(ObjectId o) {
    if (!options_.randomized) counters_[counter_slot(o)] = 0.0;
  }

  /// Crash-stop wipe (ISSUE 10): the partial-attribution counters are
  /// in-memory soft state and die with the process. The RNG keeps its
  /// stream (randomized mode draws stay a deterministic function of the
  /// pre-crash draw count — the crash does not reseed the experiment).
  void clear() { std::fill(counters_.begin(), counters_.end(), 0.0); }

 private:
  Options options_;
  util::Rng rng_;
  std::vector<double> counters_;  // by ObjectId, counter mode only

  [[nodiscard]] std::size_t counter_slot(ObjectId o) const {
    const auto i = static_cast<std::size_t>(o.value());
    DELTA_CHECK_MSG(i < counters_.size(),
                    "object " << o.value() << " out of range");
    return i;
  }
  std::vector<cache::LoadCandidate> candidates_;  // consider() scratch
};

}  // namespace delta::core
