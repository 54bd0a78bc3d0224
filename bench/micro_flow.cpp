// Micro benchmark A6: the incremental max-flow claim. The paper argues that
// maintaining the flow incrementally across cover computations costs
// O(nm^2) total — one full computation — versus O(n^2 m^2) for recomputing
// from scratch at every query (§4). This benchmark grows a bipartite
// interaction graph query by query and compares:
//   * the incremental cover solver (reuse the previous flow),
//   * from-scratch Dinic per step.
// BM_DisjointComponents checks the solver's locality: with K disjoint
// remembered (update, shipped query) pairs in the graph, one more decision
// should cost the same whatever K is.
#include <benchmark/benchmark.h>

#include "flow/bipartite_cover.h"
#include "flow/dinic.h"
#include "util/rng.h"

namespace {

using namespace delta;
using delta::flow::BipartiteCoverSolver;

/// Deterministic stream of (query weight, update targets) steps.
struct Step {
  flow::Capacity weight;
  std::vector<std::size_t> updates;  // indices of groups the query needs
};

std::vector<Step> make_steps(std::size_t queries, std::size_t updates,
                             std::uint64_t seed) {
  util::Rng rng{seed};
  std::vector<Step> steps;
  steps.reserve(queries);
  for (std::size_t i = 0; i < queries; ++i) {
    Step s;
    s.weight = rng.uniform_int(1, 100);
    const auto degree = rng.uniform_int(1, 3);
    for (std::int64_t d = 0; d < degree; ++d) {
      s.updates.push_back(static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(updates) - 1)));
    }
    steps.push_back(std::move(s));
  }
  return steps;
}

void BM_IncrementalCover(benchmark::State& state) {
  const auto queries = static_cast<std::size_t>(state.range(0));
  const std::size_t updates = queries / 4 + 1;
  const auto steps = make_steps(queries, updates, 42);
  std::int64_t total_bfs = 0;
  for (auto _ : state) {
    BipartiteCoverSolver solver;
    std::vector<BipartiteCoverSolver::UpdateNode> unodes;
    for (std::size_t u = 0; u < updates; ++u) {
      unodes.push_back(solver.add_update(50));
    }
    for (const Step& s : steps) {
      const auto q = solver.add_query(s.weight);
      for (const std::size_t u : s.updates) {
        if (solver.alive(unodes[u])) solver.connect(unodes[u], q);
      }
      const auto cover = solver.compute();
      benchmark::DoNotOptimize(cover.weight);
    }
    total_bfs += solver.bfs_count();
  }
  state.counters["bfs_per_query"] =
      static_cast<double>(total_bfs) /
      static_cast<double>(state.iterations() * queries);
}
BENCHMARK(BM_IncrementalCover)->Arg(64)->Arg(256)->Arg(1024);

void BM_ScratchDinic(benchmark::State& state) {
  const auto queries = static_cast<std::size_t>(state.range(0));
  const std::size_t updates = queries / 4 + 1;
  const auto steps = make_steps(queries, updates, 42);
  for (auto _ : state) {
    BipartiteCoverSolver solver;
    std::vector<BipartiteCoverSolver::UpdateNode> unodes;
    for (std::size_t u = 0; u < updates; ++u) {
      unodes.push_back(solver.add_update(50));
    }
    for (const Step& s : steps) {
      const auto q = solver.add_query(s.weight);
      for (const std::size_t u : s.updates) {
        solver.connect(unodes[u], q);
      }
      flow::FlowNetwork scratch = solver.network().zero_flow_copy();
      benchmark::DoNotOptimize(flow::max_flow_dinic(scratch, 0, 1));
    }
  }
}
BENCHMARK(BM_ScratchDinic)->Arg(64)->Arg(256)->Arg(1024);

// One decision against a remainder graph of K disjoint remembered pairs:
// add an (update, query) pair, compute the cover, then remove the pair so
// the graph stays at K. Time per iteration is ns per compute (plus the
// O(1) add/remove around it) and should stay flat in K.
void BM_DisjointComponents(benchmark::State& state) {
  const auto k = static_cast<std::size_t>(state.range(0));
  BipartiteCoverSolver solver;
  for (std::size_t i = 0; i < k; ++i) {
    const auto u = solver.add_update(10);
    solver.connect(u, solver.add_query(4));  // cheaper: q ships, u stays
  }
  benchmark::DoNotOptimize(solver.compute().weight);
  const std::int64_t scanned_before = solver.vertices_scanned();
  for (auto _ : state) {
    const auto u = solver.add_update(10);
    const auto q = solver.add_query(4);
    solver.connect(u, q);
    benchmark::DoNotOptimize(solver.compute().weight);
    solver.remove_update(u);
    solver.remove_query(q);
  }
  state.counters["vertices_per_compute"] =
      static_cast<double>(solver.vertices_scanned() - scanned_before) /
      static_cast<double>(state.iterations());
}
BENCHMARK(BM_DisjointComponents)->Arg(16)->Arg(1024)->Arg(16384);

}  // namespace

BENCHMARK_MAIN();
