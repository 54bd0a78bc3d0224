// Thread-level parallelism for the parallel simulation engine: LPT
// packing of weighted jobs onto workers, a work-stealing parallel loop
// that runs each worker on its own std::thread for the duration of one
// call (no long-lived pool), and the contiguous-block loop the trace split
// and decode passes run on.
//
// Design constraints, in order: (1) deterministic callers — the loop runs
// opaque jobs and reports exceptions by job index, it never reorders
// results for the caller; (2) sanitizer-clean — plain mutex-protected
// deques, no lock-free cleverness; (3) zero dependencies beyond the
// standard library.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

namespace delta::util {

/// The host's thread budget. No pool object exists: parallel_for_dynamic
/// starts its workers per call.
struct ThreadPool {
  /// std::thread::hardware_concurrency with a floor of 1 (the standard
  /// allows it to report 0): the default worker count.
  [[nodiscard]] static std::size_t hardware_threads();
};

/// Longest-processing-time-first bin packing: places jobs 0..weights-1
/// onto `worker_count` workers, heaviest job first onto the currently
/// lightest worker (ties — equal weights or equal loads — resolve to the
/// lower index, so the packing is a pure function of the weights). Returns
/// one job list per worker, each in descending weight order: exactly the
/// shape parallel_for_dynamic seeds its deques from. The classic greedy
/// 4/3-approximation of minimum makespan.
[[nodiscard]] std::vector<std::vector<std::size_t>> lpt_assignment(
    const std::vector<double>& weights, std::size_t worker_count);

/// Work-stealing parallel loop: runs jobs 0..job_count-1 by calling
/// `job(index)`, one worker per `assignment` entry. `assignment` gives each
/// worker its initial job queue (the lists must exactly partition
/// [0, job_count), checked). Every worker drains its own deque front first
/// — preserving the seeded (LPT) order — and, once empty, steals from the
/// BACK of the first non-empty victim, so a straggler's lightest pending
/// jobs migrate while its owner keeps the heavy front work. Jobs never
/// spawn jobs, so a worker that finds every deque empty can retire
/// immediately — no termination protocol beyond the join. The per-job
/// lock cost is irrelevant against coarse jobs like partition replays.
/// Every job still runs when one throws, and the first error by job index
/// is rethrown after the join, so no job runs concurrently with the
/// caller's post-loop code. With <= 1 worker (or <= 1 job) everything runs
/// inline on the calling thread in ascending index order. Returns the
/// number of jobs executed by a thief — the engine's steal_count
/// yardstick.
std::int64_t parallel_for_dynamic(
    std::size_t job_count,
    const std::vector<std::vector<std::size_t>>& assignment,
    const std::function<void(std::size_t)>& job);

/// The shortest block a data-parallel pass over a trace hands one worker:
/// below it, starting a thread costs more than the block's share saves.
inline constexpr std::size_t kMinBlockItems = std::size_t{1} << 15;

/// How many blocks a pass over `items` elements runs as on `threads`
/// workers: min(threads, items / kMinBlockItems), and at least one, so a
/// single thread or a short input never starts a worker.
[[nodiscard]] std::size_t block_count(std::size_t items, std::size_t threads);

/// Splits [0, items) into `blocks` contiguous blocks of near-equal length
/// (block b is [items * b / blocks, items * (b + 1) / blocks); a block may
/// be empty when blocks > items) and calls `block(b, begin, end)` for each,
/// block b on worker b of parallel_for_dynamic. One block runs inline on
/// the calling thread. Every block runs when one throws, and the first
/// error by block index is rethrown after the join, so a pass that checks
/// its input in order reports the first bad element.
void parallel_for_blocks(
    std::size_t items, std::size_t blocks,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& block);

}  // namespace delta::util
