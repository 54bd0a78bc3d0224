#include "util/thread_pool.h"

#include <algorithm>
#include <deque>
#include <exception>
#include <mutex>
#include <numeric>
#include <queue>
#include <thread>
#include <utility>

#include "util/check.h"

namespace delta::util {

std::size_t ThreadPool::hardware_threads() {
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

std::vector<std::vector<std::size_t>> lpt_assignment(
    const std::vector<double>& weights, std::size_t worker_count) {
  DELTA_CHECK(worker_count > 0);
  std::vector<std::size_t> order(weights.size());
  std::iota(order.begin(), order.end(), 0);
  // Descending weight; stable_sort keeps equal-weight jobs in index order.
  std::stable_sort(order.begin(), order.end(),
                   [&weights](std::size_t a, std::size_t b) {
                     return weights[a] > weights[b];
                   });
  std::vector<std::vector<std::size_t>> assignment(worker_count);
  // Min-heap of (load, worker index): equal loads pop the lower index.
  using Bin = std::pair<double, std::size_t>;
  std::priority_queue<Bin, std::vector<Bin>, std::greater<Bin>> bins;
  for (std::size_t w = 0; w < worker_count; ++w) bins.emplace(0.0, w);
  for (const std::size_t job : order) {
    const auto [load, w] = bins.top();
    bins.pop();
    assignment[w].push_back(job);
    bins.emplace(load + weights[job], w);
  }
  return assignment;
}

std::int64_t parallel_for_dynamic(
    std::size_t job_count,
    const std::vector<std::vector<std::size_t>>& assignment,
    const std::function<void(std::size_t)>& job) {
  DELTA_CHECK(job != nullptr);
  // A worker that is handed a job outside [0, job_count) — or one twice —
  // would silently corrupt the caller's merge, so validate the partition
  // up front (same posture as the engines' routing validation).
  std::vector<std::uint8_t> seen(job_count, 0);
  std::size_t assigned = 0;
  for (const std::vector<std::size_t>& list : assignment) {
    for (const std::size_t i : list) {
      DELTA_CHECK_MSG(i < job_count && seen[i] == 0,
                      "parallel_for_dynamic assignment must partition jobs");
      seen[i] = 1;
      ++assigned;
    }
  }
  DELTA_CHECK_MSG(assigned == job_count,
                  "parallel_for_dynamic assignment must cover every job");
  if (job_count == 0) return 0;

  const std::size_t workers = assignment.size();
  if (workers <= 1 || job_count == 1) {
    for (std::size_t i = 0; i < job_count; ++i) job(i);
    return 0;
  }

  struct WorkerDeque {
    std::mutex mutex;
    std::deque<std::size_t> jobs;
  };
  std::vector<WorkerDeque> deques(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    deques[w].jobs.assign(assignment[w].begin(), assignment[w].end());
  }
  std::vector<std::exception_ptr> errors(job_count);
  std::vector<std::int64_t> steals(workers, 0);

  const auto run_job = [&job, &errors](std::size_t index) {
    try {
      job(index);
    } catch (...) {
      errors[index] = std::current_exception();
    }
  };
  const std::size_t kNone = job_count;  // sentinel: nothing popped
  const auto worker_loop = [&](std::size_t self) {
    for (;;) {
      std::size_t index = kNone;
      {
        const std::lock_guard<std::mutex> lock{deques[self].mutex};
        if (!deques[self].jobs.empty()) {
          index = deques[self].jobs.front();
          deques[self].jobs.pop_front();
        }
      }
      if (index == kNone) {
        // Own deque drained: steal from the first non-empty victim (scan
        // origin rotates with self so thieves spread across victims).
        for (std::size_t k = 1; k < workers && index == kNone; ++k) {
          WorkerDeque& victim = deques[(self + k) % workers];
          const std::lock_guard<std::mutex> lock{victim.mutex};
          if (!victim.jobs.empty()) {
            index = victim.jobs.back();
            victim.jobs.pop_back();
          }
        }
        // Every deque empty: jobs cannot spawn jobs, so no work will ever
        // appear again — retire (in-flight jobs finish on their workers).
        if (index == kNone) return;
        ++steals[self];
      }
      run_job(index);
    }
  };

  // Workers 1..n on their own threads, worker 0 on the calling thread.
  std::vector<std::thread> threads;
  threads.reserve(workers - 1);
  for (std::size_t w = 1; w < workers; ++w) {
    threads.emplace_back(worker_loop, w);
  }
  worker_loop(0);
  for (std::thread& t : threads) t.join();

  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }
  return std::accumulate(steals.begin(), steals.end(), std::int64_t{0});
}

std::size_t block_count(std::size_t items, std::size_t threads) {
  return std::max<std::size_t>(
      1, std::min(threads, items / kMinBlockItems));
}

void parallel_for_blocks(
    std::size_t items, std::size_t blocks,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& block) {
  DELTA_CHECK(blocks > 0);
  DELTA_CHECK(block != nullptr);
  // items * b / blocks, without the product overflowing.
  const auto bound = [items, blocks](std::size_t b) {
    return b * (items / blocks) + b * (items % blocks) / blocks;
  };
  std::vector<std::vector<std::size_t>> assignment(blocks);
  for (std::size_t b = 0; b < blocks; ++b) assignment[b] = {b};
  parallel_for_dynamic(blocks, assignment, [&](std::size_t b) {
    block(b, bound(b), bound(b + 1));
  });
}

}  // namespace delta::util
