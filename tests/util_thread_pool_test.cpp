#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/thread_pool.h"

namespace delta::util {
namespace {

TEST(ThreadPoolTest, HardwareThreadsIsAtLeastOne) {
  EXPECT_GE(ThreadPool::hardware_threads(), 1u);
}

TEST(LptAssignmentTest, IsADeterministicExactPartition) {
  const std::vector<double> weights{5.0, 1.0, 3.0, 3.0, 0.0, 8.0, 2.0};
  for (const std::size_t workers : {1u, 2u, 3u, 8u, 16u}) {
    const auto assignment = lpt_assignment(weights, workers);
    ASSERT_EQ(assignment.size(), workers);
    std::vector<int> hits(weights.size(), 0);
    for (const auto& jobs : assignment) {
      for (const std::size_t j : jobs) {
        ASSERT_LT(j, weights.size());
        ++hits[j];
      }
      // Owner pops front: each worker's list is heaviest-first.
      for (std::size_t k = 1; k < jobs.size(); ++k) {
        EXPECT_GE(weights[jobs[k - 1]], weights[jobs[k]]);
      }
    }
    for (std::size_t j = 0; j < weights.size(); ++j) {
      EXPECT_EQ(hits[j], 1) << "job " << j << " workers " << workers;
    }
    EXPECT_EQ(assignment, lpt_assignment(weights, workers));
  }
}

TEST(LptAssignmentTest, MakespanIsWithinTheGreedyBound) {
  // LPT guarantee: max worker load <= mean load + heaviest job. Checked
  // over a skewed profile at several worker counts.
  std::vector<double> weights;
  double total = 0.0;
  double heaviest = 0.0;
  for (std::size_t j = 0; j < 64; ++j) {
    weights.push_back(1000.0 / static_cast<double>(j + 1));
    total += weights.back();
    heaviest = std::max(heaviest, weights.back());
  }
  for (const std::size_t workers : {2u, 4u, 7u, 16u}) {
    const auto assignment = lpt_assignment(weights, workers);
    double makespan = 0.0;
    for (const auto& jobs : assignment) {
      double load = 0.0;
      for (const std::size_t j : jobs) load += weights[j];
      makespan = std::max(makespan, load);
    }
    EXPECT_LE(makespan,
              total / static_cast<double>(workers) + heaviest + 1e-9)
        << "workers " << workers;
  }
}

TEST(ParallelForDynamicTest, CoversEveryIndexExactlyOnce) {
  const std::vector<double> weights{3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0,
                                    5.0, 3.0, 5.0, 8.0, 9.0, 7.0, 9.0, 3.0};
  for (const std::size_t workers : {1u, 2u, 4u, 8u}) {
    std::vector<std::atomic<int>> hits(weights.size());
    parallel_for_dynamic(hits.size(), lpt_assignment(weights, workers),
                         [&hits](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < hits.size(); ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "index " << i << " workers " << workers;
    }
  }
}

TEST(ParallelForDynamicTest, StealsWhenOneOwnerHoldsEveryJob) {
  // Seed all jobs on worker 0 and have its first job block until another
  // job has run. Only a thief (workers 1..3 scanning worker 0's deque from
  // the back) can run that other job, so the returned steal count must be
  // positive — and the blocked owner proves stealing is what makes a
  // straggler stop serializing the join.
  constexpr std::size_t kJobs = 16;
  std::vector<std::vector<std::size_t>> assignment(4);
  for (std::size_t j = 0; j < kJobs; ++j) assignment[0].push_back(j);
  std::atomic<int> others_ran{0};
  const std::int64_t steals =
      parallel_for_dynamic(kJobs, assignment, [&others_ran](std::size_t i) {
        if (i == 0) {
          while (others_ran.load() == 0) std::this_thread::yield();
        } else {
          others_ran.fetch_add(1);
        }
      });
  EXPECT_GE(steals, 1);
  EXPECT_EQ(others_ran.load(), static_cast<int>(kJobs) - 1);
}

TEST(ParallelForDynamicTest, WaitsForAllJobsThenRethrowsFirstByIndex) {
  const std::vector<double> weights(16, 1.0);
  std::atomic<int> completed{0};
  const auto run = [&completed, &weights] {
    parallel_for_dynamic(16, lpt_assignment(weights, 4),
                         [&completed](std::size_t i) {
                           if (i == 3) throw std::runtime_error{"job 3"};
                           if (i == 11) throw std::runtime_error{"job 11"};
                           completed.fetch_add(1);
                         });
  };
  try {
    run();
    FAIL() << "expected rethrow";
  } catch (const std::runtime_error& e) {
    // Lowest-index error wins regardless of which worker hit it first.
    EXPECT_STREQ(e.what(), "job 3");
  }
  EXPECT_EQ(completed.load(), 14);
}

TEST(ParallelForDynamicTest, SingleWorkerRunsInlineAscending) {
  const std::vector<double> weights{1.0, 5.0, 2.0};
  std::vector<std::size_t> order;
  const std::int64_t steals = parallel_for_dynamic(
      3, lpt_assignment(weights, 1),
      [&order](std::size_t i) { order.push_back(i); });
  EXPECT_EQ(steals, 0);
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2}));
}

TEST(ParallelForDynamicTest, ZeroJobsIsANoOp) {
  EXPECT_EQ(parallel_for_dynamic(0, {}, [](std::size_t) { FAIL(); }), 0);
}

TEST(ParallelForDynamicTest, RejectsAnAssignmentThatIsNotAPartition) {
  // Job 1 assigned twice, job 2 never: both violations are checked.
  EXPECT_THROW(
      parallel_for_dynamic(3, {{0, 1}, {1}}, [](std::size_t) {}),
      std::logic_error);
  EXPECT_THROW(parallel_for_dynamic(3, {{0, 1}}, [](std::size_t) {}),
               std::logic_error);
}

TEST(BlockCountTest, OneBlockPerThreadAboveTheFloor) {
  EXPECT_EQ(block_count(0, 4), 1u);
  EXPECT_EQ(block_count(kMinBlockItems - 1, 4), 1u);
  EXPECT_EQ(block_count(2 * kMinBlockItems, 4), 2u);
  EXPECT_EQ(block_count(100 * kMinBlockItems, 4), 4u);
  EXPECT_EQ(block_count(100 * kMinBlockItems, 1), 1u);
}

TEST(ParallelForBlocksTest, BlocksTileTheRangeInOrder) {
  for (const std::size_t items : {0u, 1u, 5u, 7u, 64u, 1000u}) {
    for (std::size_t blocks = 1; blocks <= 9; ++blocks) {
      std::vector<std::size_t> begins(blocks);
      std::vector<std::size_t> ends(blocks);
      parallel_for_blocks(items, blocks,
                          [&](std::size_t b, std::size_t begin,
                              std::size_t end) {
                            begins[b] = begin;
                            ends[b] = end;
                          });
      SCOPED_TRACE(::testing::Message()
                   << "items " << items << " blocks " << blocks);
      EXPECT_EQ(begins.front(), 0u);
      EXPECT_EQ(ends.back(), items);
      for (std::size_t b = 0; b < blocks; ++b) {
        EXPECT_LE(begins[b], ends[b]);
        // Near-equal: no block is more than one item longer than another.
        EXPECT_LE(ends[b] - begins[b], items / blocks + 1);
        if (b > 0) {
          EXPECT_EQ(begins[b], ends[b - 1]);
        }
      }
    }
  }
}

TEST(ParallelForBlocksTest, OneBlockRunsOnTheCallingThread) {
  const std::thread::id caller = std::this_thread::get_id();
  std::thread::id ran;
  parallel_for_blocks(10, 1, [&ran](std::size_t, std::size_t, std::size_t) {
    ran = std::this_thread::get_id();
  });
  EXPECT_EQ(ran, caller);
}

TEST(ParallelForBlocksTest, RethrowsTheFirstErrorByBlock) {
  std::atomic<int> completed{0};
  try {
    parallel_for_blocks(80, 8,
                        [&completed](std::size_t b, std::size_t,
                                     std::size_t) {
                          if (b == 6) throw std::runtime_error{"block 6"};
                          if (b == 2) throw std::runtime_error{"block 2"};
                          completed.fetch_add(1);
                        });
    FAIL() << "expected rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "block 2");
  }
  EXPECT_EQ(completed.load(), 6);
}

}  // namespace
}  // namespace delta::util
