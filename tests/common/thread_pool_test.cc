#include "common/thread_pool.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <numeric>
#include <thread>
#include <vector>

#include "gtest/gtest.h"

namespace jxp {
namespace {

TEST(ThreadPoolTest, SingleThreadRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.num_threads(), 1u);
  std::vector<int> hits(100, 0);
  pool.ParallelFor(0, 100, 7, [&](size_t i) { ++hits[i]; });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPoolTest, EveryIndexVisitedExactlyOnce) {
  for (const size_t threads : {1u, 2u, 3u, 8u}) {
    for (const size_t grain : {1u, 5u, 64u, 1000u}) {
      ThreadPool pool(threads);
      std::vector<std::atomic<int>> hits(513);
      pool.ParallelFor(0, hits.size(), grain, [&](size_t i) { ++hits[i]; });
      for (const auto& h : hits) {
        EXPECT_EQ(h.load(), 1) << "threads=" << threads << " grain=" << grain;
      }
    }
  }
}

TEST(ThreadPoolTest, EmptyRangeIsNoop) {
  ThreadPool pool(4);
  bool called = false;
  pool.ParallelFor(5, 5, 1, [&](size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPoolTest, OffsetRange) {
  ThreadPool pool(3);
  std::atomic<uint64_t> sum{0};
  pool.ParallelFor(10, 20, 3, [&](size_t i) { sum += i; });
  EXPECT_EQ(sum.load(), 10u + 11 + 12 + 13 + 14 + 15 + 16 + 17 + 18 + 19);
}

TEST(ThreadPoolTest, BlockPartitionIndependentOfThreadCount) {
  // The block boundaries seen by the body must depend only on
  // (begin, end, grain) — this is what makes blockwise reductions
  // bit-reproducible at any thread count.
  using Block = std::tuple<size_t, size_t, size_t>;
  auto collect = [](size_t threads) {
    ThreadPool pool(threads);
    std::mutex mu;
    std::vector<Block> blocks;
    pool.ParallelForBlocks(3, 1003, 64, [&](size_t b, size_t e, size_t idx) {
      std::lock_guard<std::mutex> lock(mu);
      blocks.emplace_back(b, e, idx);
    });
    std::sort(blocks.begin(), blocks.end(),
              [](const Block& a, const Block& b) { return std::get<2>(a) < std::get<2>(b); });
    return blocks;
  };
  const auto one = collect(1);
  EXPECT_EQ(one, collect(2));
  EXPECT_EQ(one, collect(5));
  EXPECT_EQ(one, collect(8));
  // Fixed partition: block i covers [3 + 64 i, min(1003, 3 + 64 (i+1))).
  ASSERT_EQ(one.size(), 16u);
  EXPECT_EQ(std::get<0>(one.front()), 3u);
  EXPECT_EQ(std::get<1>(one.back()), 1003u);
}

TEST(ThreadPoolTest, BlockwiseReductionIsBitReproducible) {
  // A reduction that accumulates per block and combines partials in block
  // order must give bit-identical results at every thread count.
  const size_t n = 10000;
  std::vector<double> values(n);
  for (size_t i = 0; i < n; ++i) values[i] = 1.0 / static_cast<double>(i + 3);
  auto reduce = [&](size_t threads) {
    ThreadPool pool(threads);
    const size_t grain = 128;
    std::vector<double> partial((n + grain - 1) / grain, 0.0);
    pool.ParallelForBlocks(0, n, grain, [&](size_t b, size_t e, size_t idx) {
      double s = 0;
      for (size_t i = b; i < e; ++i) s += values[i];
      partial[idx] = s;
    });
    double sum = 0;
    for (double p : partial) sum += p;
    return sum;
  };
  const double expected = reduce(1);
  EXPECT_EQ(expected, reduce(2));
  EXPECT_EQ(expected, reduce(8));
}

TEST(ThreadPoolTest, ReusableAcrossManyLaunches) {
  ThreadPool pool(4);
  for (int rep = 0; rep < 200; ++rep) {
    std::atomic<int> count{0};
    pool.ParallelFor(0, 64, 4, [&](size_t) { ++count; });
    ASSERT_EQ(count.load(), 64);
  }
}

TEST(ThreadPoolTest, SlowBlockDoesNotHoldQueuedBlocks) {
  // Block 0 waits for blocks 1-3. Workers claim blocks as they free up, so
  // the other thread runs all three; with blocks tied to worker b % 2,
  // block 2 would queue behind block 0 and the wait would time out.
  ThreadPool pool(2);
  std::mutex mu;
  std::condition_variable cv;
  size_t others_done = 0;
  bool block0_saw_others = false;
  pool.ParallelFor(0, 4, 1, [&](size_t i) {
    std::unique_lock<std::mutex> lock(mu);
    if (i == 0) {
      block0_saw_others =
          cv.wait_for(lock, std::chrono::seconds(5), [&] { return others_done == 3; });
    } else if (++others_done == 3) {
      cv.notify_all();
    }
  });
  EXPECT_TRUE(block0_saw_others);
  EXPECT_EQ(others_done, 3u);
}

TEST(ThreadPoolTest, OverlappingLaunchAborts) {
  // A second multi-block launch while one is in flight would reset the
  // shared block counter under the first; the pool aborts instead. The
  // threadsafe style re-executes the test binary, so the pool's threads
  // are not forked mid-flight (and TSan accepts it).
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        ThreadPool pool(2);
        pool.ParallelFor(0, 2, 1, [&](size_t) {
          pool.ParallelFor(0, 4, 1, [](size_t) {});
        });
      },
      "nested or concurrent ParallelFor");
  EXPECT_DEATH(
      {
        ThreadPool pool(2);
        std::atomic<bool> running{false};
        std::thread launcher([&] {
          pool.ParallelFor(0, 2, 1, [&](size_t) {
            running = true;
            std::this_thread::sleep_for(std::chrono::seconds(10));
          });
        });
        while (!running) std::this_thread::yield();
        pool.ParallelFor(0, 4, 1, [](size_t) {});
        launcher.join();
      },
      "nested or concurrent ParallelFor");
}

}  // namespace
}  // namespace jxp
