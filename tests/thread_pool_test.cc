#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <vector>

#if defined(__linux__)
#include <sched.h>
#endif

namespace tycos {
namespace {

TEST(ThreadPoolTest, ResolveThreadCountPassesExplicitValues) {
  EXPECT_EQ(ThreadPool::ResolveThreadCount(1), 1);
  EXPECT_EQ(ThreadPool::ResolveThreadCount(8), 8);
}

TEST(ThreadPoolTest, ResolveThreadCountAutoIsAtLeastOne) {
  EXPECT_GE(ThreadPool::ResolveThreadCount(0), 1);
  EXPECT_GE(ThreadPool::ResolveThreadCount(-3), 1);
}

TEST(ThreadPoolTest, ResolveNestedThreadCountCapsTheProduct) {
  const unsigned raw = std::thread::hardware_concurrency();
  const int hw = raw > 0 ? static_cast<int>(raw) : 1;
  // The nested width never pushes outer × inner past the hardware width,
  // whatever the caller asked for (including auto = 0).
  for (int outer : {1, 2, hw, 2 * hw}) {
    for (int requested : {0, 1, 2, 64}) {
      const int inner =
          ThreadPool::ResolveNestedThreadCount(requested, outer);
      EXPECT_GE(inner, 1) << "outer=" << outer << " req=" << requested;
      if (outer <= hw) {
        EXPECT_LE(outer * inner, std::max(outer, hw))
            << "outer=" << outer << " req=" << requested;
      } else {
        // Already oversubscribed at the outer level: inner collapses to 1.
        EXPECT_EQ(inner, 1) << "outer=" << outer << " req=" << requested;
      }
    }
  }
}

TEST(ThreadPoolTest, ResolveNestedThreadCountHonorsSmallRequests) {
  // An explicit request below the cap is taken as given — the cap only
  // ever shrinks the width.
  EXPECT_EQ(ThreadPool::ResolveNestedThreadCount(1, 1), 1);
  const int plain = ThreadPool::ResolveThreadCount(0);
  EXPECT_LE(ThreadPool::ResolveNestedThreadCount(0, 1), plain);
}

TEST(ThreadPoolTest, SubmitRunsEveryTask) {
  std::atomic<int> done{0};
  std::mutex mu;
  std::condition_variable cv;
  {
    ThreadPool pool(3);
    EXPECT_EQ(pool.num_workers(), 3);
    for (int i = 0; i < 50; ++i) {
      pool.Submit([&] {
        if (done.fetch_add(1) + 1 == 50) cv.notify_one();
      });
    }
    std::unique_lock<std::mutex> lock(mu);
    cv.wait_for(lock, std::chrono::seconds(30),
                [&] { return done.load() == 50; });
  }
  EXPECT_EQ(done.load(), 50);
}

TEST(ThreadPoolTest, DestructorDrainsPendingTasks) {
  std::atomic<int> done{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 100; ++i) {
      pool.Submit([&] { done.fetch_add(1); });
    }
  }  // ~ThreadPool joins after the queue drains
  EXPECT_EQ(done.load(), 100);
}

#if defined(__linux__)
// Placement moves a worker but never pins it: every worker, before and
// after its placement checks, runs under the mask its creator had. The
// creator's mask is narrowed to two CPUs (where there are two) so that
// three workers must share and the moves actually happen.
TEST(ThreadPoolTest, WorkersKeepTheCreatorsAffinityMask) {
  cpu_set_t original;
  CPU_ZERO(&original);
  ASSERT_EQ(sched_getaffinity(0, sizeof(original), &original), 0);
  cpu_set_t creator;
  CPU_ZERO(&creator);
  int kept = 0;
  for (int cpu = 0; cpu < CPU_SETSIZE && kept < 2; ++cpu) {
    if (CPU_ISSET(cpu, &original)) {
      CPU_SET(cpu, &creator);
      ++kept;
    }
  }
  ASSERT_EQ(sched_setaffinity(0, sizeof(creator), &creator), 0);
  std::atomic<int> same{0};
  std::atomic<int> ran{0};
  {
    ThreadPool pool(3);
    for (int i = 0; i < 60; ++i) {
      pool.Submit([&] {
        ThreadPool::SpreadWorker();
        cpu_set_t mask;
        CPU_ZERO(&mask);
        if (sched_getaffinity(0, sizeof(mask), &mask) == 0 &&
            CPU_EQUAL(&mask, &creator)) {
          same.fetch_add(1);
        }
        ran.fetch_add(1);
      });
    }
  }
  ASSERT_EQ(sched_setaffinity(0, sizeof(original), &original), 0);
  EXPECT_EQ(ran.load(), 60);
  EXPECT_EQ(same.load(), 60);
}
#endif

TEST(ThreadPoolTest, SpreadWorkerOutsideAPoolIsANoop) {
  ThreadPool::SpreadWorker();
  ThreadPool pool(2);
  int64_t sum = 0;
  pool.ParallelFor(1, RunContext::None(),
                   [&](int64_t i) -> std::optional<StopReason> {
                     ThreadPool::SpreadWorker();  // the calling thread
                     sum += i + 1;
                     return std::nullopt;
                   });
  EXPECT_EQ(sum, 1);
}

TEST(ThreadPoolTest, ParallelForVisitsEachIndexExactlyOnce) {
  for (int workers : {0, 1, 3, 7}) {
    const int64_t n = 200;
    std::vector<std::atomic<int>> hits(n);
    for (auto& h : hits) h.store(0);
    ThreadPool pool(workers);
    const ThreadPool::ForStatus fs = pool.ParallelFor(
        n, RunContext::None(), [&](int64_t i) -> std::optional<StopReason> {
          hits[static_cast<size_t>(i)].fetch_add(1);
          return std::nullopt;
        });
    EXPECT_EQ(fs.claimed, n) << "workers=" << workers;
    EXPECT_FALSE(fs.stop.has_value());
    for (int64_t i = 0; i < n; ++i) {
      EXPECT_EQ(hits[static_cast<size_t>(i)].load(), 1)
          << "workers=" << workers << " i=" << i;
    }
  }
}

TEST(ThreadPoolTest, ParallelForZeroItemsIsANoop) {
  ThreadPool pool(2);
  int calls = 0;
  const ThreadPool::ForStatus fs = pool.ParallelFor(
      0, RunContext::None(), [&](int64_t) -> std::optional<StopReason> {
        ++calls;
        return std::nullopt;
      });
  EXPECT_EQ(fs.claimed, 0);
  EXPECT_EQ(calls, 0);
  EXPECT_FALSE(fs.stop.has_value());
}

TEST(ThreadPoolTest, ParallelForHonorsPreCancelledContext) {
  RunContext ctx;
  ctx.RequestCancel();
  ThreadPool pool(2);
  int calls = 0;
  const ThreadPool::ForStatus fs =
      pool.ParallelFor(100, ctx, [&](int64_t) -> std::optional<StopReason> {
        ++calls;
        return std::nullopt;
      });
  EXPECT_EQ(fs.claimed, 0);
  EXPECT_EQ(calls, 0);
  ASSERT_TRUE(fs.stop.has_value());
  EXPECT_EQ(*fs.stop, StopReason::kCancelled);
}

TEST(ThreadPoolTest, BodyReportedStopHaltsFurtherClaims) {
  // Sequential (0 workers): index 3 reports a stop, so exactly 4 indices run.
  ThreadPool pool(0);
  std::vector<int> ran;
  const ThreadPool::ForStatus fs = pool.ParallelFor(
      100, RunContext::None(), [&](int64_t i) -> std::optional<StopReason> {
        ran.push_back(static_cast<int>(i));
        if (i == 3) return StopReason::kDeadlineExceeded;
        return std::nullopt;
      });
  EXPECT_EQ(fs.claimed, 4);
  EXPECT_EQ(ran, (std::vector<int>{0, 1, 2, 3}));
  ASSERT_TRUE(fs.stop.has_value());
  EXPECT_EQ(*fs.stop, StopReason::kDeadlineExceeded);
}

TEST(ThreadPoolTest, ClaimedIndicesFormAPrefixUnderConcurrentStop) {
  for (int trial = 0; trial < 10; ++trial) {
    const int64_t n = 500;
    std::vector<std::atomic<int>> hits(n);
    for (auto& h : hits) h.store(0);
    ThreadPool pool(4);
    const ThreadPool::ForStatus fs = pool.ParallelFor(
        n, RunContext::None(), [&](int64_t i) -> std::optional<StopReason> {
          hits[static_cast<size_t>(i)].fetch_add(1);
          if (i == 37) return StopReason::kCancelled;
          return std::nullopt;
        });
    // Every index below `claimed` ran exactly once; none at or above it ran.
    ASSERT_GE(fs.claimed, 38);
    for (int64_t i = 0; i < n; ++i) {
      EXPECT_EQ(hits[static_cast<size_t>(i)].load(), i < fs.claimed ? 1 : 0)
          << "trial=" << trial << " i=" << i;
    }
  }
}

TEST(ThreadPoolTest, MidLoopCancellationStopsClaims) {
  RunContext ctx;
  std::atomic<int64_t> started{0};
  ThreadPool pool(2);
  const ThreadPool::ForStatus fs =
      pool.ParallelFor(100000, ctx, [&](int64_t) -> std::optional<StopReason> {
        if (started.fetch_add(1) == 10) ctx.RequestCancel();
        return std::nullopt;
      });
  EXPECT_LT(fs.claimed, 100000);
  EXPECT_EQ(started.load(), fs.claimed);
  ASSERT_TRUE(fs.stop.has_value());
  EXPECT_EQ(*fs.stop, StopReason::kCancelled);
}

}  // namespace
}  // namespace tycos
