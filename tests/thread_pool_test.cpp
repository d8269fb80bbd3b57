/// Tests for ThreadPool and ParallelSort: task execution, per-call
/// ParallelFor completion (including concurrent callers), and sorting
/// correctness across sizes and thread counts.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/parallel_sort.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace holix {
namespace {

TEST(ThreadPool, ExecutesSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&] { counter.fetch_add(1); });
  }
  pool.WaitIdle();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, ParallelForCoversRange) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.ParallelFor(0, 1000, [&](size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) ASSERT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForEmptyAndSingle) {
  ThreadPool pool(4);
  int calls = 0;
  pool.ParallelFor(5, 5, [&](size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  std::atomic<int> one{0};
  pool.ParallelFor(7, 8, [&](size_t i) {
    EXPECT_EQ(i, 7u);
    one.fetch_add(1);
  });
  EXPECT_EQ(one.load(), 1);
}

TEST(ThreadPool, ConcurrentParallelForCallers) {
  // Two client threads issue ParallelFor on the same pool simultaneously;
  // each must see exactly its own iterations complete (Fig. 17 relies on
  // this).
  ThreadPool pool(4);
  std::atomic<int> a{0}, b{0};
  std::thread t1([&] {
    for (int r = 0; r < 20; ++r) {
      pool.ParallelFor(0, 100, [&](size_t) { a.fetch_add(1); });
    }
  });
  std::thread t2([&] {
    for (int r = 0; r < 20; ++r) {
      pool.ParallelFor(0, 100, [&](size_t) { b.fetch_add(1); });
    }
  });
  t1.join();
  t2.join();
  EXPECT_EQ(a.load(), 2000);
  EXPECT_EQ(b.load(), 2000);
}

TEST(ThreadPool, ZeroThreadsClampedToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 1u);
  std::atomic<int> n{0};
  pool.Submit([&] { n.fetch_add(1); });
  pool.WaitIdle();
  EXPECT_EQ(n.load(), 1);
}

TEST(ThreadPool, ParallelForRethrowsFirstException) {
  // Exception barrier: a throwing body on a worker must surface on the
  // caller (previously it std::terminate'd the process), the pool must stay
  // usable, and remaining iterations are best-effort skipped.
  ThreadPool pool(4);
  std::atomic<int> ran{0};
  EXPECT_THROW(
      pool.ParallelFor(0, 1000,
                       [&](size_t i) {
                         ran.fetch_add(1);
                         if (i == 700) throw std::runtime_error("boom");
                       }),
      std::runtime_error);
  EXPECT_GE(ran.load(), 1);
  // Pool unaffected: a subsequent clean ParallelFor completes fully.
  std::atomic<int> ok{0};
  pool.ParallelFor(0, 100, [&](size_t) { ok.fetch_add(1); });
  EXPECT_EQ(ok.load(), 100);
}

TEST(ThreadPool, ParallelForRethrowsFromCallerShard) {
  // Shard 0 runs on the calling thread; its exception must also wait for
  // the submitted shards before propagating (no use-after-free of body).
  ThreadPool pool(4);
  EXPECT_THROW(pool.ParallelFor(0, 1000,
                                [&](size_t i) {
                                  if (i == 0) throw std::runtime_error("c");
                                }),
               std::runtime_error);
  pool.WaitIdle();
}

TEST(ThreadPool, ParallelForMorselsCoversRangeOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(5000);
  const MorselRunStats stats = pool.ParallelForMorsels(
      0, 5000, [&](size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) ASSERT_EQ(h.load(), 1);
  EXPECT_EQ(stats.morsels, 5000u);
}

TEST(ThreadPool, ParallelForMorselsStealsFromStragglers) {
  // Slot 0's block is made artificially slow; thieves must drain it (the
  // run would otherwise take ~first-block-serial time and the steal counter
  // would stay 0).
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(64);
  const MorselRunStats stats =
      pool.ParallelForMorsels(0, 64, [&](size_t i) {
        if (i < 16) {
          std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
        hits[i].fetch_add(1);
      });
  for (const auto& h : hits) ASSERT_EQ(h.load(), 1);
  // Stealing is timing-dependent on a loaded machine, so only assert on
  // multi-core hosts where a thief is essentially guaranteed idle time.
  if (std::thread::hardware_concurrency() >= 4) {
    EXPECT_GT(stats.steals, 0u);
  }
}

TEST(ThreadPool, ParallelForMorselsHonorsMaxParticipants) {
  ThreadPool pool(8);
  std::mutex mu;
  std::set<std::thread::id> seen;
  pool.ParallelForMorsels(
      0, 256,
      [&](size_t) {
        std::lock_guard<std::mutex> lk(mu);
        seen.insert(std::this_thread::get_id());
      },
      /*max_participants=*/2);
  EXPECT_LE(seen.size(), 2u);
}

TEST(ThreadPool, ParallelForMorselsRethrowsFirstException) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.ParallelForMorsels(0, 500,
                                       [&](size_t i) {
                                         if (i == 250)
                                           throw std::runtime_error("m");
                                       }),
               std::runtime_error);
  std::atomic<int> ok{0};
  pool.ParallelForMorsels(0, 64, [&](size_t) { ok.fetch_add(1); });
  EXPECT_EQ(ok.load(), 64);
}

TEST(ThreadPool, ParallelForMorselsEmptyAndSerial) {
  ThreadPool pool(4);
  int calls = 0;
  const MorselRunStats none =
      pool.ParallelForMorsels(5, 5, [&](size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  EXPECT_EQ(none.morsels, 0u);
  const MorselRunStats one = pool.ParallelForMorsels(
      9, 10, [&](size_t i) { EXPECT_EQ(i, 9u); ++calls; });
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(one.steals, 0u);
}

class ParallelSortTest
    : public ::testing::TestWithParam<std::tuple<size_t, size_t>> {};

TEST_P(ParallelSortTest, SortsCorrectly) {
  const auto [n, threads] = GetParam();
  ThreadPool pool(threads);
  Rng rng(n + threads);
  std::vector<int64_t> v(n);
  for (auto& x : v) x = static_cast<int64_t>(rng.Below(1u << 30));
  auto expected = v;
  std::sort(expected.begin(), expected.end());
  ParallelSort(v, pool);
  EXPECT_EQ(v, expected);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ParallelSortTest,
    ::testing::Combine(::testing::Values(0, 1, 2, 100, 16384, 100000,
                                         1 << 18),
                       ::testing::Values(1, 2, 4, 8)));

TEST(ParallelSort, CustomComparator) {
  ThreadPool pool(4);
  std::vector<int64_t> v(100000);
  Rng rng(3);
  for (auto& x : v) x = static_cast<int64_t>(rng.Below(1000));
  ParallelSort(v, pool, std::greater<int64_t>());
  EXPECT_TRUE(std::is_sorted(v.begin(), v.end(), std::greater<int64_t>()));
}

TEST(ParallelSort, PairsSortStably) {
  ThreadPool pool(3);
  struct P {
    int64_t k;
    int64_t v;
  };
  std::vector<P> pairs(200000);
  Rng rng(5);
  for (size_t i = 0; i < pairs.size(); ++i) {
    pairs[i] = {static_cast<int64_t>(rng.Below(1u << 20)),
                static_cast<int64_t>(i)};
  }
  ParallelSort(pairs.data(), pairs.size(), pool,
               [](const P& a, const P& b) {
                 return a.k < b.k || (a.k == b.k && a.v < b.v);
               });
  for (size_t i = 1; i < pairs.size(); ++i) {
    ASSERT_TRUE(pairs[i - 1].k < pairs[i].k ||
                (pairs[i - 1].k == pairs[i].k && pairs[i - 1].v < pairs[i].v));
  }
}

}  // namespace
}  // namespace holix
