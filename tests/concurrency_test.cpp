/// Concurrency tests (§4.2, Figure 3): user queries and holistic workers
/// cracking the same column in parallel must preserve the cracker
/// invariant and return correct results, with workers skipping latched
/// pieces instead of blocking.

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <thread>
#include <vector>

#include "cracking/cracker_column.h"
#include "engine/database.h"
#include "test_support.h"
#include "util/rng.h"

namespace holix {
namespace {

using test::MakeUniform;
using test::NaiveCount;

TEST(Concurrency, ParallelQueriesOnOneColumn) {
  const int64_t domain = 1 << 20;
  const auto base = MakeUniform(200000, domain, 1);
  CrackerColumn<int64_t> col("a", base);
  constexpr size_t kThreads = 8;
  constexpr int kQueriesPerThread = 60;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(100 + t);
      for (int i = 0; i < kQueriesPerThread; ++i) {
        const int64_t lo = static_cast<int64_t>(rng.Below(domain));
        const int64_t width = 1 + static_cast<int64_t>(rng.Below(domain / 8));
        const PositionRange r = col.SelectRange(lo, lo + width);
        if (r.size() != NaiveCount(base, lo, lo + width)) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_TRUE(col.CheckInvariants());
}

TEST(Concurrency, QueriesPlusWorkersStayConsistent) {
  const int64_t domain = 1 << 20;
  const auto base = MakeUniform(200000, domain, 2);
  CrackerColumn<int64_t> col("a", base);
  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::atomic<uint64_t> worker_attempts{0};

  // Holistic workers: random pivots, try-latch semantics.
  std::vector<std::thread> workers;
  for (int w = 0; w < 4; ++w) {
    workers.emplace_back([&, w] {
      Rng rng(7 + w);
      while (!stop.load(std::memory_order_relaxed)) {
        col.TryRefineAt(static_cast<int64_t>(rng.Below(domain)));
        worker_attempts.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  // User queries in parallel with the workers.
  std::vector<std::thread> queries;
  for (int t = 0; t < 4; ++t) {
    queries.emplace_back([&, t] {
      Rng rng(1000 + t);
      for (int i = 0; i < 80; ++i) {
        const int64_t lo = static_cast<int64_t>(rng.Below(domain));
        const int64_t width = 1 + static_cast<int64_t>(rng.Below(domain / 4));
        const PositionRange r = col.SelectRange(lo, lo + width);
        if (r.size() != NaiveCount(base, lo, lo + width)) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : queries) th.join();
  stop.store(true);
  for (auto& th : workers) th.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(worker_attempts.load(), 0u);
  EXPECT_TRUE(col.CheckInvariants());
  // Workers must have contributed cracks of their own.
  EXPECT_GT(col.stats().worker_cracks.load(), 0u);
}

TEST(Concurrency, WorkerSkipsLatchedPiece) {
  // A worker's TryRefineAt never blocks on a piece another thread holds
  // (Figure 3): it returns false and counts a skip, and the caller picks
  // another pivot. How many attempts meet a latched piece depends on the
  // scheduler, so every check here holds for any interleaving.
  const auto base = MakeUniform(10000, 1 << 16, 3);
  CrackerColumn<int64_t> col("a", base);
  // Churn and the contended refinements only ever crack at even values,
  // so every odd pivot of the uncontended phase is a fresh boundary.
  std::atomic<bool> stop{false};
  std::thread churn([&] {
    Rng rng(4);
    while (!stop.load(std::memory_order_relaxed)) {
      const int64_t lo = 2 * static_cast<int64_t>(rng.Below(1 << 15));
      col.SelectRange(lo, lo + 1024);
    }
  });
  Rng rng(5);
  uint64_t cracked = 0;
  for (int i = 0; i < 2000; ++i) {
    if (col.TryRefineAt(2 * static_cast<int64_t>(rng.Below(1 << 15)))) {
      ++cracked;
    }
  }
  stop.store(true);
  churn.join();
  EXPECT_TRUE(col.CheckInvariants());
  // Every true return is one worker crack, and nothing else is.
  EXPECT_EQ(col.stats().worker_cracks.load(), cracked);

  // Uncontended, no piece is latched: every pivot that is not yet a
  // boundary cracks, an existing boundary does not, and nothing skips.
  std::set<int64_t> boundaries;
  for (const auto& [value, pos] : col.ExportBoundaries()) {
    boundaries.insert(value);
  }
  const uint64_t skips = col.stats().worker_skips.load();
  size_t fresh = 0;
  for (int i = 0; i < 2000; ++i) {
    const int64_t pivot = 2 * static_cast<int64_t>(rng.Below(1 << 15)) + 1;
    const bool is_new = boundaries.insert(pivot).second;
    EXPECT_EQ(col.TryRefineAt(pivot), is_new) << pivot;
    fresh += is_new ? 1 : 0;
  }
  EXPECT_EQ(col.stats().worker_skips.load(), skips);
  EXPECT_EQ(col.stats().worker_cracks.load(), cracked + fresh);
  EXPECT_GT(fresh, 1900u);  // 2000 draws from 2^15 odd values
  EXPECT_TRUE(col.CheckInvariants());
}

TEST(Concurrency, ConcurrentScansSeeStableRanges) {
  const int64_t domain = 1 << 18;
  const auto base = MakeUniform(100000, domain, 6);
  CrackerColumn<int64_t> col("a", base);
  const size_t expected = NaiveCount(base, 1000, 200000);
  std::atomic<bool> stop{false};
  std::thread workers_thread([&] {
    Rng rng(8);
    while (!stop.load(std::memory_order_relaxed)) {
      col.TryRefineAt(static_cast<int64_t>(rng.Below(domain)));
    }
  });
  for (int i = 0; i < 50; ++i) {
    size_t seen = 0;
    const size_t n =
        test::SelectEach<int64_t>(col, 1000, 200000, [&](int64_t v, RowId) {
          ASSERT_GE(v, 1000);
          ASSERT_LT(v, 200000);
          ++seen;
        });
    ASSERT_EQ(n, expected);
    ASSERT_EQ(seen, expected);
  }
  stop.store(true);
  workers_thread.join();
  EXPECT_TRUE(col.CheckInvariants());
}

TEST(Concurrency, ManyThreadsSmallColumn) {
  // Stress: high thread count on a tiny column maximizes latch conflicts.
  const auto base = MakeUniform(2000, 1 << 10, 9);
  CrackerColumn<int64_t> col("tiny", base);
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < 12; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(t);
      for (int i = 0; i < 200; ++i) {
        if (t % 2 == 0) {
          const int64_t lo = static_cast<int64_t>(rng.Below(1 << 10));
          const PositionRange r = col.SelectRange(lo, lo + 16);
          if (r.size() != NaiveCount(base, lo, lo + 16)) failures.fetch_add(1);
        } else {
          col.TryRefineAt(static_cast<int64_t>(rng.Below(1 << 10)));
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_TRUE(col.CheckInvariants());
}

TEST(Concurrency, DeleteOfPresentRowSurvivesConcurrentMerges) {
  // Delete resolves its row with a [v, v + 1) select that reads the first
  // selected row while it still holds the column latch. Ripple merges
  // triggered by another client's inserts and selects (on a disjoint range
  // of the same column) shift positions, but never between that select and
  // its read: Delete must never report a present row as absent.
  constexpr int64_t kDeleted = 1000;     // values [0, kDeleted), one row each
  constexpr int64_t kBusyLow = 1 << 20;  // the merging client's range
  constexpr size_t kRows = 50000;
  std::vector<int64_t> base(kRows);
  Rng rng(77);
  for (size_t i = 0; i < kRows; ++i) {
    base[i] = i < static_cast<size_t>(kDeleted)
                  ? static_cast<int64_t>(i)
                  : kDeleted + static_cast<int64_t>(rng.Below(kBusyLow * 2));
  }
  std::vector<int64_t> shuffled = base;
  for (size_t i = shuffled.size(); i > 1; --i) {
    std::swap(shuffled[i - 1], shuffled[rng.Below(i)]);
  }
  DatabaseOptions opts;
  opts.mode = ExecMode::kAdaptive;
  Database db(opts);
  db.LoadColumn("r", "a", shuffled);
  const ColumnHandle h = db.Resolve("r", "a");

  std::atomic<bool> stop{false};
  std::atomic<int64_t> inserted{0};
  std::thread merger([&] {
    Rng mrng(5);
    while (!stop.load(std::memory_order_acquire)) {
      const int64_t v = kBusyLow + static_cast<int64_t>(mrng.Below(kBusyLow));
      db.Insert(h, KeyScalar::I64(v));
      inserted.fetch_add(1, std::memory_order_relaxed);
      db.Execute(QuerySpec().Where(h, KeyScalar::I64(v),
                                   KeyScalar::I64(v + 1)).Count());
    }
  });
  int failed_deletes = 0;
  for (int64_t v = 0; v < kDeleted; ++v) {
    if (!db.Delete(h, KeyScalar::I64(v))) ++failed_deletes;
  }
  stop.store(true, std::memory_order_release);
  merger.join();

  EXPECT_EQ(failed_deletes, 0);
  auto count = [&](int64_t lo, int64_t hi) {
    return db.Execute(QuerySpec()
                          .Where(h, KeyScalar::I64(lo), KeyScalar::I64(hi))
                          .Count())
        .values[0]
        .i;
  };
  EXPECT_EQ(count(0, kDeleted), 0);
  EXPECT_EQ(count(0, kBusyLow * 4),
            static_cast<int64_t>(kRows) - kDeleted + inserted.load());
}

}  // namespace
}  // namespace holix
