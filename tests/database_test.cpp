/// End-to-end engine tests: every execution mode must answer identical
/// range counts, holistic mode must refine in the background, updates must
/// be visible, and the storage budget must evict indices.

#include <gtest/gtest.h>

#include <thread>

#include "engine/database.h"
#include "harness/runner.h"
#include "test_support.h"
#include "workload/workload.h"

namespace holix {
namespace {

using test::NaiveCount;

constexpr int64_t kDomain = 1 << 20;
constexpr size_t kRows = 100000;

class ExecModeTest : public ::testing::TestWithParam<ExecMode> {};

TEST_P(ExecModeTest, CountsMatchNaiveReference) {
  DatabaseOptions opts;
  opts.mode = GetParam();
  opts.user_threads = 4;
  opts.total_cores = 8;
  opts.online_observation_window = 10;
  Database db(opts);
  const auto data = GenerateUniformColumn(kRows, kDomain, 11);
  db.LoadColumn("r", "a", data);

  Rng rng(22);
  for (int i = 0; i < 60; ++i) {
    const int64_t lo = static_cast<int64_t>(rng.Below(kDomain));
    const int64_t width = 1 + static_cast<int64_t>(rng.Below(kDomain / 4));
    ASSERT_EQ(test::Count(db, db.Resolve("r", "a"), lo, lo + width),
              NaiveCount(data, lo, lo + width))
        << ExecModeName(GetParam()) << " query " << i;
  }
}

TEST_P(ExecModeTest, SumAndRowIdsConsistent) {
  DatabaseOptions opts;
  opts.mode = GetParam();
  opts.user_threads = 2;
  opts.total_cores = 4;
  opts.online_observation_window = 2;
  Database db(opts);
  const auto data = GenerateUniformColumn(20000, kDomain, 12);
  db.LoadColumn("r", "a", data);

  int64_t naive_sum = 0;
  size_t naive_count = 0;
  for (int64_t v : data) {
    if (v >= 1000 && v < 500000) {
      naive_sum += v;
      ++naive_count;
    }
  }
  EXPECT_EQ(test::Sum(db, db.Resolve("r", "a"), 1000, 500000).i, naive_sum);
  const PositionList rows =
      test::RowIds(db, db.Resolve("r", "a"), 1000, 500000);
  EXPECT_EQ(rows.size(), naive_count);
  for (RowId r : rows) {
    ASSERT_GE(data[r], 1000);
    ASSERT_LT(data[r], 500000);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllModes, ExecModeTest,
    ::testing::Values(ExecMode::kScan, ExecMode::kOffline, ExecMode::kOnline,
                      ExecMode::kAdaptive, ExecMode::kStochastic,
                      ExecMode::kCCGI, ExecMode::kHolistic),
    [](const auto& info) { return ExecModeName(info.param); });

TEST(Database, ModeNames) {
  EXPECT_STREQ(ExecModeName(ExecMode::kScan), "scan");
  EXPECT_STREQ(ExecModeName(ExecMode::kHolistic), "holistic");
}

TEST(Database, CcgiPrePartitionsOnFirstQuery) {
  DatabaseOptions opts;
  opts.mode = ExecMode::kCCGI;
  opts.user_threads = 4;
  opts.ccgi_chunks = 8;
  Database db(opts);
  db.LoadColumn("r", "a", GenerateUniformColumn(kRows, kDomain, 13));
  test::Count(db, db.Resolve("r", "a"), 100, 200);
  // 8 coarse chunks plus the query's own cracks.
  EXPECT_GE(db.TotalIndexPieces(), 8u);
}

TEST(Database, HolisticRefinesInBackground) {
  DatabaseOptions opts;
  opts.mode = ExecMode::kHolistic;
  opts.user_threads = 2;
  opts.total_cores = 8;
  opts.holistic.max_workers = 4;
  opts.holistic.monitor_interval_seconds = 0.001;
  Database db(opts);
  db.LoadColumn("r", "a", GenerateUniformColumn(500000, kDomain, 14));
  // Creates the index (C_actual).
  test::Count(db, db.Resolve("r", "a"), 100, 200);
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  EXPECT_GT(db.holistic()->TotalWorkerCracks(), 0u);
  EXPECT_GT(db.TotalIndexPieces(), 3u);
  // The index is either still being refined (actual) or has already
  // converged to optimal status — both mean holistic indexing worked.
  EXPECT_EQ(db.holistic()->store().Count(ConfigKind::kActual) +
                db.holistic()->store().Count(ConfigKind::kOptimal),
            1u);
}

TEST(Database, SeedPotentialIndexRefinedBeforeQueries) {
  DatabaseOptions opts;
  opts.mode = ExecMode::kHolistic;
  opts.user_threads = 1;
  opts.total_cores = 4;
  opts.holistic.monitor_interval_seconds = 0.001;
  Database db(opts);
  const auto data = GenerateUniformColumn(500000, kDomain, 15);
  db.LoadColumn("r", "a", data);
  db.SeedPotentialIndex("r", "a");
  EXPECT_EQ(db.holistic()->store().Count(ConfigKind::kPotential), 1u);
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  EXPECT_GT(db.TotalIndexPieces(), 2u);  // refined while idle
  // First query promotes it (unless it already converged to optimal) and
  // still answers correctly.
  EXPECT_EQ(test::Count(db, db.Resolve("r", "a"), 5000, 90000),
            NaiveCount(data, 5000, 90000));
  EXPECT_EQ(db.holistic()->store().Count(ConfigKind::kActual) +
                db.holistic()->store().Count(ConfigKind::kOptimal),
            1u);
  EXPECT_EQ(db.holistic()->store().Count(ConfigKind::kPotential), 0u);
}

TEST(Database, InsertsVisibleAfterMerge) {
  DatabaseOptions opts;
  opts.mode = ExecMode::kAdaptive;
  Database db(opts);
  const auto data = GenerateUniformColumn(10000, 1000, 16);
  db.LoadColumn("r", "a", data);
  const size_t before = test::Count(db, db.Resolve("r", "a"), 400, 410);
  db.Insert(db.Resolve("r", "a"), 405);
  db.Insert(db.Resolve("r", "a"), 405);
  EXPECT_EQ(test::Count(db, db.Resolve("r", "a"), 400, 410), before + 2);
}

TEST(Database, DeleteRemovesRow) {
  DatabaseOptions opts;
  opts.mode = ExecMode::kAdaptive;
  Database db(opts);
  db.LoadColumn("r", "a", GenerateUniformColumn(10000, 1000, 17));
  // Outside the base domain: uniquely ours.
  db.Insert(db.Resolve("r", "a"), 777000);
  EXPECT_EQ(test::Count(db, db.Resolve("r", "a"), 777000, 777001), 1u);
  EXPECT_TRUE(db.Delete(db.Resolve("r", "a"), 777000));
  EXPECT_EQ(test::Count(db, db.Resolve("r", "a"), 777000, 777001), 0u);
  EXPECT_FALSE(db.Delete(db.Resolve("r", "a"), 777000));
}

TEST(Database, UpdatesRejectedInScanMode) {
  DatabaseOptions opts;
  opts.mode = ExecMode::kScan;
  Database db(opts);
  db.LoadColumn("r", "a", {1, 2, 3});
  EXPECT_THROW(db.Insert(db.Resolve("r", "a"), 5), std::logic_error);
}

TEST(Database, StorageBudgetEvictsColdIndices) {
  DatabaseOptions opts;
  opts.mode = ExecMode::kHolistic;
  opts.user_threads = 1;
  opts.total_cores = 2;
  // Each index: 20000 rows * 16 B = 320 KB. Budget: two indices.
  opts.holistic.storage_budget_bytes = 700 * 1024;
  Database db(opts);
  for (int i = 0; i < 3; ++i) {
    db.LoadColumn("r", "a" + std::to_string(i),
                  GenerateUniformColumn(20000, kDomain, 18 + i));
  }
  test::Count(db, db.Resolve("r", "a0"), 10, 100000);
  test::Count(db, db.Resolve("r", "a0"), 10, 100000);  // a0 is hot
  test::Count(db, db.Resolve("r", "a1"), 10, 20);
  test::Count(db, db.Resolve("r", "a2"), 10, 20);  // must evict someone
  EXPECT_LE(db.holistic()->store().TotalBytes(),
            opts.holistic.storage_budget_bytes);
  EXPECT_LE(db.NumAdaptiveIndices(), 2u);
  // Queries on evicted columns still answer correctly (index rebuilt).
  const auto data = GenerateUniformColumn(20000, kDomain, 19);
  db.LoadColumn("r", "fresh", data);
  EXPECT_EQ(test::Count(db, db.Resolve("r", "fresh"), 100, 5000),
            NaiveCount(data, 100, 5000));
}

// A budget eviction drops the victim's cracker column, and with it the
// column's pending-update registries: the only copy of its inserted rows
// and deleted base rows. An index with update history is never evicted.
TEST(Database, StorageBudgetKeepsIndicesWithUpdateHistory) {
  DatabaseOptions opts;
  opts.mode = ExecMode::kHolistic;
  opts.user_threads = 1;
  opts.total_cores = 2;
  opts.holistic.storage_budget_bytes = 700 * 1024;  // two 320 KB indices
  Database db(opts);
  std::vector<std::vector<int64_t>> data;
  for (int i = 0; i < 3; ++i) {
    data.push_back(GenerateUniformColumn(20000, kDomain, 30 + i));
    db.LoadColumn("r", "a" + std::to_string(i), data.back());
  }
  const ColumnHandle a0 = db.Resolve("r", "a0");
  const ColumnHandle a1 = db.Resolve("r", "a1");
  const ColumnHandle a2 = db.Resolve("r", "a2");
  // A base row of a1 whose value no other row holds, so Delete must pick it.
  RowId victim = 0;
  while (NaiveCount(data[1], data[1][victim], data[1][victim] + 1) != 1) {
    ++victim;
  }
  const int64_t deleted = data[1][victim];
  db.Insert(a1, KeyScalar::I64(5000000));
  ASSERT_TRUE(db.Delete(a1, KeyScalar::I64(deleted)));
  for (int i = 0; i < 5; ++i) test::Count(db, a0, 10, 100000);  // a0 is hot
  test::Count(db, a2, 10, 20);  // registering a2 must evict someone
  EXPECT_EQ(db.NumAdaptiveIndices(), 2u);
  EXPECT_LE(db.holistic()->store().TotalBytes(),
            opts.holistic.storage_budget_bytes);
  EXPECT_EQ(test::Count(db, a1, 5000000, 5000001), 1u);
  EXPECT_EQ(test::Count(db, a1, deleted, deleted + 1), 0u);
  // A conjunction whose narrow a0 conjunct drives and whose a1 conjunct,
  // covering every a1 value, is answered by base probes of a1: the probe
  // must still drop the deleted row.
  const int64_t key = data[0][victim];
  const size_t expected = NaiveCount(data[0], key, key + 1) - 1;
  const QueryResult r = db.Execute(
      QuerySpec()
          .Where(a0, KeyScalar::I64(key), KeyScalar::I64(key + 1))
          .Where(a1, KeyScalar::I64(0), KeyScalar::I64(kDomain))
          .Count());
  EXPECT_EQ(static_cast<size_t>(r.values[0].i), expected);
}

TEST(Database, MultiClientHolisticConsistency) {
  DatabaseOptions opts;
  opts.mode = ExecMode::kHolistic;
  opts.user_threads = 2;
  opts.total_cores = 8;
  opts.holistic.monitor_interval_seconds = 0.001;
  Database db(opts);
  const auto data = GenerateUniformColumn(200000, kDomain, 20);
  db.LoadColumn("r", "a", data);
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&, c] {
      Rng rng(100 + c);
      for (int i = 0; i < 50; ++i) {
        const int64_t lo = static_cast<int64_t>(rng.Below(kDomain));
        const int64_t width = 1 + static_cast<int64_t>(rng.Below(kDomain / 8));
        if (test::Count(db, db.Resolve("r", "a"), lo, lo + width) !=
            NaiveCount(data, lo, lo + width)) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(Database, OfflinePrepareSortsAllColumns) {
  DatabaseOptions opts;
  opts.mode = ExecMode::kOffline;
  opts.user_threads = 4;
  Database db(opts);
  const auto a = GenerateUniformColumn(50000, kDomain, 21);
  const auto b = GenerateUniformColumn(50000, kDomain, 22);
  db.LoadColumn("r", "a", a);
  db.LoadColumn("r", "b", b);
  db.PrepareOfflineIndexes();
  EXPECT_EQ(test::Count(db, db.Resolve("r", "a"), 100, 90000),
            NaiveCount(a, 100, 90000));
  EXPECT_EQ(test::Count(db, db.Resolve("r", "b"), 100, 90000),
            NaiveCount(b, 100, 90000));
}

}  // namespace
}  // namespace holix
