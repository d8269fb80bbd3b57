/// Handle/session/registry engine-API tests: int32 and double attributes
/// through the public facade (load, crack, retire to C_optimal), handle
/// invalidation after DropTable, concurrent sessions issuing mixed reads
/// and inserts, async submission, executor-per-mode parity against the
/// naive reference (the same oracle the seed database_test uses), and the
/// pinned double total-order semantics (NaN / -0.0 / ±inf, closed-bound
/// upgrades at the order's top, max(double) pending-update merges).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <future>
#include <limits>
#include <thread>
#include <vector>

#include "engine/database.h"
#include "test_support.h"
#include "util/cache_info.h"
#include "workload/workload.h"

namespace holix {
namespace {

using test::NaiveCount;

constexpr int64_t kDomain = 1 << 20;

template <typename T>
std::vector<T> UniformTyped(size_t n, int64_t domain, uint64_t seed) {
  Rng rng(seed);
  std::vector<T> v(n);
  for (auto& x : v) x = static_cast<T>(rng.Below(domain));
  return v;
}

template <typename T>
size_t NaiveCountTyped(const std::vector<T>& v, int64_t lo, int64_t hi) {
  size_t c = 0;
  for (T x : v) {
    c += (static_cast<int64_t>(x) >= lo && static_cast<int64_t>(x) < hi) ? 1
                                                                         : 0;
  }
  return c;
}

template <typename T>
int64_t NaiveSumTyped(const std::vector<T>& v, int64_t lo, int64_t hi) {
  int64_t s = 0;
  for (T x : v) {
    if (static_cast<int64_t>(x) >= lo && static_cast<int64_t>(x) < hi) {
      s += static_cast<int64_t>(x);
    }
  }
  return s;
}

TEST(EngineApi, Int32ColumnThroughFacade) {
  DatabaseOptions opts;
  opts.mode = ExecMode::kAdaptive;
  opts.user_threads = 2;
  Database db(opts);
  const auto data = UniformTyped<int32_t>(50000, kDomain, 31);
  db.LoadColumn("r", "a", data);

  Rng rng(32);
  for (int i = 0; i < 30; ++i) {
    const int64_t lo = static_cast<int64_t>(rng.Below(kDomain));
    const int64_t width = 1 + static_cast<int64_t>(rng.Below(kDomain / 4));
    ASSERT_EQ(test::Count(db, db.Resolve("r", "a"), lo, lo + width),
              NaiveCountTyped(data, lo, lo + width))
        << "int32 query " << i;
  }
  EXPECT_EQ(test::Sum(db, db.Resolve("r", "a"), 1000, 500000).i,
            NaiveSumTyped(data, 1000, 500000));
  EXPECT_GT(db.TotalIndexPieces(), 1u);  // the int32 attribute cracked
  EXPECT_EQ(db.NumAdaptiveIndices(), 1u);

  // Bounds wider than the int32 domain clamp instead of overflowing.
  EXPECT_EQ(test::Count(db, db.Resolve("r", "a"), -(int64_t{1} << 40),
                        int64_t{1} << 40),
            data.size());
}

TEST(EngineApi, Int32MixedWithInt64InOneTable) {
  DatabaseOptions opts;
  opts.mode = ExecMode::kAdaptive;
  Database db(opts);
  const auto a32 = UniformTyped<int32_t>(20000, kDomain, 33);
  const auto b64 = test::MakeUniform(20000, kDomain, 34);
  db.LoadColumn("r", "a32", a32);
  db.LoadColumn("r", "b64", b64);

  // Late reconstruction across element types: select on the int32
  // attribute, project the int64 one (and vice versa).
  const ColumnHandle ha = db.Resolve("r", "a32");
  const ColumnHandle hb = db.Resolve("r", "b64");
  int64_t naive_ab = 0, naive_ba = 0;
  for (size_t i = 0; i < a32.size(); ++i) {
    if (a32[i] >= 100 && a32[i] < 90000) naive_ab += b64[i];
    if (b64[i] >= 100 && b64[i] < 90000) naive_ba += a32[i];
  }
  EXPECT_EQ(test::ProjectSum(db, ha, hb, 100, 90000).i, naive_ab);
  EXPECT_EQ(test::ProjectSum(db, hb, ha, 100, 90000).i, naive_ba);
}

TEST(EngineApi, Int32RetiresToOptimalThroughFacade) {
  // Shrink |L1| so the int32 attribute reaches optimal status (average
  // piece <= L1 elements) within a handful of queries.
  OverrideL1DataCacheBytes(32 * 1024);  // 8192 int32 elements
  DatabaseOptions opts;
  opts.mode = ExecMode::kHolistic;
  opts.user_threads = 1;
  opts.total_cores = 2;
  opts.holistic.monitor_interval_seconds = 0.001;
  Database db(opts);
  const auto data = UniformTyped<int32_t>(50000, kDomain, 35);
  db.LoadColumn("r", "a", data);

  Rng rng(36);
  bool optimal = false;
  for (int i = 0; i < 200 && !optimal; ++i) {
    const int64_t lo = static_cast<int64_t>(rng.Below(kDomain));
    const int64_t width = 1 + static_cast<int64_t>(rng.Below(kDomain / 8));
    ASSERT_EQ(test::Count(db, db.Resolve("r", "a"), lo, lo + width),
              NaiveCountTyped(data, lo, lo + width));
    optimal = db.holistic()->store().Count(ConfigKind::kOptimal) == 1;
  }
  EXPECT_TRUE(optimal) << "int32 index never retired to C_optimal";
  EXPECT_EQ(db.holistic()->store().KindOf("r.a"), ConfigKind::kOptimal);
  // Retired indices still answer correctly.
  EXPECT_EQ(test::Count(db, db.Resolve("r", "a"), 5000, 90000),
            NaiveCountTyped(data, 5000, 90000));
  OverrideL1DataCacheBytes(0);
}

TEST(EngineApi, HandleQueriesMatchNameQueries) {
  DatabaseOptions opts;
  opts.mode = ExecMode::kAdaptive;
  Database db(opts);
  const auto data = test::MakeUniform(30000, kDomain, 37);
  db.LoadColumn("r", "a", data);
  const ColumnHandle h = db.Resolve("r", "a");
  ASSERT_TRUE(h.valid());
  EXPECT_EQ(h.key(), "r.a");
  EXPECT_EQ(h.type(), ValueType::kInt64);
  EXPECT_EQ(test::Count(db, h, 100, 90000), NaiveCount(data, 100, 90000));
  EXPECT_EQ(test::Count(db, h, 100, 90000),
            test::Count(db, db.Resolve("r", "a"), 100, 90000));
  EXPECT_EQ(test::Sum(db, h, 100, 90000).i,
            test::Sum(db, db.Resolve("r", "a"), 100, 90000).i);
  EXPECT_EQ(test::RowIds(db, h, 100, 90000).size(),
            NaiveCount(data, 100, 90000));
}

TEST(EngineApi, HandleInvalidationAfterDropTable) {
  DatabaseOptions opts;
  opts.mode = ExecMode::kAdaptive;
  Database db(opts);
  db.LoadColumn("r", "a", test::MakeUniform(10000, kDomain, 38));
  ColumnHandle h = db.Resolve("r", "a");
  ASSERT_TRUE(h.valid());
  ASSERT_GT(test::Count(db, h, 0, kDomain), 0u);

  db.DropTable("r");
  EXPECT_FALSE(h.valid());
  EXPECT_THROW(test::Count(db, h, 0, kDomain), std::logic_error);
  EXPECT_THROW(db.Resolve("r", "a"), std::out_of_range);
  EXPECT_EQ(db.NumAdaptiveIndices(), 0u);

  // Reloading the same names yields a fresh, working attribute; the stale
  // handle stays invalid.
  const auto fresh = test::MakeUniform(5000, kDomain, 39);
  db.LoadColumn("r", "a", fresh);
  EXPECT_FALSE(h.valid());
  EXPECT_EQ(test::Count(db, db.Resolve("r", "a"), 100, 90000),
            NaiveCount(fresh, 100, 90000));
}

TEST(EngineApi, DropTableRemovesFromHolisticStore) {
  DatabaseOptions opts;
  opts.mode = ExecMode::kHolistic;
  opts.user_threads = 1;
  opts.total_cores = 2;
  opts.holistic.monitor_interval_seconds = 0.001;
  Database db(opts);
  db.LoadColumn("r", "a", test::MakeUniform(20000, kDomain, 40));
  // Registers r.a in the store.
  test::Count(db, db.Resolve("r", "a"), 100, 200);
  ASSERT_TRUE(db.holistic()->store().Contains("r.a"));
  db.DropTable("r");
  EXPECT_FALSE(db.holistic()->store().Contains("r.a"));
}

TEST(EngineApi, SessionCachesHandlesAndAnswersQueries) {
  DatabaseOptions opts;
  opts.mode = ExecMode::kStochastic;
  opts.user_threads = 1;
  Database db(opts);
  const auto data = test::MakeUniform(30000, kDomain, 41);
  db.LoadColumn("r", "a", data);
  Session s = db.OpenSession();
  const ColumnHandle h1 = s.Handle("r", "a");
  const ColumnHandle h2 = s.Handle("r", "a");
  EXPECT_EQ(h1.entry(), h2.entry());  // cached, not re-resolved
  Rng rng(42);
  for (int i = 0; i < 20; ++i) {
    const int64_t lo = static_cast<int64_t>(rng.Below(kDomain));
    const int64_t width = 1 + static_cast<int64_t>(rng.Below(kDomain / 4));
    ASSERT_EQ(test::Count(s, h1, lo, lo + width),
              NaiveCount(data, lo, lo + width));
  }
}

TEST(EngineApi, ConcurrentSessionsMixedReadsAndInserts) {
  DatabaseOptions opts;
  opts.mode = ExecMode::kAdaptive;
  opts.user_threads = 1;
  Database db(opts);
  const auto data = test::MakeUniform(50000, kDomain, 43);
  db.LoadColumn("r", "a", data);

  // Each client session inserts into its own value band (outside the base
  // domain) while all clients read shared ranges concurrently.
  constexpr int kClients = 4;
  constexpr int kInsertsPerClient = 50;
  constexpr int64_t kBandBase = int64_t{1} << 21;
  std::atomic<int> read_failures{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Session session = db.OpenSession();
      const ColumnHandle h = session.Handle("r", "a");
      Rng rng(500 + c);
      for (int i = 0; i < kInsertsPerClient; ++i) {
        session.Insert(h, kBandBase + c * 1000 + i);
        const int64_t lo = static_cast<int64_t>(rng.Below(kDomain));
        const int64_t width =
            1 + static_cast<int64_t>(rng.Below(kDomain / 8));
        if (test::Count(session, h, lo, lo + width) !=
            NaiveCount(data, lo, lo + width)) {
          read_failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(read_failures.load(), 0);
  // Every insert is visible in its band.
  Session verify = db.OpenSession();
  const ColumnHandle h = verify.Handle("r", "a");
  for (int c = 0; c < kClients; ++c) {
    EXPECT_EQ(test::Count(verify, h, kBandBase + c * 1000,
                          kBandBase + c * 1000 + kInsertsPerClient),
              static_cast<size_t>(kInsertsPerClient))
        << "client " << c;
  }
}

TEST(EngineApi, AsyncSubmitThroughClientPool) {
  DatabaseOptions opts;
  opts.mode = ExecMode::kAdaptive;
  opts.user_threads = 1;
  Database db(opts);
  const auto data = test::MakeUniform(30000, kDomain, 44);
  db.LoadColumn("r", "a", data);
  Session s = db.OpenSession();
  const ColumnHandle h = s.Handle("r", "a");
  std::vector<std::future<QueryResult>> counts;
  std::vector<std::pair<int64_t, int64_t>> ranges;
  Rng rng(45);
  for (int i = 0; i < 16; ++i) {
    const int64_t lo = static_cast<int64_t>(rng.Below(kDomain));
    const int64_t hi = lo + 1 + static_cast<int64_t>(rng.Below(kDomain / 4));
    ranges.emplace_back(lo, hi);
    counts.push_back(s.SubmitExecute(QuerySpec().Where(h, lo, hi).Count()));
  }
  for (size_t i = 0; i < counts.size(); ++i) {
    EXPECT_EQ(static_cast<size_t>(counts[i].get().values[0].i),
              NaiveCount(data, ranges[i].first, ranges[i].second))
        << "async query " << i;
  }
}

// ---------------------------------------------------------------------------
// Double-keyed attributes through the facade (the typed-core refactor
// lifted the "kDouble columns are storage-only" limitation).
// ---------------------------------------------------------------------------

constexpr double kInf = std::numeric_limits<double>::infinity();
const double kNaN = std::numeric_limits<double>::quiet_NaN();

/// Uniform doubles in [0, domain) with genuine fractional parts — the
/// same substrate the bench harness loads (workload.h).
std::vector<double> UniformDoubles(size_t n, int64_t domain, uint64_t seed) {
  return GenerateUniformDoubleColumn(n, domain, seed);
}

size_t NaiveCountF64(const std::vector<double>& v, double lo, double hi,
                     bool closed = false) {
  using KT = KeyTraits<double>;
  size_t c = 0;
  for (double x : v) {
    const bool hit = !KT::Less(x, lo) &&
                     (closed ? !KT::Less(hi, x) : KT::Less(x, hi));
    c += hit ? 1 : 0;
  }
  return c;
}

double NaiveSumF64(const std::vector<double>& v, double lo, double hi) {
  using KT = KeyTraits<double>;
  double s = 0;
  for (double x : v) {
    if (!KT::Less(x, lo) && KT::Less(x, hi)) s += x;
  }
  return s;
}

TEST(EngineApi, DoubleColumnQueryableInEveryMode) {
  const auto data = UniformDoubles(40000, kDomain, 52);
  for (ExecMode mode :
       {ExecMode::kScan, ExecMode::kOffline, ExecMode::kOnline,
        ExecMode::kAdaptive, ExecMode::kStochastic, ExecMode::kCCGI,
        ExecMode::kHolistic}) {
    DatabaseOptions opts;
    opts.mode = mode;
    opts.user_threads = 2;
    opts.total_cores = 4;
    opts.online_observation_window = 4;
    Database db(opts);
    db.LoadColumn<double>("r", "price", data);
    const char* name = ExecModeName(mode);
    const ColumnHandle h = db.Resolve("r", "price");
    EXPECT_EQ(h.type(), ValueType::kDouble) << name;
    Rng rng(53);
    for (int i = 0; i < 25; ++i) {
      const double lo = static_cast<double>(rng.Below(kDomain)) * 0.875;
      const double hi = lo + 1.0 + static_cast<double>(rng.Below(kDomain / 4));
      ASSERT_EQ(test::Count(db, h, lo, hi), NaiveCountF64(data, lo, hi))
          << name << " query " << i;
      // Double sums are order-dependent in the last ulps; compare with a
      // relative tolerance.
      const double naive = NaiveSumF64(data, lo, hi);
      EXPECT_NEAR(test::Sum(db, h, lo, hi).d, naive,
                  1e-9 * std::max(1.0, std::abs(naive)))
          << name << " query " << i;
    }
    // Whole-domain: the closed upgrade at hi == the NaN key covers +inf
    // and NaN rows too (none here, so it equals the row count).
    EXPECT_EQ(test::Count(db, h, -kInf, kNaN), data.size()) << name;
    // int64 bounds clamp exactly onto the double domain.
    EXPECT_EQ(test::Count(db, h, 100, 90000),
              NaiveCountF64(data, 100.0, 90000.0))
        << name;
  }
}

TEST(EngineApi, DoubleRetiresToOptimalThroughFacade) {
  // load -> crack -> C_optimal on a double attribute: shrink |L1| so the
  // average piece (in BYTES) dips below it within a handful of queries.
  OverrideL1DataCacheBytes(64 * 1024);
  DatabaseOptions opts;
  opts.mode = ExecMode::kHolistic;
  opts.user_threads = 1;
  opts.total_cores = 2;
  opts.holistic.monitor_interval_seconds = 0.001;
  Database db(opts);
  const auto data = UniformDoubles(50000, kDomain, 54);
  db.LoadColumn<double>("r", "price", data);

  Rng rng(55);
  bool optimal = false;
  for (int i = 0; i < 300 && !optimal; ++i) {
    const double lo = static_cast<double>(rng.Below(kDomain));
    const double hi = lo + 1.0 + static_cast<double>(rng.Below(kDomain / 8));
    ASSERT_EQ(test::Count(db, db.Resolve("r", "price"), lo, hi),
              NaiveCountF64(data, lo, hi));
    optimal = db.holistic()->store().Count(ConfigKind::kOptimal) == 1;
  }
  EXPECT_TRUE(optimal) << "double index never retired to C_optimal";
  EXPECT_EQ(db.holistic()->store().KindOf("r.price"), ConfigKind::kOptimal);
  EXPECT_EQ(test::Count(db, db.Resolve("r", "price"), 5000.0, 90000.0),
            NaiveCountF64(data, 5000.0, 90000.0));
  OverrideL1DataCacheBytes(0);
}

TEST(EngineApi, DoubleSpecialKeysInsertThenSelect) {
  // NaN / -0.0 / +inf semantics, pinned: NaN is one key above +inf, -0.0
  // and +0.0 are the same key, and an exclusive high at the NaN key
  // upgrades to the closed bound (so [NaN, NaN] selects the NaN rows).
  DatabaseOptions opts;
  opts.mode = ExecMode::kAdaptive;
  Database db(opts);
  db.LoadColumn<double>("r", "price", UniformDoubles(5000, 1000, 56));
  const ColumnHandle h = db.Resolve("r", "price");

  db.Insert(h, kNaN);
  db.Insert(h, -0.0);
  db.Insert(h, kInf);

  // The NaN row: countable only through the closed upgrade, absent from
  // every half-open range below the order's top.
  EXPECT_EQ(test::Count(db, h, kNaN, kNaN), 1u);
  // Half-open below the top excludes both +inf and NaN, includes -0.0.
  EXPECT_EQ(test::Count(db, h, 0.0, kInf), 5001u);
  EXPECT_EQ(test::Count(db, h, kInf, kNaN), 2u);  // +inf row and NaN row
  // -0.0 == +0.0: the inserted -0.0 is counted by [0.0, 1.0).
  EXPECT_EQ(test::Count(db, h, 0.0, 1.0),
            NaiveCountF64(UniformDoubles(5000, 1000, 56), 0.0, 1.0) + 1);
  // Whole order: base rows + the three specials.
  EXPECT_EQ(test::Count(db, h, -kInf, kNaN), 5003u);

  // Delete them again — the closed unit select reaches every key,
  // including the order's top; deleting +0.0 removes the -0.0 row (same
  // key).
  EXPECT_TRUE(db.Delete(h, kNaN));
  EXPECT_FALSE(db.Delete(h, kNaN));  // only one NaN row existed
  EXPECT_TRUE(db.Delete(h, kInf));
  EXPECT_TRUE(db.Delete(h, 0.0));
  EXPECT_EQ(test::Count(db, h, -kInf, kNaN), 5000u);
}

TEST(EngineApi, DoubleMaxPendingMergeThroughClosedTail) {
  // Pending rows holding max(double) (and the NaN key above it) must be
  // merged by the closed-tail path — an exclusive high cannot express the
  // order's top, so a half-open approximation would leave them parked.
  constexpr double kMax = std::numeric_limits<double>::max();
  DatabaseOptions opts;
  opts.mode = ExecMode::kAdaptive;
  Database db(opts);
  db.LoadColumn<double>("r", "price", UniformDoubles(5000, 1000, 57));
  const ColumnHandle h = db.Resolve("r", "price");
  test::Count(db, h, 100.0, 200.0);  // build + crack the index
  db.Insert(h, kMax);
  db.Insert(h, kMax);
  db.Insert(h, kNaN);
  // The closed tail [kMax, NaN] merges and counts all three pending rows.
  EXPECT_EQ(test::Count(db, h, kMax, kNaN), 3u);
  // The unit range at max(double) is expressible half-open as [max, +inf)
  // — every double key has a total-order successor.
  EXPECT_EQ(test::Count(db, h, kMax, kInf), 2u);
  EXPECT_TRUE(db.Delete(h, kMax));
  EXPECT_EQ(test::Count(db, h, kMax, kNaN), 2u);
}

TEST(EngineApi, DoubleConcurrentSessionsMixedReadsAndInserts) {
  DatabaseOptions opts;
  opts.mode = ExecMode::kAdaptive;
  opts.user_threads = 1;
  Database db(opts);
  const auto data = UniformDoubles(50000, kDomain, 58);
  db.LoadColumn<double>("r", "price", data);

  // Each client inserts into its own fractional band above the base
  // domain while every client reads shared ranges concurrently.
  constexpr int kClients = 4;
  constexpr int kInsertsPerClient = 50;
  constexpr double kBandBase = static_cast<double>(int64_t{1} << 21);
  std::atomic<int> read_failures{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Session session = db.OpenSession();
      const ColumnHandle h = session.Handle("r", "price");
      Rng rng(600 + c);
      for (int i = 0; i < kInsertsPerClient; ++i) {
        session.Insert(h, kBandBase + c * 1000.0 + i + 0.5);
        const double lo = static_cast<double>(rng.Below(kDomain));
        const double hi =
            lo + 1.0 + static_cast<double>(rng.Below(kDomain / 8));
        if (test::Count(session, h, lo, hi) != NaiveCountF64(data, lo, hi)) {
          read_failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(read_failures.load(), 0);
  Session verify = db.OpenSession();
  const ColumnHandle h = verify.Handle("r", "price");
  for (int c = 0; c < kClients; ++c) {
    EXPECT_EQ(test::Count(verify, h, kBandBase + c * 1000.0,
                          kBandBase + c * 1000.0 + kInsertsPerClient),
              static_cast<size_t>(kInsertsPerClient))
        << "client " << c;
  }
}

TEST(EngineApi, DoubleBoundsOnIntegerColumns) {
  // The reverse clamp: f64 bounds against an int64 column use exact
  // ceil/floor arithmetic (fractional bounds tighten inward, an integral
  // exclusive high excludes itself, and a high above the integer range —
  // +inf or the NaN key — degrades to the closed bound at max).
  DatabaseOptions opts;
  opts.mode = ExecMode::kAdaptive;
  Database db(opts);
  const auto data = test::MakeUniform(30000, kDomain, 61);
  db.LoadColumn("r", "a", data);
  const ColumnHandle h = db.Resolve("r", "a");
  EXPECT_EQ(test::Count(db, h, 100.5, 200.5), NaiveCount(data, 101, 201));
  EXPECT_EQ(test::Count(db, h, 100.0, 200.0), NaiveCount(data, 100, 200));
  EXPECT_EQ(test::Count(db, h, 0.0, kInf), data.size());
  EXPECT_EQ(test::Count(db, h, -kInf, kNaN), data.size());
  EXPECT_EQ(test::Count(db, h, kNaN, kNaN), 0u);  // NaN lo: above all ints
  // Updates: integral doubles convert, fractional ones are rejected.
  EXPECT_THROW(db.Insert(h, 2.5), std::out_of_range);
  db.Insert(h, static_cast<double>(kDomain) + 3.0);
  EXPECT_EQ(test::Count(db, h, kDomain, kDomain + 10), 1u);
  EXPECT_FALSE(db.Delete(h, static_cast<double>(kDomain) + 3.5));
  EXPECT_TRUE(db.Delete(h, static_cast<double>(kDomain) + 3.0));
}

TEST(EngineApi, DoubleProjectSumAcrossTypes) {
  DatabaseOptions opts;
  opts.mode = ExecMode::kAdaptive;
  Database db(opts);
  const auto prices = UniformDoubles(20000, kDomain, 59);
  const auto keys = test::MakeUniform(20000, kDomain, 60);
  db.LoadColumn<double>("r", "price", prices);
  db.LoadColumn("r", "k", keys);
  const ColumnHandle hp = db.Resolve("r", "price");
  const ColumnHandle hk = db.Resolve("r", "k");
  double naive_kp = 0;
  int64_t naive_pk = 0;
  for (size_t i = 0; i < keys.size(); ++i) {
    if (keys[i] >= 100 && keys[i] < 90000) naive_kp += prices[i];
    if (prices[i] >= 100.0 && prices[i] < 90000.0) naive_pk += keys[i];
  }
  // Select on the int64 attribute, project the double one: f64 result.
  const double kp = test::ProjectSum(db, hk, hp, 100.0, 90000.0).d;
  EXPECT_NEAR(kp, naive_kp, 1e-9 * std::max(1.0, std::abs(naive_kp)));
  // Select on the double attribute, project the int64 one: exact i64.
  EXPECT_EQ(test::ProjectSum(db, hp, hk, 100, 90000).i, naive_pk);
}

// The closed-bound select primitive: rows holding exactly INT32_MAX are
// selectable through the int64 facade in every execution mode (an int64
// exclusive high beyond the type max degrades to the closed bound
// [lo, max(T)] instead of saturating exclusively below it).
TEST(EngineApi, Int32MaxSelectableThroughInt64Facade) {
  constexpr int32_t kMax = std::numeric_limits<int32_t>::max();
  for (ExecMode mode :
       {ExecMode::kScan, ExecMode::kOffline, ExecMode::kOnline,
        ExecMode::kAdaptive, ExecMode::kStochastic, ExecMode::kCCGI,
        ExecMode::kHolistic}) {
    DatabaseOptions opts;
    opts.mode = mode;
    opts.user_threads = 2;
    opts.total_cores = 4;
    opts.online_observation_window = 4;
    Database db(opts);
    auto data = UniformTyped<int32_t>(20000, kDomain, 50);
    constexpr size_t kMaxRows = 7;
    for (size_t i = 0; i < kMaxRows; ++i) data[i * 100] = kMax;
    db.LoadColumn("r", "a", data);
    const char* name = ExecModeName(mode);
    const ColumnHandle h = db.Resolve("r", "a");
    // Unit range [kMax, kMax + 1) — expressible only via the closed bound.
    EXPECT_EQ(test::Count(db, h, kMax, int64_t{kMax} + 1), kMaxRows) << name;
    // A whole-domain query covers the boundary rows too.
    EXPECT_EQ(test::Count(db, h, 0, int64_t{1} << 40), data.size()) << name;
    EXPECT_EQ(test::RowIds(db, h, kMax, int64_t{kMax} + 1).size(), kMaxRows)
        << name;
    EXPECT_EQ(test::Sum(db, h, kMax, int64_t{kMax} + 1).i,
              static_cast<int64_t>(kMaxRows) * kMax)
        << name;
    // Exercise the closed path again after cracking/sorting refined state.
    EXPECT_EQ(test::Count(db, h, kMax - 10, int64_t{1} << 40),
              NaiveCountTyped(data, kMax - 10, int64_t{1} << 40))
        << name;
  }
}

// With the closed unit select, a row holding the element type's maximum is
// insertable AND deletable through the facade (formerly an accepted
// limitation: [max, max+1) was inexpressible).
TEST(EngineApi, Int32MaxInsertAndDelete) {
  DatabaseOptions opts;
  opts.mode = ExecMode::kAdaptive;
  Database db(opts);
  constexpr int32_t kMax = std::numeric_limits<int32_t>::max();
  db.LoadColumn("r", "a", UniformTyped<int32_t>(5000, 1000, 51));
  const ColumnHandle h = db.Resolve("r", "a");
  EXPECT_EQ(test::Count(db, h, kMax, int64_t{kMax} + 1), 0u);
  db.Insert(h, kMax);
  EXPECT_EQ(test::Count(db, h, kMax, int64_t{kMax} + 1), 1u);
  EXPECT_TRUE(db.Delete(h, kMax));
  EXPECT_EQ(test::Count(db, h, kMax, int64_t{kMax} + 1), 0u);
  EXPECT_FALSE(db.Delete(h, kMax));  // nothing left to delete
}

TEST(EngineApi, Int32InsertOutOfDomainThrows) {
  DatabaseOptions opts;
  opts.mode = ExecMode::kAdaptive;
  Database db(opts);
  db.LoadColumn("r", "a", UniformTyped<int32_t>(1000, 1000, 46));
  const ColumnHandle h = db.Resolve("r", "a");
  EXPECT_THROW(db.Insert(h, int64_t{1} << 40), std::out_of_range);
  const size_t before = test::Count(db, h, 400, 410);
  db.Insert(h, 405);
  EXPECT_EQ(test::Count(db, h, 400, 410), before + 1);
  EXPECT_TRUE(db.Delete(h, 405));
  EXPECT_EQ(test::Count(db, h, 400, 410), before);
}

/// Executor-per-mode parity: every strategy object answers the same counts
/// as the naive reference over the handle-based path (the seed
/// database_test covers the name-based path; together they pin the
/// refactor to the old facade's results).
class ExecutorModeParityTest : public ::testing::TestWithParam<ExecMode> {};

TEST_P(ExecutorModeParityTest, HandleCountsMatchNaive) {
  DatabaseOptions opts;
  opts.mode = GetParam();
  opts.user_threads = 2;
  opts.total_cores = 4;
  opts.online_observation_window = 10;
  Database db(opts);
  const auto data = test::MakeUniform(60000, kDomain, 47);
  db.LoadColumn("r", "a", data);
  Session s = db.OpenSession();
  const ColumnHandle h = s.Handle("r", "a");
  Rng rng(48);
  for (int i = 0; i < 40; ++i) {
    const int64_t lo = static_cast<int64_t>(rng.Below(kDomain));
    const int64_t width = 1 + static_cast<int64_t>(rng.Below(kDomain / 4));
    ASSERT_EQ(test::Count(s, h, lo, lo + width),
              NaiveCount(data, lo, lo + width))
        << ExecModeName(GetParam()) << " query " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllModes, ExecutorModeParityTest,
    ::testing::Values(ExecMode::kScan, ExecMode::kOffline, ExecMode::kOnline,
                      ExecMode::kAdaptive, ExecMode::kStochastic,
                      ExecMode::kCCGI, ExecMode::kHolistic),
    [](const auto& info) { return ExecModeName(info.param); });

}  // namespace
}  // namespace holix
