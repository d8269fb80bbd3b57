/// QuerySpec (declarative multi-predicate) tests: all-7-modes parity and
/// cross-mode checksum identity against a naive conjunction oracle (int64
/// and double predicate mixes), NaN/±inf bounds and values, rejection of
/// empty conjunctions / empty result lists / column-less sums,
/// predicate-order independence of every result (double sums bit-exact),
/// per-predicate index refinement under repetition, concurrent
/// multi-predicate queries racing inserts, and the scalar-bound semantics
/// of the one-predicate path (clamping, special keys, the open top, name
/// resolution, async submission) in every mode, plus a bound-grid
/// differential test of every (lo, hi) pair of edge scalars against an
/// oracle written from the documented semantics, and the base probe's
/// handling of rows deleted from the probed column (pending, merged,
/// appended-then-deleted, and after checkpoint + warm recovery) in every
/// cracking mode.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <iomanip>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "engine/database.h"
#include "obs/metrics.h"
#include "persist/persistence.h"
#include "test_support.h"

namespace holix {
namespace {

using test::MakeUniform;

constexpr int64_t kDomain = 1 << 20;

constexpr ExecMode kAllModes[] = {
    ExecMode::kScan,       ExecMode::kOffline, ExecMode::kOnline,
    ExecMode::kAdaptive,   ExecMode::kStochastic,
    ExecMode::kCCGI,       ExecMode::kHolistic,
};

DatabaseOptions ModeOptions(ExecMode m) {
  DatabaseOptions opts;
  opts.mode = m;
  opts.user_threads = 2;
  opts.total_cores = 4;
  opts.holistic.monitor_interval_seconds = 0.001;
  return opts;
}

std::vector<double> UniformDoubles(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> v(n);
  for (auto& x : v) x = static_cast<double>(rng.Below(kDomain)) * 0.25;
  return v;
}

/// Half-open [lo, hi) membership in the KeyTraits<double> total order, where
/// an exclusive high at the NaN key (the order's top) opens the range.
bool HitF64(double v, double lo, double hi) {
  using KT = KeyTraits<double>;
  const double cv = KT::Canonical(v);
  const double clo = KT::Canonical(lo);
  const double chi = KT::Canonical(hi);
  if (KT::IsHighest(chi)) return !KT::Less(cv, clo);  // open top
  return !KT::Less(cv, clo) && KT::Less(cv, chi);
}

/// One random conjunction over (a:int64, b:int64, d:double) plus the
/// expected answers, computed by a naive full-scan conjunction in
/// ascending row order (the same order the engine's sorted qualifying set
/// induces, so double sums must match bit-for-bit).
struct ConjCase {
  int64_t a_lo, a_hi;
  int64_t b_lo, b_hi;
  double d_lo, d_hi;
  bool use_b = true;
  bool use_d = true;

  size_t count = 0;
  int64_t sum_b = 0;
  double sum_d = 0;
  PositionList rowids;

  void ComputeOracle(const std::vector<int64_t>& a,
                     const std::vector<int64_t>& b,
                     const std::vector<double>& d) {
    for (size_t i = 0; i < a.size(); ++i) {
      if (a[i] < a_lo || a[i] >= a_hi) continue;
      if (use_b && (b[i] < b_lo || b[i] >= b_hi)) continue;
      if (use_d && !HitF64(d[i], d_lo, d_hi)) continue;
      ++count;
      sum_b += b[i];
      sum_d += d[i];
      rowids.push_back(i);
    }
  }
};

ConjCase RandomCase(Rng& rng, const std::vector<int64_t>& a,
                    const std::vector<int64_t>& b,
                    const std::vector<double>& d) {
  ConjCase c{};
  c.a_lo = static_cast<int64_t>(rng.Below(kDomain));
  c.a_hi = c.a_lo + 1 + static_cast<int64_t>(rng.Below(kDomain / 2));
  c.b_lo = static_cast<int64_t>(rng.Below(kDomain / 2));
  c.b_hi = c.b_lo + 1 + static_cast<int64_t>(rng.Below(kDomain));
  c.d_lo = static_cast<double>(rng.Below(kDomain)) * 0.25;
  c.d_hi = c.d_lo + 1.0 + static_cast<double>(rng.Below(kDomain)) * 0.125;
  c.use_b = rng.Below(4) != 0;
  c.use_d = rng.Below(4) != 0 || !c.use_b;
  c.ComputeOracle(a, b, d);
  return c;
}

QuerySpec SpecFor(const ConjCase& c, const ColumnHandle& ha,
                  const ColumnHandle& hb, const ColumnHandle& hd) {
  QuerySpec spec;
  spec.Where(ha, c.a_lo, c.a_hi);
  if (c.use_b) spec.Where(hb, c.b_lo, c.b_hi);
  if (c.use_d) spec.Where(hd, c.d_lo, c.d_hi);
  spec.Count().Sum(hb).Sum(hd).RowIds();
  return spec;
}

TEST(QuerySpec, AllModesParityAndCrossModeChecksums) {
  const auto a = MakeUniform(20000, kDomain, 41);
  const auto b = MakeUniform(20000, kDomain, 42);
  const auto d = UniformDoubles(20000, 43);

  Rng case_rng(44);
  std::vector<ConjCase> cases;
  for (int i = 0; i < 16; ++i) cases.push_back(RandomCase(case_rng, a, b, d));

  for (ExecMode mode : kAllModes) {
    Database db(ModeOptions(mode));
    db.LoadColumn("t", "a", a);
    db.LoadColumn("t", "b", b);
    db.LoadColumn<double>("t", "d", d);
    const ColumnHandle ha = db.Resolve("t", "a");
    const ColumnHandle hb = db.Resolve("t", "b");
    const ColumnHandle hd = db.Resolve("t", "d");

    for (size_t i = 0; i < cases.size(); ++i) {
      const ConjCase& c = cases[i];
      const QueryResult r = db.Execute(SpecFor(c, ha, hb, hd));
      ASSERT_EQ(r.values.size(), 4u);
      EXPECT_EQ(r.values[0].i, static_cast<int64_t>(c.count))
          << ExecModeName(mode) << " case " << i;
      EXPECT_EQ(r.values[1].i, c.sum_b) << ExecModeName(mode) << " case "
                                        << i;
      // Double sums over the ascending qualifying set are bit-identical
      // across every mode — not merely within tolerance.
      EXPECT_EQ(std::bit_cast<uint64_t>(r.values[2].d),
                std::bit_cast<uint64_t>(c.sum_d))
          << ExecModeName(mode) << " case " << i;
      EXPECT_EQ(r.values[3].i, static_cast<int64_t>(c.count));
      EXPECT_EQ(r.rowids, c.rowids) << ExecModeName(mode) << " case " << i;
    }
  }
}

TEST(QuerySpec, SinglePredicateMultiResultMatchesOracle) {
  const auto a = MakeUniform(10000, kDomain, 45);
  const auto b = MakeUniform(10000, kDomain, 46);
  Database db(ModeOptions(ExecMode::kAdaptive));
  db.LoadColumn("t", "a", a);
  db.LoadColumn("t", "b", b);
  const ColumnHandle ha = db.Resolve("t", "a");
  const ColumnHandle hb = db.Resolve("t", "b");

  const int64_t lo = 1000, hi = 700000;
  size_t count = 0;
  int64_t sum_a = 0, sum_b = 0;
  PositionList expect_rows;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i] >= lo && a[i] < hi) {
      ++count;
      sum_a += a[i];
      sum_b += b[i];
      expect_rows.push_back(i);
    }
  }
  QuerySpec spec;
  spec.Where(ha, lo, hi).Count().Sum(ha).ProjectSum(hb).RowIds();
  const QueryResult r = db.Execute(spec);
  ASSERT_EQ(r.values.size(), 4u);
  EXPECT_EQ(r.values[0].i, static_cast<int64_t>(count));
  EXPECT_EQ(r.values[1].i, sum_a);
  EXPECT_EQ(r.values[2].i, sum_b);
  EXPECT_EQ(r.values[3].i, static_cast<int64_t>(count));
  EXPECT_EQ(r.rowids, expect_rows);  // multi-result rowids sort ascending
}

TEST(QuerySpec, NaNAndInfinityBoundsAndValues) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  auto d = UniformDoubles(8000, 47);
  // Specials live at known tail rows; the int64 column qualifies them all.
  d.push_back(kNaN);
  d.push_back(kInf);
  d.push_back(-kInf);
  d.push_back(-0.0);
  const auto a = MakeUniform(d.size(), kDomain, 48);

  for (ExecMode mode : {ExecMode::kScan, ExecMode::kAdaptive}) {
    Database db(ModeOptions(mode));
    db.LoadColumn("t", "a", a);
    db.LoadColumn<double>("t", "d", d);
    const ColumnHandle ha = db.Resolve("t", "a");
    const ColumnHandle hd = db.Resolve("t", "d");

    auto run_count = [&](double lo, double hi) -> int64_t {
      QuerySpec spec;
      spec.Where(ha, std::numeric_limits<int64_t>::min(),
                 std::numeric_limits<int64_t>::max())
          .Where(hd, lo, hi)
          .Count();
      return db.Execute(spec).values[0].i;
    };
    auto oracle_count = [&](double lo, double hi) -> int64_t {
      int64_t n = 0;
      for (double v : d) n += HitF64(v, lo, hi) ? 1 : 0;
      return n;
    };
    // [-inf, +inf): everything finite plus -inf; excludes +inf and NaN.
    EXPECT_EQ(run_count(-kInf, kInf), oracle_count(-kInf, kInf))
        << ExecModeName(mode);
    // [-inf, NaN]: the closed tail — every row including +inf and NaN.
    EXPECT_EQ(run_count(-kInf, kNaN), static_cast<int64_t>(d.size()))
        << ExecModeName(mode);
    // [NaN, NaN]: exactly the NaN rows.
    EXPECT_EQ(run_count(kNaN, kNaN), 1) << ExecModeName(mode);
    // [+inf, NaN]: +inf and NaN rows.
    EXPECT_EQ(run_count(kInf, kNaN), 2) << ExecModeName(mode);
    // [-0.0, 0.5): -0.0 == +0.0 under the total order.
    EXPECT_EQ(run_count(-0.0, 0.5), oracle_count(0.0, 0.5))
        << ExecModeName(mode);
  }
}

TEST(QuerySpec, MalformedSpecsRejected) {
  Database db(ModeOptions(ExecMode::kAdaptive));
  db.LoadColumn("t", "a", MakeUniform(1000, kDomain, 49));
  db.LoadColumn("u", "z", MakeUniform(1000, kDomain, 50));
  const ColumnHandle ha = db.Resolve("t", "a");
  const ColumnHandle hz = db.Resolve("u", "z");

  QuerySpec empty;
  empty.Count();
  EXPECT_THROW(db.Execute(empty), std::invalid_argument);

  QuerySpec no_results;
  no_results.Where(ha, 0, 100);
  EXPECT_THROW(db.Execute(no_results), std::invalid_argument);

  QuerySpec column_less_sum;
  column_less_sum.Where(ha, 0, 100);
  column_less_sum.results.push_back({ResultRequest::kSum, {}});
  EXPECT_THROW(db.Execute(column_less_sum), std::invalid_argument);

  QuerySpec cross_table;
  cross_table.Where(ha, 0, 100).Where(hz, 0, 100).Count();
  EXPECT_THROW(db.Execute(cross_table), std::invalid_argument);
}

TEST(QuerySpec, PredicateOrderIndependence) {
  const auto a = MakeUniform(15000, kDomain, 51);
  const auto b = MakeUniform(15000, kDomain, 52);
  const auto d = UniformDoubles(15000, 53);
  Database db(ModeOptions(ExecMode::kAdaptive));
  db.LoadColumn("t", "a", a);
  db.LoadColumn("t", "b", b);
  db.LoadColumn<double>("t", "d", d);
  const ColumnHandle ha = db.Resolve("t", "a");
  const ColumnHandle hb = db.Resolve("t", "b");
  const ColumnHandle hd = db.Resolve("t", "d");

  const RangePredicate preds[3] = {
      {ha, KeyScalar::I64(5000), KeyScalar::I64(400000)},
      {hb, KeyScalar::I64(0), KeyScalar::I64(900000)},
      {hd, KeyScalar::F64(100.5), KeyScalar::F64(200000.25)},
  };
  // Every permutation — executed back to back on the SAME database, so
  // the index state evolves between runs — must answer identically.
  int order[3] = {0, 1, 2};
  std::sort(order, order + 3);
  QueryResult first;
  bool have_first = false;
  do {
    QuerySpec spec;
    for (int idx : order) spec.predicates.push_back(preds[idx]);
    spec.Count().Sum(hd).RowIds();
    const QueryResult r = db.Execute(spec);
    if (!have_first) {
      first = r;
      have_first = true;
      EXPECT_GT(first.values[0].i, 0);  // non-degenerate case
      continue;
    }
    EXPECT_EQ(r.values[0].i, first.values[0].i);
    EXPECT_EQ(std::bit_cast<uint64_t>(r.values[1].d),
              std::bit_cast<uint64_t>(first.values[1].d));
    EXPECT_EQ(r.rowids, first.rowids);
  } while (std::next_permutation(order, order + 3));
}

TEST(QuerySpec, RepeatedExecutionRefinesEveryPredicateColumn) {
  const auto a = MakeUniform(30000, kDomain, 54);
  const auto b = MakeUniform(30000, kDomain, 55);
  const auto d = UniformDoubles(30000, 56);
  Database db(ModeOptions(ExecMode::kAdaptive));
  db.LoadColumn("t", "a", a);
  db.LoadColumn("t", "b", b);
  db.LoadColumn<double>("t", "d", d);
  const ColumnHandle ha = db.Resolve("t", "a");
  const ColumnHandle hb = db.Resolve("t", "b");
  const ColumnHandle hd = db.Resolve("t", "d");

  auto pieces = [&](const ColumnHandle& h) -> size_t {
    return DispatchIndexableType(h.type(), [&](auto tag) -> size_t {
      using T = typename decltype(tag)::type;
      auto c = h.entry()->runtime<T>().cracker.load();
      return c == nullptr ? 1 : c->NumPieces();
    });
  };

  Rng rng(57);
  auto run_round = [&](int queries) {
    for (int i = 0; i < queries; ++i) {
      const int64_t lo = static_cast<int64_t>(rng.Below(kDomain));
      QuerySpec spec;
      // A selective driver on `a`, a deliberately wide conjunct on `b`
      // (the probe path must still crack it via RefineHint), and a double
      // conjunct on `d`.
      spec.Where(ha, lo, lo + 1 + static_cast<int64_t>(rng.Below(10000)))
          .Where(hb, static_cast<int64_t>(rng.Below(1000)), kDomain)
          .Where(hd, static_cast<double>(rng.Below(kDomain)) * 0.01,
                 static_cast<double>(kDomain))
          .Count();
      db.Execute(spec);
    }
  };

  run_round(8);
  const size_t a1 = pieces(ha), b1 = pieces(hb), d1 = pieces(hd);
  EXPECT_GT(a1, 1u);
  EXPECT_GT(b1, 1u);
  EXPECT_GT(d1, 1u);
  run_round(24);
  // Piece counts grow on EVERY predicate column as the workload repeats.
  EXPECT_GT(pieces(ha), a1);
  EXPECT_GT(pieces(hb), b1);
  EXPECT_GT(pieces(hd), d1);
}

TEST(QuerySpec, ConcurrentMultiPredicateQueriesWithInserts) {
  const size_t rows = 20000;
  const auto a = MakeUniform(rows, kDomain, 58);
  const auto b = MakeUniform(rows, kDomain, 59);
  Database db(ModeOptions(ExecMode::kAdaptive));
  db.LoadColumn("t", "a", a);
  db.LoadColumn("t", "b", b);
  const ColumnHandle ha = db.Resolve("t", "a");
  const ColumnHandle hb = db.Resolve("t", "b");

  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      Session s = db.OpenSession();
      Rng rng(100 + t);
      for (int i = 0; i < 60; ++i) {
        const int64_t lo = static_cast<int64_t>(rng.Below(kDomain));
        QuerySpec spec;
        spec.Where(ha, lo, lo + 1 + static_cast<int64_t>(rng.Below(kDomain)))
            .Where(hb, 0, static_cast<int64_t>(rng.Below(kDomain)) + 1)
            .Count()
            .Sum(hb);
        const QueryResult r = s.Execute(spec);
        // A conjunction can never return more rows than the table holds
        // (inserted rows have no value in the other column).
        if (r.values[0].i > static_cast<int64_t>(rows)) {
          failed.store(true);
        }
      }
    });
  }
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&, t] {
      Session s = db.OpenSession();
      Rng rng(200 + t);
      for (int i = 0; i < 200; ++i) {
        s.Insert(t == 0 ? ha : hb, static_cast<int64_t>(rng.Below(kDomain)));
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_FALSE(failed.load());

  // Quiesced: the conjunction still matches the base-data oracle exactly
  // (rows inserted into a single column are excluded by the conjunction).
  size_t expect = 0;
  for (size_t i = 0; i < rows; ++i) {
    if (a[i] >= 1000 && a[i] < 800000 && b[i] >= 0 && b[i] < 500000) {
      ++expect;
    }
  }
  QuerySpec spec;
  spec.Where(ha, 1000, 800000).Where(hb, 0, 500000).Count();
  EXPECT_EQ(db.Execute(spec).values[0].i, static_cast<int64_t>(expect));
}

TEST(QuerySpec, MaterializedPathIncludesAppendedRowsConsistently) {
  // A row appended by Insert is visible to every shape that touches only
  // its own column: the legacy one-predicate/one-result primitives AND the
  // materialized path (several results), whose positional sums resolve the
  // appended rowid through the column's pending registry. Count, rowids
  // and sums must agree about which rows qualify.
  const auto a = MakeUniform(5000, kDomain, 70);
  Database db(ModeOptions(ExecMode::kAdaptive));
  db.LoadColumn("t", "a", a);
  const ColumnHandle ha = db.Resolve("t", "a");

  size_t base_count = 0;
  int64_t base_sum = 0;
  for (int64_t v : a) {
    if (v >= 0 && v < 1000) {
      ++base_count;
      base_sum += v;
    }
  }
  const RowId inserted = db.Insert(ha, 500);
  EXPECT_GE(inserted, a.size());
  // Legacy shape: the merged pending insert is counted and summed.
  EXPECT_EQ(test::Count(db, ha, 0, 1000), base_count + 1);
  EXPECT_EQ(test::Sum(db, ha, 0, 1000).i, base_sum + 500);

  // Materialized shape: same qualifying set, internally consistent.
  QuerySpec spec;
  spec.Where(ha, int64_t{0}, int64_t{1000}).Count().Sum(ha).RowIds();
  const QueryResult r = db.Execute(spec);
  EXPECT_EQ(r.values[0].i, static_cast<int64_t>(base_count) + 1);
  EXPECT_EQ(r.values[1].i, base_sum + 500);
  EXPECT_EQ(r.rowids.size(), base_count + 1);
  EXPECT_TRUE(std::find(r.rowids.begin(), r.rowids.end(), inserted) !=
              r.rowids.end());

  // The registry survives the Ripple merges those queries performed: ask
  // again now that the pending queues are drained.
  const QueryResult again = db.Execute(spec);
  EXPECT_EQ(again.values[0].i, static_cast<int64_t>(base_count) + 1);
  EXPECT_EQ(again.values[1].i, base_sum + 500);

  // Deleting one row with that value (whichever rowid the index resolves
  // — possibly the appended one, whose registry entry is then erased)
  // shrinks every result shape by exactly that row.
  EXPECT_TRUE(db.Delete(ha, 500));
  const QueryResult gone = db.Execute(spec);
  EXPECT_EQ(gone.values[0].i, static_cast<int64_t>(base_count));
  EXPECT_EQ(gone.values[1].i, base_sum);
  EXPECT_EQ(gone.rowids.size(), base_count);
}

TEST(QuerySpec, ConjunctionAfterInsertBitExactInAllModes) {
  // The ISSUE-6 regression: insert into one column, then IMMEDIATELY run a
  // 2-predicate conjunction. The inserted row must be excluded (it has no
  // value in the other predicate column), and the answer must stay
  // bit-exact with the base-data oracle in every mode — including the
  // probe path, which used to skip appended rowids silently instead of
  // resolving them. Also pins the flip side: a single-predicate
  // multi-result spec on the inserted column DOES see the row.
  const size_t rows = 4000;
  const auto a = MakeUniform(rows, kDomain, 71);
  const auto b = MakeUniform(rows, kDomain, 72);
  size_t expect_count = 0;
  int64_t expect_sum_b = 0;
  for (size_t i = 0; i < rows; ++i) {
    if (a[i] >= 1000 && a[i] < 700000 && b[i] >= 2000 && b[i] < 900000) {
      ++expect_count;
      expect_sum_b += b[i];
    }
  }
  for (ExecMode m : kAllModes) {
    SCOPED_TRACE(static_cast<int>(m));
    Database db(ModeOptions(m));
    db.LoadColumn("t", "a", a);
    db.LoadColumn("t", "b", b);
    const ColumnHandle ha = db.Resolve("t", "a");
    const ColumnHandle hb = db.Resolve("t", "b");

    bool inserted = false;
    try {
      db.Insert(ha, 5000);  // qualifies on a, missing from b
      inserted = true;
    } catch (const std::logic_error&) {
      // Non-cracking modes reject updates; the conjunction must still be
      // exact there.
    }

    QuerySpec spec;
    spec.Where(ha, int64_t{1000}, int64_t{700000})
        .Where(hb, int64_t{2000}, int64_t{900000})
        .Count()
        .Sum(hb);
    const QueryResult r = db.Execute(spec);
    EXPECT_EQ(r.values[0].i, static_cast<int64_t>(expect_count));
    EXPECT_EQ(r.values[1].i, expect_sum_b);
    // Same answer with the predicate order flipped (drives the other
    // planning order, so both the merge and the probe paths see the
    // appended row).
    QuerySpec flipped;
    flipped.Where(hb, int64_t{2000}, int64_t{900000})
        .Where(ha, int64_t{1000}, int64_t{700000})
        .Count()
        .Sum(hb);
    EXPECT_EQ(db.Execute(flipped).values[0].i,
              static_cast<int64_t>(expect_count));

    if (inserted) {
      size_t single_count = 0;
      int64_t single_sum = 0;
      for (int64_t v : a) {
        if (v >= 1000 && v < 700000) {
          ++single_count;
          single_sum += v;
        }
      }
      QuerySpec single;
      single.Where(ha, int64_t{1000}, int64_t{700000}).Count().Sum(ha);
      const QueryResult sr = db.Execute(single);
      EXPECT_EQ(sr.values[0].i, static_cast<int64_t>(single_count) + 1);
      EXPECT_EQ(sr.values[1].i, single_sum + 5000);
    }
  }
}

TEST(QuerySpec, ProjectSumAfterInsertStaysInBounds) {
  // ProjectSum whose WHERE column holds appended rows used to read the
  // project column out of bounds (rowid past the base array). The appended
  // row must simply contribute nothing when the project column never saw
  // it — and the inserted value when WHERE and PROJECT are the same
  // column.
  const size_t rows = 3000;
  const auto a = MakeUniform(rows, kDomain, 73);
  const auto b = MakeUniform(rows, kDomain, 74);
  Database db(ModeOptions(ExecMode::kAdaptive));
  db.LoadColumn("t", "a", a);
  db.LoadColumn("t", "b", b);
  const ColumnHandle ha = db.Resolve("t", "a");
  const ColumnHandle hb = db.Resolve("t", "b");

  int64_t expect = 0;
  for (size_t i = 0; i < rows; ++i) {
    if (a[i] >= 0 && a[i] < 900000) expect += b[i];
  }
  for (int i = 0; i < 64; ++i) db.Insert(ha, 100 + i);
  EXPECT_EQ(test::ProjectSum(db, ha, hb, 0, 900000).i, expect);
  // Run twice: the first call Ripple-merged the pending rows into the
  // index, so the second exercises the persistent registry path.
  EXPECT_EQ(test::ProjectSum(db, ha, hb, 0, 900000).i, expect);
}

TEST(QuerySpec, AsyncSubmitExecute) {
  const auto a = MakeUniform(10000, kDomain, 60);
  const auto b = MakeUniform(10000, kDomain, 61);
  Database db(ModeOptions(ExecMode::kAdaptive));
  db.LoadColumn("t", "a", a);
  db.LoadColumn("t", "b", b);
  Session s = db.OpenSession();
  QuerySpec spec;
  spec.Where(s.Handle("t", "a"), 100, 600000)
      .Where(s.Handle("t", "b"), 100, 600000)
      .Count();
  auto fut = s.SubmitExecute(spec);
  const QueryResult sync = s.Execute(spec);
  EXPECT_EQ(fut.get().values[0].i, sync.values[0].i);
}

/// The scalar-bound semantics every caller relies on, through Execute's
/// one-predicate path in all seven modes: int64 bounds clamp into int32
/// and double columns, double bounds into integer columns, NaN / ±inf /
/// -0.0 bounds follow the double total order, an exclusive high above a
/// type's maximum degrades to the closed bound, names resolve through
/// Resolve and Session::Handle, and async submission answers like a
/// synchronous call. The special values are part of the loaded base data
/// (inserts are cracking-only).
TEST(QuerySpec, ScalarBoundSemanticsInEveryMode) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kTwo63 = 9223372036854775808.0;  // above every int64
  constexpr int32_t kMax32 = std::numeric_limits<int32_t>::max();
  constexpr int64_t kMax64 = std::numeric_limits<int64_t>::max();
  const size_t n = 6000;
  std::vector<int32_t> a32(n);
  {
    Rng rng(70);
    for (auto& x : a32) x = static_cast<int32_t>(rng.Below(kDomain));
  }
  a32[0] = a32[1] = kMax32;
  auto a64 = MakeUniform(n, kDomain, 71);
  a64[2] = kMax64;
  auto d = UniformDoubles(n, 72);
  d[0] = kNaN;
  d[1] = kInf;
  d[2] = -kInf;
  d[3] = -0.0;
  d[4] = 0.0;
  auto count_if = [](const auto& v, auto pred) {
    return static_cast<size_t>(std::count_if(v.begin(), v.end(), pred));
  };

  for (ExecMode mode : kAllModes) {
    SCOPED_TRACE(ExecModeName(mode));
    Database db(ModeOptions(mode));
    db.LoadColumn<int32_t>("t", "a32", a32);
    db.LoadColumn("t", "a64", a64);
    db.LoadColumn<double>("t", "d", d);
    const ColumnHandle h32 = db.Resolve("t", "a32");
    const ColumnHandle h64 = db.Resolve("t", "a64");
    const ColumnHandle hd = db.Resolve("t", "d");

    // int64 bounds clamp into the int32 domain; [max, max + 1) is the
    // closed unit range at INT32_MAX.
    EXPECT_EQ(test::Count(db, h32, -(int64_t{1} << 40), int64_t{1} << 40),
              n);
    EXPECT_EQ(test::Count(db, h32, kMax32, int64_t{kMax32} + 1), 2u);
    EXPECT_EQ(test::Sum(db, h32, kMax32, int64_t{kMax32} + 1).i,
              2 * int64_t{kMax32});
    EXPECT_EQ(test::Count(db, h32, 1000, 500000),
              count_if(a32, [](int32_t x) { return x >= 1000 && x < 500000; }));

    // int64 bounds clamp into the double order: [INT64_MIN, INT64_MAX)
    // holds every finite row, but neither -inf, +inf nor NaN.
    EXPECT_EQ(test::Count(db, hd, 100, 90000),
              count_if(d, [](double x) { return x >= 100 && x < 90000; }));
    EXPECT_EQ(test::Count(db, hd, std::numeric_limits<int64_t>::min(),
                          kMax64),
              n - 3);

    // Double bounds on integer columns: fractional bounds tighten inward,
    // a high above the integer range degrades to the closed bound.
    EXPECT_EQ(test::Count(db, h64, 100.5, 200.5),
              count_if(a64, [](int64_t x) { return x >= 101 && x < 201; }));
    EXPECT_EQ(test::Count(db, h64, -kInf, kNaN), n);
    EXPECT_EQ(test::Count(db, h64, kNaN, kNaN), 0u);
    EXPECT_EQ(test::Count(db, h64, 0.0, kInf), n);
    EXPECT_EQ(test::Count(db, h64, kMax64, kTwo63), 1u);
    EXPECT_EQ(test::RowIds(db, h64, kMax64, kTwo63), PositionList{2});

    // NaN, ±inf and -0.0 bounds on the double column.
    EXPECT_EQ(test::Count(db, hd, kNaN, kNaN), 1u);
    EXPECT_EQ(test::Count(db, hd, kInf, kNaN), 2u);
    EXPECT_EQ(test::Count(db, hd, -kInf, kInf), n - 2);
    EXPECT_EQ(test::Count(db, hd, -kInf, -0.0), 1u);  // only -inf
    EXPECT_EQ(test::Count(db, hd, -0.0, 0.5),
              count_if(d, [](double x) { return x >= 0.0 && x < 0.5; }));
    EXPECT_TRUE(std::isnan(test::Sum(db, hd, kInf, kNaN).d));

    // Names resolve to the same attribute through either path.
    Session s = db.OpenSession();
    EXPECT_EQ(test::Count(s, s.Handle("t", "a64"), 100, 90000),
              test::Count(db, h64, 100, 90000));
    EXPECT_EQ(test::Count(db, db.Resolve("t", "d"), 0.25, 1e5),
              test::Count(s, s.Handle("t", "d"), 0.25, 1e5));

    // Async submission answers exactly like the synchronous call.
    auto fut = s.SubmitExecute(
        QuerySpec().Where(h32, kMax32, int64_t{kMax32} + 1).RowIds());
    const PositionList sync =
        test::RowIds(s, h32, kMax32, int64_t{kMax32} + 1);
    PositionList async = fut.get().rowids;
    std::sort(async.begin(), async.end());
    EXPECT_EQ(async, (PositionList{0, 1}));
    EXPECT_TRUE(std::is_permutation(sync.begin(), sync.end(), async.begin(),
                                    async.end()));
  }
}

// --- Bound grid ------------------------------------------------------------

/// A key or bound placed in the documented order: a real number compared
/// exactly (long double holds every int64 and every double), or NaN, which
/// sits above everything.
struct OrderPoint {
  bool nan = false;
  long double v = 0;
};

OrderPoint PointOf(KeyScalar s) {
  if (!s.is_f64()) return {false, static_cast<long double>(s.i)};
  if (std::isnan(s.d)) return {true, 0};
  return {false, static_cast<long double>(s.d)};
}

template <typename T>
OrderPoint PointOf(T x) {
  if constexpr (std::is_same_v<T, double>) {
    return PointOf(KeyScalar::F64(x));
  } else {
    return {false, static_cast<long double>(x)};
  }
}

bool PointLess(OrderPoint a, OrderPoint b) {
  if (b.nan) return !a.nan;
  return !a.nan && a.v < b.v;
}

/// The documented membership of key \p x of column type T in [lo, hi): lo
/// <= x < hi in the order above, and an exclusive high above every key of T
/// (or NaN) runs through the top of T's order.
template <typename T>
bool GridHit(T x, KeyScalar lo, KeyScalar hi) {
  const OrderPoint px = PointOf(x);
  const OrderPoint plo = PointOf(lo);
  const OrderPoint phi = PointOf(hi);
  bool above_all = phi.nan;
  if constexpr (!std::is_same_v<T, double>) {
    above_all = above_all ||
                phi.v > static_cast<long double>(std::numeric_limits<T>::max());
  }
  return !PointLess(px, plo) && (above_all || PointLess(px, phi));
}

std::string Describe(KeyScalar s) {
  std::ostringstream os;
  if (s.is_f64()) {
    os << "f64:" << std::setprecision(17) << s.d;
  } else {
    os << "i64:" << s.i;
  }
  return os.str();
}

/// The grid: 17 int64-carrier and 25 double-carrier bounds around the type
/// extremes, ±2^53, ±2^63, fractions, ±0.0, ±inf and NaN.
std::vector<KeyScalar> BoundGrid() {
  constexpr int64_t kMin64 = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax64 = std::numeric_limits<int64_t>::max();
  constexpr int64_t kMin32 = std::numeric_limits<int32_t>::min();
  constexpr int64_t kMax32 = std::numeric_limits<int32_t>::max();
  constexpr int64_t k2p53 = int64_t{1} << 53;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kD2p53 = 9007199254740992.0;
  constexpr double kD2p63 = 9223372036854775808.0;
  std::vector<KeyScalar> g;
  for (int64_t v : {kMin64, kMin64 + 1, -k2p53 - 1, kMin32 - 1, kMin32,
                    int64_t{-1}, int64_t{0}, int64_t{1}, int64_t{2},
                    int64_t{100}, kMax32 - 1, kMax32, kMax32 + 1, k2p53,
                    k2p53 + 1, kMax64 - 1, kMax64}) {
    g.push_back(KeyScalar::I64(v));
  }
  for (double v : {-kInf, -kD2p63, -kD2p53, -2147483648.5, -2147483648.0,
                   -1.5, -0.5, -0.0, 0.0, 0.25, 0.5, 1.0, 1.5, 2.5,
                   2147483646.5, 2147483647.0, 2147483647.5, 2147483648.0,
                   kD2p53, kD2p53 + 2.0, 9223372036854774784.0, kD2p63, kInf,
                   std::numeric_limits<double>::quiet_NaN(),
                   std::numeric_limits<double>::max()}) {
    g.push_back(KeyScalar::F64(v));
  }
  return g;
}

// Every (lo, hi) pair of the bound grid against int32, int64 and double
// columns holding the edge values, in all 7 modes; then, in the cracking
// modes, one delete of each type's top-of-order key and the whole grid
// again. The oracle follows the documented semantics, not the clamp.
TEST(QuerySpec, BoundGridMatchesDocumentedSemanticsInEveryMode) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr int32_t kMin32 = std::numeric_limits<int32_t>::min();
  constexpr int32_t kMax32 = std::numeric_limits<int32_t>::max();
  constexpr int64_t kMin64 = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax64 = std::numeric_limits<int64_t>::max();
  std::vector<int32_t> base32 = {kMin32, kMin32 + 1, -1, 0, 1, 2, 100,
                                 kMax32 - 1, kMax32, kMax32};
  std::vector<int64_t> base64 = {kMin64, kMin64 + 1, -(int64_t{1} << 53) - 1,
                                 int64_t{kMin32} - 1, kMin32, -1, 0, 1, 2,
                                 int64_t{kMax32}, int64_t{kMax32} + 1,
                                 int64_t{1} << 53, (int64_t{1} << 53) + 1,
                                 kMax64 - 1, kMax64, kMax64};
  std::vector<double> based = {-kInf, -std::numeric_limits<double>::max(),
                               -9223372036854775808.0, -2147483648.5, -1.5,
                               -0.5, -0.0, 0.0, 0.25, 0.5, 1.0, 2.5,
                               2147483647.0, 2147483648.0, 9007199254740992.0,
                               9223372036854775808.0,
                               std::numeric_limits<double>::max(), kInf, kNaN,
                               -kNaN};
  Rng rng(73);
  for (int i = 0; i < 200; ++i) {
    base32.push_back(static_cast<int32_t>(rng.Next()));
    base64.push_back(static_cast<int64_t>(rng.Next()));
    based.push_back(static_cast<double>(static_cast<int64_t>(rng.Below(4001)) -
                                        2000) *
                    0.25);
  }
  const std::vector<KeyScalar> grid = BoundGrid();
  ASSERT_EQ(grid.size(), 42u);

  auto check_grid = [&](Database& db, const ColumnHandle& h, const auto& base,
                        const char* type) {
    for (KeyScalar lo : grid) {
      for (KeyScalar hi : grid) {
        size_t want = 0;
        for (auto x : base) want += GridHit(x, lo, hi) ? 1 : 0;
        EXPECT_EQ(test::Count(db, h, lo, hi), want)
            << ExecModeName(db.options().mode) << " " << type << " ["
            << Describe(lo) << ", " << Describe(hi) << ")";
      }
    }
  };
  auto erase_one = [](auto& base, auto key) {
    using T = typename std::decay_t<decltype(base)>::value_type;
    for (size_t i = 0; i < base.size(); ++i) {
      if (KeyTraits<T>::Eq(base[i], key)) {
        base.erase(base.begin() + static_cast<std::ptrdiff_t>(i));
        return;
      }
    }
  };

  for (ExecMode mode : kAllModes) {
    Database db(ModeOptions(mode));
    db.LoadColumn<int32_t>("t32", "a", base32);
    db.LoadColumn("t64", "a", base64);
    db.LoadColumn<double>("td", "a", based);
    const ColumnHandle h32 = db.Resolve("t32", "a");
    const ColumnHandle h64 = db.Resolve("t64", "a");
    const ColumnHandle hd = db.Resolve("td", "a");
    check_grid(db, h32, base32, "int32");
    check_grid(db, h64, base64, "int64");
    check_grid(db, hd, based, "double");
    if (mode == ExecMode::kScan || mode == ExecMode::kOffline ||
        mode == ExecMode::kOnline) {
      continue;  // updates need a cracking mode
    }
    std::vector<int32_t> left32 = base32;
    std::vector<int64_t> left64 = base64;
    std::vector<double> leftd = based;
    ASSERT_TRUE(db.Delete(h32, int64_t{kMax32})) << ExecModeName(mode);
    ASSERT_TRUE(db.Delete(h64, kMax64)) << ExecModeName(mode);
    ASSERT_TRUE(db.Delete(hd, kNaN)) << ExecModeName(mode);
    erase_one(left32, kMax32);
    erase_one(left64, kMax64);
    erase_one(leftd, kNaN);
    check_grid(db, h32, left32, "int32 after delete");
    check_grid(db, h64, left64, "int64 after delete");
    check_grid(db, hd, leftd, "double after delete");
  }
}

/// A probed conjunct reads its attribute's base array, which keeps the
/// value of a row deleted from that attribute: the probe has to drop the
/// rows in the column's deleted-base registry. Column a drives with a
/// narrow range and column b is probed with a wide one; every answer is
/// checked against a multiset oracle of the live rows.
class ProbeDeleteTest : public test::TempDirTest,
                        public ::testing::WithParamInterface<ExecMode> {};

TEST_P(ProbeDeleteTest, ProbeSkipsRowsDeletedFromTheProbedColumn) {
  const ExecMode mode = GetParam();
  constexpr size_t kRows = 4000;
  constexpr int64_t kStep = 8;
  // Distinct values (shuffled multiples of kStep), so a Delete by value
  // resolves exactly the intended row.
  auto distinct = [](uint64_t seed) {
    std::vector<int64_t> v(kRows);
    for (size_t i = 0; i < kRows; ++i) v[i] = static_cast<int64_t>(i) * kStep;
    Rng rng(seed);
    for (size_t i = kRows - 1; i > 0; --i) std::swap(v[i], v[rng.Below(i + 1)]);
    return v;
  };
  const std::vector<int64_t> a = distinct(81);
  const std::vector<int64_t> b = distinct(82);
  const int64_t a_lo = 1000 * kStep;
  const int64_t a_hi = a_lo + static_cast<int64_t>(kRows / 20) * kStep;
  const int64_t b_lo = 100 * kStep;
  const int64_t b_hi = static_cast<int64_t>(kRows) * kStep;
  auto in = [](int64_t v, int64_t lo, int64_t hi) { return v >= lo && v < hi; };

  // The row whose b value gets deleted qualifies on both conjuncts.
  size_t victim = kRows;
  for (size_t i = 0; i < kRows && victim == kRows; ++i) {
    if (in(a[i], a_lo, a_hi) && in(b[i], b_lo, b_hi)) victim = i;
  }
  ASSERT_LT(victim, kRows);
  // The multiset oracle: b's live base rows plus its live appended values.
  std::vector<std::optional<int64_t>> live_b(b.begin(), b.end());
  std::vector<int64_t> appended_b;

  persist::PersistOptions popts;
  popts.data_dir = temp_dir().string();
  popts.fsync = persist::FsyncPolicy::kAlways;
  auto check = [&](Database& db, const std::string& state) {
    SCOPED_TRACE(std::string(ExecModeName(mode)) + ": " + state);
    const ColumnHandle ha = db.Resolve("t", "a");
    const ColumnHandle hb = db.Resolve("t", "b");
    size_t count = 0;
    int64_t sum = 0;
    PositionList rowids;
    size_t b_count = 0;
    int64_t b_sum = 0;
    for (size_t i = 0; i < kRows; ++i) {
      if (!live_b[i] || !in(*live_b[i], b_lo, b_hi)) continue;
      ++b_count;
      b_sum += *live_b[i];
      if (!in(a[i], a_lo, a_hi)) continue;
      ++count;
      sum += *live_b[i];
      rowids.push_back(i);
    }
    for (int64_t v : appended_b) {
      if (!in(v, b_lo, b_hi)) continue;
      ++b_count;
      b_sum += v;
    }
    obs::Counter& probes =
        obs::MetricsRegistry::Global().GetCounter("holix_planner_probe_total");
    const uint64_t probes_before = probes.Value();
    QuerySpec spec;
    spec.Where(ha, a_lo, a_hi).Where(hb, b_lo, b_hi).Count().Sum(hb).RowIds();
    const QueryResult r = db.Execute(spec);
    EXPECT_EQ(probes.Value() - probes_before, 1u);  // b was the probed one
    EXPECT_EQ(r.values[0].i, static_cast<int64_t>(count));
    EXPECT_EQ(r.values[1].i, sum);
    EXPECT_EQ(r.rowids, rowids);
    QuerySpec only_b;
    only_b.Where(hb, b_lo, b_hi).Count().Sum(hb);
    const QueryResult rb = db.Execute(only_b);
    EXPECT_EQ(rb.values[0].i, static_cast<int64_t>(b_count));
    EXPECT_EQ(rb.values[1].i, b_sum);
  };

  {
    Database db(ModeOptions(mode));
    db.LoadColumn("t", "a", a);
    db.LoadColumn("t", "b", b);
    persist::PersistenceManager pm(db, popts);
    const ColumnHandle hb = db.Resolve("t", "b");
    check(db, "before any update");

    obs::Counter& merged = obs::MetricsRegistry::Global().GetCounter(
        "holix_ripple_merged_deletes_total");
    const uint64_t merged_before = merged.Value();
    ASSERT_TRUE(db.Delete(hb, b[victim]));
    live_b[victim].reset();
    check(db, "(i) base row deleted from b, pending");
    (void)test::Count(db, hb, b_lo, b_hi);
    EXPECT_GE(merged.Value() - merged_before, 1u);
    check(db, "(ii) after a query on b merged the delete");

    const int64_t fresh = 2000 * kStep + 1;  // no base row holds it
    (void)db.Insert(hb, fresh);
    appended_b.push_back(fresh);
    check(db, "row inserted into b");
    ASSERT_TRUE(db.Delete(hb, fresh));
    appended_b.clear();
    check(db, "(iii) row inserted into b and deleted again");
    pm.Checkpoint();
  }

  Database db2(ModeOptions(mode));
  persist::PersistenceManager pm2(db2, popts);
  ASSERT_TRUE(pm2.recovered());
  check(db2, "(iv) after checkpoint and warm recovery");
}

INSTANTIATE_TEST_SUITE_P(CrackingModes, ProbeDeleteTest,
                         ::testing::Values(ExecMode::kAdaptive,
                                           ExecMode::kStochastic,
                                           ExecMode::kCCGI,
                                           ExecMode::kHolistic));

}  // namespace
}  // namespace holix
