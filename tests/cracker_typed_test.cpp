/// Typed tests: the cracking stack must behave identically for int32,
/// int64 and double key columns (the engine instantiates all three;
/// doubles order through the KeyTraits<double> total order).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>
#include <vector>

#include "cracking/cracker_column.h"
#include "cracking/cracker_index.h"
#include "obs/metrics.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace holix {
namespace {

template <typename T>
class TypedCrackerTest : public ::testing::Test {
 protected:
  static std::vector<T> MakeUniform(size_t n, int64_t domain, uint64_t seed) {
    Rng rng(seed);
    std::vector<T> v(n);
    for (auto& x : v) x = static_cast<T>(rng.Below(domain));
    return v;
  }

  static size_t NaiveCount(const std::vector<T>& v, T lo, T hi) {
    size_t c = 0;
    for (T x : v) c += (x >= lo && x < hi) ? 1 : 0;
    return c;
  }
};

using KeyTypes = ::testing::Types<int32_t, int64_t, double>;
TYPED_TEST_SUITE(TypedCrackerTest, KeyTypes);

TYPED_TEST(TypedCrackerTest, SelectMatchesNaive) {
  const auto base = this->MakeUniform(50000, 1 << 20, 1);
  CrackerColumn<TypeParam> col("a", base);
  Rng rng(2);
  for (int i = 0; i < 80; ++i) {
    const TypeParam lo = static_cast<TypeParam>(rng.Below(1 << 20));
    const TypeParam hi =
        static_cast<TypeParam>(std::min<int64_t>((1 << 20), lo + 1 + rng.Below(1 << 16)));
    ASSERT_EQ(col.SelectRange(lo, hi).size(), this->NaiveCount(base, lo, hi));
  }
  EXPECT_TRUE(col.CheckInvariants());
}

TYPED_TEST(TypedCrackerTest, RefineAndInvariants) {
  const auto base = this->MakeUniform(30000, 1 << 16, 3);
  CrackerColumn<TypeParam> col("a", base);
  Rng rng(4);
  size_t cracks = 0;
  for (int i = 0; i < 200; ++i) {
    cracks += col.TryRefineAt(static_cast<TypeParam>(rng.Below(1 << 16)))
                  ? 1
                  : 0;
  }
  EXPECT_GT(cracks, 100u);
  EXPECT_EQ(col.NumPieces(), cracks + 1);
  EXPECT_TRUE(col.CheckInvariants());
}

TYPED_TEST(TypedCrackerTest, ExtremeDomainValues) {
  using KT = KeyTraits<TypeParam>;
  // Lowest() is INT_MIN for the integer types, -inf for double; `top` is
  // numeric max (DBL_MAX for double), `below_top` its total-order
  // predecessor (max-1, or nextdown(DBL_MAX)).
  const TypeParam lo = KT::Lowest();
  const TypeParam top = std::numeric_limits<TypeParam>::max();
  const TypeParam below_top = KT::FromRank(KT::ToRank(top) - 1);
  std::vector<TypeParam> base = {lo, -1, 0, 1, below_top, top};
  CrackerColumn<TypeParam> col("a", base);
  EXPECT_EQ(col.SelectRange(lo, top).size(), 5u);  // everything except top
  EXPECT_EQ(col.SelectRange(lo, std::nullopt).size(), 6u);
  EXPECT_EQ(col.SelectRange(0, 2).size(), 2u);
  EXPECT_TRUE(col.CheckInvariants());
}

TYPED_TEST(TypedCrackerTest, CrackerIndexLookups) {
  CrackerIndex<TypeParam> idx;
  idx.Insert(10, 5);
  idx.Insert(20, 9);
  const auto piece = idx.FindPiece(15, 100);
  EXPECT_EQ(piece.begin, 5u);
  EXPECT_EQ(piece.end, 9u);
  EXPECT_EQ(*piece.lo_value, 10);
  EXPECT_EQ(*piece.hi_value, 20);
}

TYPED_TEST(TypedCrackerTest, RippleInsertTyped) {
  const auto base = this->MakeUniform(5000, 1000, 5);
  CrackerColumn<TypeParam> col("a", base);
  col.SelectRange(200, 600);
  const size_t before = col.SelectRange(300, 310).size();
  col.pending().AddInsert(static_cast<TypeParam>(305), 99999);
  col.MergePendingInRange(static_cast<TypeParam>(300),
                          static_cast<TypeParam>(310));
  EXPECT_EQ(col.SelectRange(300, 310).size(), before + 1);
  EXPECT_TRUE(col.CheckInvariants());
}

TYPED_TEST(TypedCrackerTest, SelectInsideOnePieceCracksTwice) {
  // Every crack is a two-way partition: a select whose bounds share one
  // piece cracks at low, then at high — two kernel calls, two boundaries,
  // each at #{x : x < bound}.
  using T = TypeParam;
  const auto base = this->MakeUniform(40000, 1 << 16, 5);
  CrackerColumn<T> col("a", base);
  obs::Counter& cracks =
      obs::MetricsRegistry::Global().GetCounter("holix_cracks_total");
  auto below = [&](T w) {
    return static_cast<size_t>(std::count_if(
        base.begin(), base.end(), [&](T x) { return KeyTraits<T>::Less(x, w); }));
  };
  auto check_select = [&](T lo, T hi) {
    const uint64_t before = cracks.Value();
    const PositionRange r = col.SelectRange(lo, hi);
    EXPECT_EQ(cracks.Value(), before + 2) << "[" << lo << ", " << hi << ")";
    EXPECT_EQ(r.begin, below(lo));
    EXPECT_EQ(r.end, below(hi));
  };
  check_select(static_cast<T>(1000), static_cast<T>(3000));  // uncracked
  check_select(static_cast<T>(40000), static_cast<T>(50000));  // top piece
  check_select(static_cast<T>(1500), static_cast<T>(2500));  // inner piece
  std::vector<std::pair<T, size_t>> expected;
  for (const int w : {1000, 1500, 2500, 3000, 40000, 50000}) {
    expected.emplace_back(static_cast<T>(w), below(static_cast<T>(w)));
  }
  EXPECT_EQ(col.ExportBoundaries(), expected);
  EXPECT_TRUE(col.CheckInvariants());
}

// --- double-only total-order semantics at the cracking layer -------------

TEST(DoubleCrackerSemantics, SpecialKeysOrderAndSelect) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<double> base = {nan, -kInf, -0.0, 0.0, 1.5, kInf, 3.25};
  CrackerColumn<double> col("d", base);
  // -0.0 and +0.0 are the same key.
  EXPECT_EQ(col.SelectRange(0.0, 1.0).size(), 2u);
  // A half-open high at the NaN key selects everything below it.
  EXPECT_EQ(col.SelectRange(-kInf, KeyTraits<double>::Highest()).size(), 6u);
  // The open top reaches the NaN key itself.
  EXPECT_EQ(col.SelectRange(-kInf, std::nullopt).size(), 7u);
  EXPECT_EQ(col.SelectRange(nan, std::nullopt).size(), 1u);
  // +inf is an ordinary orderable key just below NaN.
  EXPECT_EQ(col.SelectRange(kInf, KeyTraits<double>::Highest()).size(), 1u);
  EXPECT_TRUE(col.CheckInvariants());
}

TEST(DoubleCrackerSemantics, NaNRowsNeverWedgeTheKernels) {
  // A column salted with NaNs must crack to the same consistent piece
  // structure on every kernel path — 1 thread (SIMD), 4 threads
  // (morsel-parallel) and a payload-aligned column (the scalar Hoare
  // kernel, which with raw `<` would spin or tear).
  Rng data_rng(7);
  std::vector<double> base(size_t{1} << 17);
  for (size_t i = 0; i < base.size(); ++i) {
    base[i] = (i % 97 == 0)
                  ? std::numeric_limits<double>::quiet_NaN()
                  : static_cast<double>(data_rng.Below(1 << 16)) + 0.25;
  }
  const size_t nans = (base.size() + 96) / 97;
  ThreadPool pool(4);
  struct Path {
    size_t threads;
    bool payload;
  };
  std::vector<size_t> reference_counts;
  std::vector<std::pair<double, size_t>> reference_boundaries;
  for (const Path path : {Path{1, false}, Path{4, false}, Path{1, true}}) {
    SCOPED_TRACE(::testing::Message() << "threads=" << path.threads
                                      << " payload=" << path.payload);
    CrackerColumn<double> col("d", base);
    if (path.payload) {
      col.AttachPayload(std::vector<int64_t>(base.size(), 0));
    }
    CrackConfig cfg;
    cfg.pool = &pool;
    cfg.parallel_threads = path.threads;
    Rng rng(11);
    std::vector<size_t> counts;
    for (int i = 0; i < 60; ++i) {
      const double lo = static_cast<double>(rng.Below(1 << 16));
      const double hi = lo + 1.0 + static_cast<double>(rng.Below(1 << 12));
      size_t naive = 0;
      for (double x : base) {
        if (!(x != x) && x >= lo && x < hi) ++naive;
      }
      counts.push_back(col.SelectRange(lo, hi, cfg).size());
      ASSERT_EQ(counts.back(), naive) << "query " << i;
    }
    // All NaNs sit in the open top above +inf.
    EXPECT_EQ(col.SelectRange(std::numeric_limits<double>::infinity(),
                              std::nullopt, cfg)
                  .size(),
              nans);
    EXPECT_TRUE(col.CheckInvariants());
    if (reference_counts.empty()) {
      reference_counts = counts;
      reference_boundaries = col.ExportBoundaries();
    } else {
      EXPECT_EQ(counts, reference_counts);
      EXPECT_EQ(col.ExportBoundaries(), reference_boundaries);
    }
  }
}

}  // namespace
}  // namespace holix
