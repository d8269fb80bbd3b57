/// Tests for the physical reorganization kernels: correctness of every
/// partition kernel over parameterized pivots, sizes and distributions.

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <string>
#include <vector>

#include "cracking/crack_kernels.h"
#include "cracking/crack_kernels_simd.h"
#include "cracking/parallel_crack.h"
#include "test_support.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace holix {
namespace {

struct KernelInput {
  std::vector<int64_t> values;
  std::vector<RowId> ids;
};

KernelInput MakeInput(size_t n, int64_t domain, uint64_t seed) {
  Rng rng(seed);
  KernelInput in;
  in.values.resize(n);
  in.ids.resize(n);
  for (size_t i = 0; i < n; ++i) {
    in.values[i] = static_cast<int64_t>(rng.Below(domain));
    in.ids[i] = i;
  }
  return in;
}

/// Checks the two-way partition postcondition and multiset preservation.
void CheckTwoWay(const KernelInput& original, const KernelInput& cracked,
                 size_t cut, int64_t pivot) {
  ASSERT_EQ(original.values.size(), cracked.values.size());
  for (size_t i = 0; i < cut; ++i) {
    ASSERT_LT(cracked.values[i], pivot) << "position " << i;
  }
  for (size_t i = cut; i < cracked.values.size(); ++i) {
    ASSERT_GE(cracked.values[i], pivot) << "position " << i;
  }
  // (value, id) pairs must stay together and form the same multiset.
  for (size_t i = 0; i < cracked.values.size(); ++i) {
    ASSERT_EQ(original.values[cracked.ids[i]], cracked.values[i]);
  }
  auto ids_sorted = cracked.ids;
  std::sort(ids_sorted.begin(), ids_sorted.end());
  for (size_t i = 0; i < ids_sorted.size(); ++i) ASSERT_EQ(ids_sorted[i], i);
}

size_t ExpectedCut(const std::vector<int64_t>& v, int64_t pivot) {
  return std::count_if(v.begin(), v.end(),
                       [&](int64_t x) { return x < pivot; });
}

// --- Scalar kernel -----------------------------------------------------

class ScalarKernelTest
    : public ::testing::TestWithParam<std::tuple<size_t, int64_t>> {};

TEST_P(ScalarKernelTest, PartitionsCorrectly) {
  const auto [n, pivot] = GetParam();
  const KernelInput original = MakeInput(n, 1000, n + pivot);
  KernelInput in = original;
  const size_t cut = CrackInTwoScalar(
      in.values.data(), 0, n, pivot, [&](size_t i, size_t j) {
        std::swap(in.values[i], in.values[j]);
        std::swap(in.ids[i], in.ids[j]);
      });
  EXPECT_EQ(cut, ExpectedCut(original.values, pivot));
  CheckTwoWay(original, in, cut, pivot);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ScalarKernelTest,
    ::testing::Combine(::testing::Values(0, 1, 2, 3, 100, 1023, 4096),
                       ::testing::Values(-5, 0, 1, 250, 500, 999, 1000,
                                         2000)));

// --- Out-of-place kernel ------------------------------------------------

class OutOfPlaceKernelTest
    : public ::testing::TestWithParam<std::tuple<size_t, int64_t>> {};

TEST_P(OutOfPlaceKernelTest, PartitionsCorrectly) {
  const auto [n, pivot] = GetParam();
  const KernelInput original = MakeInput(n, 1000, 7 * n + pivot);
  KernelInput in = original;
  CrackScratch<int64_t> scratch;
  const size_t cut = CrackInTwoOutOfPlace(in.values.data(), in.ids.data(), 0,
                                          n, pivot, scratch);
  EXPECT_EQ(cut, ExpectedCut(original.values, pivot));
  CheckTwoWay(original, in, cut, pivot);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, OutOfPlaceKernelTest,
    ::testing::Combine(::testing::Values(0, 1, 2, 3, 100, 1023, 4096),
                       ::testing::Values(-5, 0, 1, 250, 500, 999, 1000,
                                         2000)));

TEST(OutOfPlaceKernel, SubrangeOnly) {
  const KernelInput original = MakeInput(1000, 100, 5);
  KernelInput in = original;
  CrackScratch<int64_t> scratch;
  const size_t cut = CrackInTwoOutOfPlace(in.values.data(), in.ids.data(),
                                          size_t{200}, size_t{700},
                                          int64_t{50}, scratch);
  for (size_t i = 0; i < 200; ++i) ASSERT_EQ(in.values[i], original.values[i]);
  for (size_t i = 700; i < 1000; ++i)
    ASSERT_EQ(in.values[i], original.values[i]);
  for (size_t i = 200; i < cut; ++i) ASSERT_LT(in.values[i], 50);
  for (size_t i = cut; i < 700; ++i) ASSERT_GE(in.values[i], 50);
}

// --- Parallel kernel ----------------------------------------------------

ParallelCrackOptions MorselOptions(size_t threads, size_t min_parallel_piece) {
  ParallelCrackOptions opts;
  opts.threads = threads;
  opts.min_parallel_piece = min_parallel_piece;
  return opts;
}

class ParallelKernelTest
    : public ::testing::TestWithParam<std::tuple<size_t, size_t>> {};

TEST_P(ParallelKernelTest, MatchesSequentialSemantics) {
  const auto [n, threads] = GetParam();
  ThreadPool pool(threads);
  const KernelInput original = MakeInput(n, 1u << 20, n * threads + 3);
  KernelInput in = original;
  const int64_t pivot = 1 << 19;
  const size_t cut =
      ParallelCrackInTwo(in.values.data(), in.ids.data(), 0, n, pivot, pool,
                         MorselOptions(threads, /*min_parallel_piece=*/256));
  EXPECT_EQ(cut, ExpectedCut(original.values, pivot));
  CheckTwoWay(original, in, cut, pivot);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ParallelKernelTest,
    ::testing::Combine(::testing::Values(1000, 4096, 65536, 300000),
                       ::testing::Values(1, 2, 3, 4, 8)));

TEST(ParallelKernel, AllValuesBelowPivot) {
  ThreadPool pool(4);
  KernelInput in = MakeInput(10000, 100, 1);
  const size_t cut = ParallelCrackInTwo(in.values.data(), in.ids.data(), 0,
                                        in.values.size(), int64_t{1000}, pool,
                                        MorselOptions(4, 256));
  EXPECT_EQ(cut, in.values.size());
}

TEST(ParallelKernel, AllValuesAtOrAbovePivot) {
  ThreadPool pool(4);
  KernelInput in = MakeInput(10000, 100, 2);
  const size_t cut = ParallelCrackInTwo(in.values.data(), in.ids.data(), 0,
                                        in.values.size(), int64_t{-1}, pool,
                                        MorselOptions(4, 256));
  EXPECT_EQ(cut, 0u);
}

TEST(ParallelKernel, SubrangePreservesOutside) {
  ThreadPool pool(4);
  const KernelInput original = MakeInput(100000, 1u << 16, 9);
  KernelInput in = original;
  const size_t lo = 10000, hi = 90000;
  const int64_t pivot = 1 << 15;
  ParallelCrackInTwo(in.values.data(), in.ids.data(), lo, hi, pivot, pool,
                     MorselOptions(4, 256));
  for (size_t i = 0; i < lo; ++i) ASSERT_EQ(in.values[i], original.values[i]);
  for (size_t i = hi; i < in.values.size(); ++i)
    ASSERT_EQ(in.values[i], original.values[i]);
}

// --- Boundary cases, for each two-way kernel -----------------------------

/// One two-way kernel under test: cracks [lo, hi) of \p in at \p pivot.
struct TwoWayKernel {
  const char* name;
  size_t (*crack)(KernelInput& in, size_t lo, size_t hi, int64_t pivot);
};

size_t RunScalar(KernelInput& in, size_t lo, size_t hi, int64_t pivot) {
  return CrackInTwoScalar(in.values.data(), lo, hi, pivot,
                          [&](size_t i, size_t j) {
                            std::swap(in.values[i], in.values[j]);
                            std::swap(in.ids[i], in.ids[j]);
                          });
}

size_t RunOutOfPlace(KernelInput& in, size_t lo, size_t hi, int64_t pivot) {
  CrackScratch<int64_t> scratch;
  return CrackInTwoOutOfPlace(in.values.data(), in.ids.data(), lo, hi, pivot,
                              scratch);
}

size_t RunParallel(KernelInput& in, size_t lo, size_t hi, int64_t pivot) {
  ThreadPool pool(4);
  return ParallelCrackInTwo(in.values.data(), in.ids.data(), lo, hi, pivot,
                            pool, MorselOptions(4, /*min_parallel_piece=*/64));
}

size_t RunSimd(KernelInput& in, size_t lo, size_t hi, int64_t pivot) {
  CrackScratch<int64_t> scratch;
  return CrackInTwoSimd(in.values.data(), in.ids.data(), lo, hi, pivot,
                        scratch);
}

class KernelBoundaryTest : public ::testing::TestWithParam<TwoWayKernel> {};

TEST_P(KernelBoundaryTest, EmptyPieceIsANoOp) {
  const KernelInput original = MakeInput(100, 1000, 17);
  KernelInput in = original;
  // lo == hi in the middle of live data: nothing may move.
  const size_t cut = GetParam().crack(in, 50, 50, 500);
  EXPECT_EQ(cut, 50u);
  EXPECT_EQ(in.values, original.values);
  EXPECT_EQ(in.ids, original.ids);
}

TEST_P(KernelBoundaryTest, SingleElementPiece) {
  for (const int64_t value : {int64_t{10}, int64_t{500}}) {
    for (const int64_t pivot : {int64_t{10}, int64_t{11}, int64_t{499}}) {
      KernelInput in;
      in.values = {value};
      in.ids = {0};
      const size_t cut = GetParam().crack(in, 0, 1, pivot);
      EXPECT_EQ(cut, value < pivot ? 1u : 0u)
          << "value=" << value << " pivot=" << pivot;
      EXPECT_EQ(in.values[0], value);
      EXPECT_EQ(in.ids[0], 0u);
    }
  }
}

TEST_P(KernelBoundaryTest, AllEqualKeys) {
  const size_t n = 1024;
  KernelInput original;
  original.values = test::MakeAllEqual(n, 42);
  original.ids.resize(n);
  for (size_t i = 0; i < n; ++i) original.ids[i] = i;
  struct Case {
    int64_t pivot;
    size_t expected_cut;
  };
  for (const Case c : {Case{42, 0}, Case{43, n}, Case{41, 0}}) {
    KernelInput in = original;
    const size_t cut = GetParam().crack(in, 0, n, c.pivot);
    EXPECT_EQ(cut, c.expected_cut) << "pivot=" << c.pivot;
    CheckTwoWay(original, in, cut, c.pivot);
  }
}

TEST_P(KernelBoundaryTest, PivotOutsideValueRange) {
  const KernelInput original = MakeInput(4096, 1000, 23);
  KernelInput in = original;
  // Below every value: cut at lo, nothing qualifies as "< pivot".
  size_t cut = GetParam().crack(in, 0, in.values.size(), -7);
  EXPECT_EQ(cut, 0u);
  CheckTwoWay(original, in, cut, -7);
  // Above every value: cut at hi, everything is "< pivot".
  cut = GetParam().crack(in, 0, in.values.size(), 10000);
  EXPECT_EQ(cut, in.values.size());
  CheckTwoWay(original, in, cut, 10000);
}

TEST_P(KernelBoundaryTest, SubrangeBoundariesUntouched) {
  const KernelInput original = MakeInput(2048, 1000, 29);
  KernelInput in = original;
  const size_t lo = 512, hi = 1536;
  const size_t cut = GetParam().crack(in, lo, hi, 500);
  EXPECT_GE(cut, lo);
  EXPECT_LE(cut, hi);
  for (size_t i = 0; i < lo; ++i) ASSERT_EQ(in.values[i], original.values[i]);
  for (size_t i = hi; i < in.values.size(); ++i)
    ASSERT_EQ(in.values[i], original.values[i]);
  for (size_t i = lo; i < cut; ++i) ASSERT_LT(in.values[i], 500);
  for (size_t i = cut; i < hi; ++i) ASSERT_GE(in.values[i], 500);
}

INSTANTIATE_TEST_SUITE_P(
    AllKernels, KernelBoundaryTest,
    ::testing::Values(TwoWayKernel{"Scalar", RunScalar},
                      TwoWayKernel{"OutOfPlace", RunOutOfPlace},
                      TwoWayKernel{"Parallel", RunParallel},
                      TwoWayKernel{"Simd", RunSimd}),
    [](const auto& info) { return std::string(info.param.name); });

}  // namespace
}  // namespace holix
