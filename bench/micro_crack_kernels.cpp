/// \file micro_crack_kernels.cpp
/// \brief Microbenchmarks of the cracking kernels and the cracker index:
/// the CPU-efficiency story behind §4.2 / [44] and the SIMD kernel tier.
///
/// Two output stages:
///   1. A fixed summary table at `HOLIX_MICRO_N` rows (default 2^24):
///      seconds per crack-in-two for scalar / out-of-place / SIMD and the
///      morsel-parallel kernel, each with the resulting cut index as a
///      correctness checksum. With `HOLIX_BENCH_JSON=<dir>` the
///      table lands in `<dir>/BENCH_micro_kernels.json`, which
///      `tools/bench_compare.py` gates against `bench/results/`.
///      `HOLIX_MICRO_SUMMARY_ONLY=1` exits after this stage (CI).
///   2. The google-benchmark size/thread sweeps.
///
/// Timing discipline: inputs are pre-generated once and cracked through a
/// small ring of pristine copies; the restore memcpy runs outside the
/// measured window (`UseManualTime`). The previous PauseTiming/ResumeTiming
/// pattern paid the timer bookkeeping inside the measured loop, which
/// skewed the small-N rows by a measurable constant.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <numeric>
#include <string>
#include <string_view>
#include <vector>

#include "cracking/crack_kernels.h"
#include "cracking/crack_kernels_simd.h"
#include "cracking/cracker_column.h"
#include "cracking/cracker_index.h"
#include "cracking/parallel_crack.h"
#include "harness/report.h"
#include "util/env.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace {

using namespace holix;

constexpr int64_t kDomain = int64_t{1} << 30;
constexpr int64_t kPivot = int64_t{1} << 29;

template <typename T>
std::vector<T> MakeData(size_t n) {
  Rng rng(7);
  std::vector<T> v(n);
  for (auto& x : v) {
    x = static_cast<T>(static_cast<int64_t>(rng.Below(kDomain)));
  }
  return v;
}

double Seconds(std::chrono::steady_clock::time_point t0,
               std::chrono::steady_clock::time_point t1) {
  return std::chrono::duration<double>(t1 - t0).count();
}

/// A ring of pristine copies of one (values, rowids) column. Each timed
/// iteration cracks the next slot; the slot is then restored from the base
/// copy outside the measured window. Rotating across several copies keeps
/// the just-restored (cache-hot) buffer from being the very next input at
/// small N. The ring is capped by a memory budget so 2^22-row inputs do not
/// allocate gigabytes.
template <typename T>
class RotatingInputs {
 public:
  explicit RotatingInputs(size_t n, size_t budget_bytes = size_t{256} << 20)
      : n_(n), base_v_(MakeData<T>(n)), base_i_(n) {
    std::iota(base_i_.begin(), base_i_.end(), RowId{0});
    const size_t copy_bytes = n * (sizeof(T) + sizeof(RowId));
    size_t copies =
        std::max<size_t>(1, budget_bytes / std::max<size_t>(1, copy_bytes));
    copies = std::min<size_t>(copies, 8);
    v_.resize(copies);
    ids_.resize(copies);
    for (size_t c = 0; c < copies; ++c) {
      v_[c] = base_v_;
      ids_[c] = base_i_;
    }
  }

  size_t Acquire() { return next_++ % v_.size(); }
  T* values(size_t slot) { return v_[slot].data(); }
  RowId* rowids(size_t slot) { return ids_[slot].data(); }
  size_t size() const { return n_; }

  void Restore(size_t slot) {
    std::memcpy(v_[slot].data(), base_v_.data(), n_ * sizeof(T));
    std::memcpy(ids_[slot].data(), base_i_.data(), n_ * sizeof(RowId));
  }

 private:
  size_t n_;
  std::vector<T> base_v_;
  std::vector<RowId> base_i_;
  std::vector<std::vector<T>> v_;
  std::vector<std::vector<RowId>> ids_;
  size_t next_ = 0;
};

/// Shared manual-time loop: crack(values, rowids, n) on a pristine slot per
/// iteration, restore untimed.
template <typename Fn>
void RunKernelBench(benchmark::State& state, size_t n, Fn crack) {
  RotatingInputs<int64_t> rot(n);
  for (auto _ : state) {
    const size_t slot = rot.Acquire();
    const auto t0 = std::chrono::steady_clock::now();
    const size_t cut = crack(rot.values(slot), rot.rowids(slot), n);
    const auto t1 = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(cut);
    state.SetIterationTime(Seconds(t0, t1));
    rot.Restore(slot);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}

void BM_CrackInTwoScalar(benchmark::State& state) {
  RunKernelBench(state, static_cast<size_t>(state.range(0)),
                 [](int64_t* v, RowId* ids, size_t n) {
                   return CrackInTwoScalar(v, 0, n, kPivot,
                                           [&](size_t i, size_t j) {
                                             std::swap(v[i], v[j]);
                                             std::swap(ids[i], ids[j]);
                                           });
                 });
}
BENCHMARK(BM_CrackInTwoScalar)->Range(1 << 14, 1 << 22)->UseManualTime();

void BM_CrackInTwoOutOfPlace(benchmark::State& state) {
  CrackScratch<int64_t> scratch;
  RunKernelBench(state, static_cast<size_t>(state.range(0)),
                 [&](int64_t* v, RowId* ids, size_t n) {
                   return CrackInTwoOutOfPlace(v, ids, 0, n, kPivot, scratch);
                 });
}
BENCHMARK(BM_CrackInTwoOutOfPlace)->Range(1 << 14, 1 << 22)->UseManualTime();

void BM_CrackInTwoSimd(benchmark::State& state) {
  CrackScratch<int64_t> scratch;
  RunKernelBench(state, static_cast<size_t>(state.range(0)),
                 [&](int64_t* v, RowId* ids, size_t n) {
                   return CrackInTwoSimd(v, ids, 0, n, kPivot, scratch);
                 });
}
BENCHMARK(BM_CrackInTwoSimd)->Range(1 << 14, 1 << 22)->UseManualTime();

/// Morsel-parallel cracking at a fixed 2^22 rows; the argument is the
/// thread count.
void BM_ParallelCrackMorsel(benchmark::State& state) {
  const size_t n = 1 << 22;
  const size_t threads = static_cast<size_t>(state.range(0));
  ThreadPool pool(threads);
  ParallelCrackOptions opts;
  opts.threads = threads;
  RotatingInputs<int64_t> rot(n);
  for (auto _ : state) {
    const size_t slot = rot.Acquire();
    const auto t0 = std::chrono::steady_clock::now();
    const size_t cut = ParallelCrackInTwo(rot.values(slot), rot.rowids(slot),
                                          0, n, kPivot, pool, opts);
    const auto t1 = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(cut);
    state.SetIterationTime(Seconds(t0, t1));
    rot.Restore(slot);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_ParallelCrackMorsel)->RangeMultiplier(2)->Range(1, 16)
    ->UseManualTime();

void BM_CrackerIndexLookup(benchmark::State& state) {
  const size_t boundaries = state.range(0);
  CrackerIndex<int64_t> index;
  Rng rng(3);
  for (size_t i = 0; i < boundaries; ++i) {
    index.Insert(static_cast<int64_t>(rng.Below(kDomain)), i);
  }
  int64_t probe = 0;
  for (auto _ : state) {
    probe = (probe + 0x9E3779B9) & (kDomain - 1);
    benchmark::DoNotOptimize(index.FindPiece(probe, boundaries + 1));
  }
}
BENCHMARK(BM_CrackerIndexLookup)->Range(16, 1 << 16);

void BM_SelectRangeConverged(benchmark::State& state) {
  // Query latency once an index is fully refined: the holistic end state.
  const size_t n = 1 << 22;
  CrackerColumn<int64_t> col("bench", MakeData<int64_t>(n));
  Rng rng(11);
  for (int i = 0; i < 4096; ++i) {
    col.TryRefineAt(static_cast<int64_t>(rng.Below(kDomain)));
  }
  for (auto _ : state) {
    const int64_t lo = static_cast<int64_t>(rng.Below(kDomain));
    benchmark::DoNotOptimize(col.SelectRange(lo, lo + (1 << 20)));
  }
}
BENCHMARK(BM_SelectRangeConverged);

// ---------------------------------------------------------------------------
// Summary table: the committed/gated baseline artifact.

/// Best-of-\p reps seconds for one crack kernel over a single restorable
/// buffer (at summary N a rotation ring would cost gigabytes; one copy is
/// DRAM-resident anyway at 2^24 rows).
template <typename T, typename Fn>
double BestOf(int reps, std::vector<T>& v, std::vector<RowId>& ids,
              const std::vector<T>& base_v, const std::vector<RowId>& base_i,
              size_t* cut_out, Fn crack) {
  double best = std::numeric_limits<double>::infinity();
  for (int r = 0; r < reps; ++r) {
    std::memcpy(v.data(), base_v.data(), base_v.size() * sizeof(T));
    std::memcpy(ids.data(), base_i.data(), base_i.size() * sizeof(RowId));
    const auto t0 = std::chrono::steady_clock::now();
    const size_t cut = crack(v.data(), ids.data(), v.size());
    const auto t1 = std::chrono::steady_clock::now();
    best = std::min(best, Seconds(t0, t1));
    *cut_out = cut;
  }
  return best;
}

/// One typed scalar/simd row pair on its own freshly generated column. Both
/// rows crack the same data, so their checksums must match; pairing the two
/// tiers per element type keeps the committed speedups apples-to-apples
/// (an int64 scalar vs int32 simd ratio would conflate width with kernel).
template <typename T>
double AddTypedRows(ReportTable& table, const std::string& suffix, size_t n,
                    int reps) {
  const auto base_v = MakeData<T>(n);
  std::vector<RowId> base_i(n);
  std::iota(base_i.begin(), base_i.end(), RowId{0});
  auto v = base_v;
  auto ids = base_i;
  CrackScratch<T> scratch;
  size_t cut = 0;
  const double scalar_s =
      BestOf<T>(reps, v, ids, base_v, base_i, &cut,
                [](T* vv, RowId* ii, size_t nn) {
                  return CrackInTwoScalar(vv, 0, nn, static_cast<T>(kPivot),
                                          [&](size_t i, size_t j) {
                                            std::swap(vv[i], vv[j]);
                                            std::swap(ii[i], ii[j]);
                                          });
                });
  table.AddRow({"scalar-" + suffix, FormatSeconds(scalar_s),
                std::to_string(cut)});
  const double simd_s = BestOf<T>(reps, v, ids, base_v, base_i, &cut,
                                  [&](T* vv, RowId* ii, size_t nn) {
                                    return CrackInTwoSimd(
                                        vv, ii, 0, nn, static_cast<T>(kPivot),
                                        scratch);
                                  });
  table.AddRow({"simd-" + suffix, FormatSeconds(simd_s),
                std::to_string(cut)});
  return scalar_s / simd_s;
}

/// Times every kernel tier at HOLIX_MICRO_N rows and writes the gateable
/// table. The scalar / oop / simd / parallel rows all crack the same int64
/// column with the same pivot, so their "cut checksum" cells must agree —
/// a baseline diff in that column is a correctness bug, not a perf delta.
void RunSummary() {
  const size_t n = static_cast<size_t>(
      std::max<int64_t>(1, EnvInt("HOLIX_MICRO_N", int64_t{1} << 24)));
  const int reps = static_cast<int>(
      std::max<int64_t>(1, EnvInt("HOLIX_MICRO_REPS", 3)));
  const size_t threads = static_cast<size_t>(
      std::max<int64_t>(1, EnvInt("HOLIX_MICRO_THREADS", 4)));
  std::printf("# micro_kernels summary: n=%zu reps=%d threads=%zu "
              "simd=%s (HOLIX_MICRO_N / HOLIX_MICRO_REPS / "
              "HOLIX_MICRO_THREADS / HOLIX_SIMD override)\n",
              n, reps, threads, SimdLevelName(DetectSimdLevel()));

  const auto base_v = MakeData<int64_t>(n);
  std::vector<RowId> base_i(n);
  std::iota(base_i.begin(), base_i.end(), RowId{0});
  auto v = base_v;
  auto ids = base_i;
  CrackScratch<int64_t> scratch;
  size_t cut = 0;

  ReportTable table("micro crack kernels: seconds per crack-in-two, n=2^" +
                    std::to_string(static_cast<int>(std::log2(double(n)))));
  table.SetHeader({"kernel", "seconds/crack", "cut checksum"});

  const double scalar_s =
      BestOf<int64_t>(reps, v, ids, base_v, base_i, &cut,
                      [](int64_t* vv, RowId* ii, size_t nn) {
                        return CrackInTwoScalar(vv, 0, nn, kPivot,
                                                [&](size_t i, size_t j) {
                                                  std::swap(vv[i], vv[j]);
                                                  std::swap(ii[i], ii[j]);
                                                });
                      });
  table.AddRow({"scalar", FormatSeconds(scalar_s), std::to_string(cut)});

  const double oop_s =
      BestOf<int64_t>(reps, v, ids, base_v, base_i, &cut,
                      [&](int64_t* vv, RowId* ii, size_t nn) {
                        return CrackInTwoOutOfPlace(vv, ii, 0, nn, kPivot,
                                                    scratch);
                      });
  table.AddRow({"oop", FormatSeconds(oop_s), std::to_string(cut)});

  const double simd_s =
      BestOf<int64_t>(reps, v, ids, base_v, base_i, &cut,
                      [&](int64_t* vv, RowId* ii, size_t nn) {
                        return CrackInTwoSimd(vv, ii, 0, nn, kPivot, scratch);
                      });
  table.AddRow({"simd", FormatSeconds(simd_s), std::to_string(cut)});

  const double int32_speedup = AddTypedRows<int32_t>(table, "int32", n, reps);
  const double f64_speedup = AddTypedRows<double>(table, "f64", n, reps);

  {
    ThreadPool pool(threads);
    ParallelCrackOptions opts;
    opts.threads = threads;
    const double s =
        BestOf<int64_t>(reps, v, ids, base_v, base_i, &cut,
                        [&](int64_t* vv, RowId* ii, size_t nn) {
                          return ParallelCrackInTwo(vv, ii, 0, nn, kPivot,
                                                    pool, opts);
                        });
    table.AddRow({"parallel-morsel x" + std::to_string(threads),
                  FormatSeconds(s), std::to_string(cut)});
  }

  std::printf("# simd vs scalar: %.2fx (int64), %.2fx (int32), %.2fx (f64); "
              "simd vs oop: %.2fx\n",
              scalar_s / simd_s, int32_speedup, f64_speedup, oop_s / simd_s);
  table.Print();

  const char* dir = std::getenv("HOLIX_BENCH_JSON");
  if (dir != nullptr && *dir != '\0') {
    const std::string path =
        std::string(dir) + "/BENCH_micro_kernels.json";
    if (table.SaveJson(path)) {
      std::printf("# wrote %s\n", path.c_str());
    } else {
      std::fprintf(stderr, "# failed to write %s\n", path.c_str());
    }
  }
}

bool SummaryOnly() {
  const char* s = std::getenv("HOLIX_MICRO_SUMMARY_ONLY");
  return s != nullptr && *s != '\0' && std::string_view(s) != "0";
}

}  // namespace

int main(int argc, char** argv) {
  RunSummary();
  if (SummaryOnly()) return 0;
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
