/// \file crack_kernels_simd.h
/// \brief SIMD crack-in-two kernels (the "vectorized cracking" tier, §5.1).
///
/// Runtime-dispatched AVX2 / AVX-512 implementations of the out-of-place
/// crack-in-two for the three indexable key types (int32, int64, double),
/// co-moving the rowid array. The hot loop is compare → movemask →
/// compress-store: AVX2 emulates the compress with a table-driven
/// cross-lane permute (`vpermd`), AVX-512 uses native `vcompress` stores.
///
/// Layout contract — the SIMD kernels produce *byte-identical* output to
/// `CrackInTwoOutOfPlace`: lows keep input order at the front of the piece,
/// highs land in reverse input order at the back. Internally each vector of
/// keys+rowids is loaded into registers first, then its lows are compressed
/// *directly into the column* at the low cursor — safe because the low
/// cursor can never outrun the read cursor by more than the vector already
/// held in registers — while highs stream forward into scratch and are
/// copied back reversed (with a lane-reversing vector loop) at the end.
/// Writing highs straight to the back is impossible under this contract:
/// the tail of the piece is exactly the input that has not been read yet.
/// This costs ~3 bytes of traffic per input byte (read, low/high write,
/// high re-read+write) versus ~4 for the naive both-streams-in-scratch
/// scheme, which is what the memory-bound large-N case is limited by.
/// Because the portable fallback *is* `CrackInTwoOutOfPlace`, a SIMD
/// crack returns the same array bytes on every host regardless of the
/// dispatched level — checksums never depend on the ISA.
///
/// Ordering semantics: integer lanes compare with signed `<`, which equals
/// `KeyTraits<int>::Less`. Double lanes compare with IEEE `LT_OQ`, which
/// equals `KeyTraits<double>::Less` for every non-NaN pivot (NaN lanes
/// compare false on both sides; -0.0 == +0.0 under IEEE, matching the rank
/// order). A NaN pivot sits above +inf in the engine's total order, so for
/// that single case the predicate becomes "lane is ordered" (`ORD_Q`). The
/// scalar tail (n mod lane-width) goes through `KeyTraits<T>::Less` proper.
///
/// Dispatch: `DetectSimdLevel()` CPUID-probes once (cached); the
/// `HOLIX_SIMD` env var (`portable|avx2|avx512`) clamps the level down for
/// testing. Building with `-DHOLIX_NATIVE=ON` (-march=native) turns the
/// probe into a compile-time constant on hosts whose ISA is baked into the
/// binary.

#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string_view>
#include <type_traits>

#include "cracking/crack_kernels.h"
#include "obs/metrics.h"
#include "storage/types.h"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define HOLIX_SIMD_X86 1
#include <immintrin.h>
#else
#define HOLIX_SIMD_X86 0
#endif

namespace holix {

/// Instruction-set tier a crack kernel may use.
enum class SimdLevel : int {
  kPortable = 0,  ///< Scalar predicated kernel (CrackInTwoOutOfPlace).
  kAvx2 = 1,      ///< 256-bit compare/movemask + table-driven compress.
  kAvx512 = 2,    ///< 512-bit compare-into-mask + native vcompress stores.
};

inline const char* SimdLevelName(SimdLevel level) {
  switch (level) {
    case SimdLevel::kAvx2:
      return "avx2";
    case SimdLevel::kAvx512:
      return "avx512";
    default:
      return "portable";
  }
}

/// Parses a HOLIX_SIMD value; unknown strings yield nullopt (= no override).
inline std::optional<SimdLevel> ParseSimdLevel(std::string_view s) {
  if (s == "portable" || s == "scalar" || s == "off" || s == "0")
    return SimdLevel::kPortable;
  if (s == "avx2") return SimdLevel::kAvx2;
  if (s == "avx512") return SimdLevel::kAvx512;
  return std::nullopt;
}

/// The best tier this CPU supports (ignores the env override).
inline SimdLevel DetectHardwareSimdLevel() {
#if HOLIX_SIMD_X86
#if defined(__AVX512F__)
  // -march=native on an AVX-512 host: the whole binary already assumes the
  // ISA, so the probe folds to a constant.
  return SimdLevel::kAvx512;
#else
  if (__builtin_cpu_supports("avx512f")) return SimdLevel::kAvx512;
#if defined(__AVX2__)
  return SimdLevel::kAvx2;
#else
  if (__builtin_cpu_supports("avx2")) return SimdLevel::kAvx2;
  return SimdLevel::kPortable;
#endif
#endif
#else
  return SimdLevel::kPortable;
#endif
}

/// Hardware level clamped by the HOLIX_SIMD env override; cached after the
/// first call. An override can only lower the tier — requesting avx512 on
/// an AVX2-only host still dispatches AVX2.
inline SimdLevel DetectSimdLevel() {
  static const SimdLevel level = [] {
    SimdLevel hw = DetectHardwareSimdLevel();
    if (const char* env = std::getenv("HOLIX_SIMD")) {
      if (auto forced = ParseSimdLevel(env)) {
        if (static_cast<int>(*forced) < static_cast<int>(hw)) hw = *forced;
      }
    }
    return hw;
  }();
  return level;
}

namespace simd_internal {

/// Slack elements past the high stream's nominal end: AVX2 compress
/// emulation always stores a full vector and advances the cursor by the
/// popcount, so up to lane-width-1 garbage elements spill past the last
/// valid slot.
inline constexpr size_t kLanePad = 16;

/// The forward high-side output stream carved out of one CrackScratch.
/// (Lows are compressed directly into the column; see the file comment.)
template <typename T>
struct Streams {
  T* high_v;
  RowId* high_i;
};

template <typename T>
Streams<T> PrepareStreams(CrackScratch<T>& scratch, size_t n) {
  // + kLanePad garbage slop, + one cache line of alignment slack: the
  // bounce-buffer flushes below store 64-byte-aligned blocks.
  const size_t need = n + kLanePad + 64 / sizeof(T);
  if (scratch.values.size() < need) {
    scratch.values.resize(need);
    scratch.rowids.resize(need);
  }
  auto align64 = [](auto* p) {
    using P = std::remove_reference_t<decltype(*p)>;
    return reinterpret_cast<P*>(
        (reinterpret_cast<uintptr_t>(p) + 63) & ~uintptr_t{63});
  };
  return Streams<T>{align64(scratch.values.data()),
                    align64(scratch.rowids.data())};
}

/// Finishes the remaining [k, n) rows through KeyTraits::Less. Lows append
/// in place at the low cursor (f <= k always, and v[lo+k] is read into x
/// before the store can land on it); highs keep streaming into scratch.
template <typename T>
void ScalarTail(T* v, RowId* ids, size_t lo, size_t n, size_t k, T pivot,
                const Streams<T>& st, size_t& f, size_t& h) {
  for (; k < n; ++k) {
    const T x = v[lo + k];
    const RowId r = ids[lo + k];
    if (KeyTraits<T>::Less(x, pivot)) {
      v[lo + f] = x;
      ids[lo + f] = r;
      ++f;
    } else {
      st.high_v[h] = x;
      st.high_i[h] = r;
      ++h;
    }
  }
}

#if HOLIX_SIMD_X86

/// Streams at least this many bytes with non-temporal stores in the high
/// copy-back. NT stores skip the read-for-ownership a cold destination line
/// otherwise costs (a third of the copy-back's memory traffic at large N),
/// but deliberately bypass the cache — so small pieces, which later queries
/// re-crack while still cache-resident, keep regular stores.
inline constexpr size_t kNtCopyBytes = size_t{32} << 20;

/// Reversed copies: dst[h-1-i] = src[i]. Lane-reversing permute + backward
/// block stores; bitwise copies, so double NaN payloads survive intact.
/// Only reachable once dispatch has established AVX2 support.
__attribute__((target("avx2"))) inline void ReverseCopy64(
    const uint64_t* src, uint64_t* dst, size_t h) {
  size_t i = 0;
  if (h * sizeof(uint64_t) >= kNtCopyBytes) {
    // Scalar head until the descending store cursor is 32-byte aligned
    // (reached within 4 steps), then stream the bulk.
    while (h - i >= 4 &&
           (reinterpret_cast<uintptr_t>(dst + h - 4 - i) & 31u) != 0) {
      dst[h - 1 - i] = src[i];
      ++i;
    }
    for (; i + 4 <= h; i += 4) {
      const __m256i x =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
      _mm256_stream_si256(reinterpret_cast<__m256i*>(dst + h - 4 - i),
                          _mm256_permute4x64_epi64(x, 0x1B));
    }
    _mm_sfence();
  } else {
    for (; i + 4 <= h; i += 4) {
      const __m256i x =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + h - 4 - i),
                          _mm256_permute4x64_epi64(x, 0x1B));
    }
  }
  for (; i < h; ++i) dst[h - 1 - i] = src[i];
}

__attribute__((target("avx2"))) inline void ReverseCopy32(
    const uint32_t* src, uint32_t* dst, size_t h) {
  const __m256i rev = _mm256_setr_epi32(7, 6, 5, 4, 3, 2, 1, 0);
  size_t i = 0;
  if (h * sizeof(uint32_t) >= kNtCopyBytes) {
    while (h - i >= 8 &&
           (reinterpret_cast<uintptr_t>(dst + h - 8 - i) & 31u) != 0) {
      dst[h - 1 - i] = src[i];
      ++i;
    }
    for (; i + 8 <= h; i += 8) {
      const __m256i x =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
      _mm256_stream_si256(reinterpret_cast<__m256i*>(dst + h - 8 - i),
                          _mm256_permutevar8x32_epi32(x, rev));
    }
    _mm_sfence();
  } else {
    for (; i + 8 <= h; i += 8) {
      const __m256i x =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + h - 8 - i),
                          _mm256_permutevar8x32_epi32(x, rev));
    }
  }
  for (; i < h; ++i) dst[h - 1 - i] = src[i];
}

/// Copies the high stream back reversed into the piece tail — exactly the
/// layout CrackInTwoOutOfPlace leaves behind (lows are already in place).
template <typename T>
size_t CopyBack(T* v, RowId* ids, size_t lo, size_t n, const Streams<T>& st,
                size_t f, size_t h) {
  static_assert(sizeof(RowId) == 8);
  if constexpr (sizeof(T) == 8) {
    ReverseCopy64(reinterpret_cast<const uint64_t*>(st.high_v),
                  reinterpret_cast<uint64_t*>(v + lo + n - h), h);
  } else {
    static_assert(sizeof(T) == 4);
    ReverseCopy32(reinterpret_cast<const uint32_t*>(st.high_v),
                  reinterpret_cast<uint32_t*>(v + lo + n - h), h);
  }
  ReverseCopy64(st.high_i, ids + lo + n - h, h);
  return lo + f;
}

/// L1-resident staging for the high stream. The hot loop's compress stores
/// append here at an unaligned cursor (with garbage slop past it, like the
/// scratch stream used to take); full kCap blocks then flush to scratch
/// with cache-line-aligned block stores — non-temporal for large pieces, so
/// a cold 100+ MB scratch stream never pays read-for-ownership. Small
/// pieces flush with regular stores and stay cache-resident for the
/// copy-back.
template <typename T>
struct HighBounce {
  static constexpr size_t kCap = 1024;
  alignas(64) T v[kCap + kLanePad];
  alignas(64) RowId i[kCap + kLanePad];
};

/// Aligned block copy; \p bytes must be a multiple of 32 and both pointers
/// 32-byte aligned.
__attribute__((target("avx2"))) inline void CopyBlock256(const void* src,
                                                         void* dst,
                                                         size_t bytes,
                                                         bool nt) {
  const char* s = static_cast<const char*>(src);
  char* d = static_cast<char*>(dst);
  if (nt) {
    for (size_t off = 0; off < bytes; off += 32) {
      _mm256_stream_si256(
          reinterpret_cast<__m256i*>(d + off),
          _mm256_load_si256(reinterpret_cast<const __m256i*>(s + off)));
    }
  } else {
    for (size_t off = 0; off < bytes; off += 32) {
      _mm256_store_si256(
          reinterpret_cast<__m256i*>(d + off),
          _mm256_load_si256(reinterpret_cast<const __m256i*>(s + off)));
    }
  }
}

/// Flushes one full kCap block from the bounce to the scratch stream and
/// slides the (< lane-width) overhang back to the front.
template <typename T>
__attribute__((target("avx2"))) inline void FlushHigh(HighBounce<T>& b,
                                                      const Streams<T>& st,
                                                      size_t& h, size_t& hb,
                                                      bool nt) {
  constexpr size_t kCap = HighBounce<T>::kCap;
  CopyBlock256(b.v, st.high_v + h, kCap * sizeof(T), nt);
  CopyBlock256(b.i, st.high_i + h, kCap * sizeof(RowId), nt);
  h += kCap;
  hb -= kCap;
  std::memmove(b.v, b.v + kCap, hb * sizeof(T));
  std::memmove(b.i, b.i + kCap, hb * sizeof(RowId));
}

/// Moves whatever is left in the bounce to the scratch stream (vector-loop
/// epilogue, before the scalar tail appends straight to scratch).
template <typename T>
inline void DrainHigh(HighBounce<T>& b, const Streams<T>& st, size_t& h,
                      size_t& hb) {
  std::memcpy(st.high_v + h, b.v, hb * sizeof(T));
  std::memcpy(st.high_i + h, b.i, hb * sizeof(RowId));
  h += hb;
  hb = 0;
}

/// vpermd index table compressing the set lanes of an 8-bit mask to the
/// front (ascending lane order, i.e. stable).
struct CompressLut8 {
  alignas(32) uint32_t idx[256][8];
};
inline constexpr CompressLut8 kCompressLut8 = [] {
  CompressLut8 lut{};
  for (unsigned m = 0; m < 256; ++m) {
    unsigned out = 0;
    for (unsigned lane = 0; lane < 8; ++lane) {
      if (m & (1u << lane)) lut.idx[m][out++] = lane;
    }
    for (; out < 8; ++out) lut.idx[m][out] = 0;
  }
  return lut;
}();

/// Same, for four 64-bit elements addressed as epi32 pairs.
struct CompressLut4 {
  alignas(32) uint32_t idx[16][8];
};
inline constexpr CompressLut4 kCompressLut4 = [] {
  CompressLut4 lut{};
  for (unsigned m = 0; m < 16; ++m) {
    unsigned out = 0;
    for (unsigned lane = 0; lane < 4; ++lane) {
      if (m & (1u << lane)) {
        lut.idx[m][out++] = 2 * lane;
        lut.idx[m][out++] = 2 * lane + 1;
      }
    }
    for (; out < 8; ++out) lut.idx[m][out] = 0;
  }
  return lut;
}();

__attribute__((target("avx2"))) inline __m256i Lut8Perm(unsigned mask) {
  return _mm256_load_si256(
      reinterpret_cast<const __m256i*>(kCompressLut8.idx[mask]));
}
__attribute__((target("avx2"))) inline __m256i Lut4Perm(unsigned mask) {
  return _mm256_load_si256(
      reinterpret_cast<const __m256i*>(kCompressLut4.idx[mask]));
}

// ---------------------------------------------------------------- AVX2 --

__attribute__((target("avx2"))) inline size_t CrackAvx2(
    int32_t* v, RowId* ids, size_t lo, size_t hi, int32_t pivot,
    CrackScratch<int32_t>& scratch) {
  const size_t n = hi - lo;
  const Streams<int32_t> st = PrepareStreams(scratch, n);
  HighBounce<int32_t> b;
  const bool nt = n * (sizeof(int32_t) + sizeof(RowId)) >= kNtCopyBytes;
  const __m256i pv = _mm256_set1_epi32(pivot);
  size_t f = 0, h = 0, hb = 0, k = 0;
  for (; k + 8 <= n; k += 8) {
    _mm_prefetch(reinterpret_cast<const char*>(v + lo + k) + 1024,
                 _MM_HINT_T0);
    _mm_prefetch(reinterpret_cast<const char*>(ids + lo + k) + 1024,
                 _MM_HINT_T0);
    const __m256i x = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(v + lo + k));
    const __m256i ra = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(ids + lo + k));
    const __m256i rb = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(ids + lo + k + 4));
    // Lane i set iff v[i] < pivot (signed), == KeyTraits<int32_t>::Less.
    const unsigned m = static_cast<unsigned>(_mm256_movemask_ps(
        _mm256_castsi256_ps(_mm256_cmpgt_epi32(pv, x))));
    const unsigned mn = ~m & 0xFFu;
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(v + lo + f),
                        _mm256_permutevar8x32_epi32(x, Lut8Perm(m)));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(b.v + hb),
                        _mm256_permutevar8x32_epi32(x, Lut8Perm(mn)));
    // Rowids are 64-bit: compress each 4-lane nibble separately, the second
    // store starting where the first nibble's survivors ended.
    const unsigned m_a = m & 0xFu, m_b = (m >> 4) & 0xFu;
    const unsigned n_a = mn & 0xFu, n_b = (mn >> 4) & 0xFu;
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(ids + lo + f),
                        _mm256_permutevar8x32_epi32(ra, Lut4Perm(m_a)));
    _mm256_storeu_si256(
        reinterpret_cast<__m256i*>(ids + lo + f + __builtin_popcount(m_a)),
        _mm256_permutevar8x32_epi32(rb, Lut4Perm(m_b)));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(b.i + hb),
                        _mm256_permutevar8x32_epi32(ra, Lut4Perm(n_a)));
    _mm256_storeu_si256(
        reinterpret_cast<__m256i*>(b.i + hb + __builtin_popcount(n_a)),
        _mm256_permutevar8x32_epi32(rb, Lut4Perm(n_b)));
    const size_t c = static_cast<size_t>(__builtin_popcount(m));
    f += c;
    hb += 8 - c;
    if (hb >= HighBounce<int32_t>::kCap) FlushHigh(b, st, h, hb, nt);
  }
  DrainHigh(b, st, h, hb);
  ScalarTail(v, ids, lo, n, k, pivot, st, f, h);
  return CopyBack(v, ids, lo, n, st, f, h);
}

__attribute__((target("avx2"))) inline size_t CrackAvx2(
    int64_t* v, RowId* ids, size_t lo, size_t hi, int64_t pivot,
    CrackScratch<int64_t>& scratch) {
  const size_t n = hi - lo;
  const Streams<int64_t> st = PrepareStreams(scratch, n);
  HighBounce<int64_t> b;
  const bool nt = n * (sizeof(int64_t) + sizeof(RowId)) >= kNtCopyBytes;
  const __m256i pv = _mm256_set1_epi64x(pivot);
  size_t f = 0, h = 0, hb = 0, k = 0;
  for (; k + 4 <= n; k += 4) {
    _mm_prefetch(reinterpret_cast<const char*>(v + lo + k) + 1024,
                 _MM_HINT_T0);
    _mm_prefetch(reinterpret_cast<const char*>(ids + lo + k) + 1024,
                 _MM_HINT_T0);
    const __m256i x = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(v + lo + k));
    const __m256i r = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(ids + lo + k));
    const unsigned m = static_cast<unsigned>(_mm256_movemask_pd(
        _mm256_castsi256_pd(_mm256_cmpgt_epi64(pv, x))));
    const unsigned mn = ~m & 0xFu;
    const __m256i pl = Lut4Perm(m), ph = Lut4Perm(mn);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(v + lo + f),
                        _mm256_permutevar8x32_epi32(x, pl));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(ids + lo + f),
                        _mm256_permutevar8x32_epi32(r, pl));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(b.v + hb),
                        _mm256_permutevar8x32_epi32(x, ph));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(b.i + hb),
                        _mm256_permutevar8x32_epi32(r, ph));
    const size_t c = static_cast<size_t>(__builtin_popcount(m));
    f += c;
    hb += 4 - c;
    if (hb >= HighBounce<int64_t>::kCap) FlushHigh(b, st, h, hb, nt);
  }
  DrainHigh(b, st, h, hb);
  ScalarTail(v, ids, lo, n, k, pivot, st, f, h);
  return CopyBack(v, ids, lo, n, st, f, h);
}

__attribute__((target("avx2"))) inline size_t CrackAvx2(
    double* v, RowId* ids, size_t lo, size_t hi, double pivot,
    CrackScratch<double>& scratch) {
  const size_t n = hi - lo;
  const Streams<double> st = PrepareStreams(scratch, n);
  HighBounce<double> b;
  const bool nt = n * (sizeof(double) + sizeof(RowId)) >= kNtCopyBytes;
  const __m256d pv = _mm256_set1_pd(pivot);
  // IEEE LT_OQ equals KeyTraits<double>::Less for every non-NaN pivot (NaN
  // lanes are never-less either way; -0.0 == +0.0). A NaN pivot ranks above
  // everything, so there "less" means "lane is not NaN" (ORD_Q vs itself).
  const bool nan_pivot = pivot != pivot;
  size_t f = 0, h = 0, hb = 0, k = 0;
  for (; k + 4 <= n; k += 4) {
    _mm_prefetch(reinterpret_cast<const char*>(v + lo + k) + 1024,
                 _MM_HINT_T0);
    _mm_prefetch(reinterpret_cast<const char*>(ids + lo + k) + 1024,
                 _MM_HINT_T0);
    const __m256d x = _mm256_loadu_pd(v + lo + k);
    const __m256i r = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(ids + lo + k));
    const __m256d lt = nan_pivot ? _mm256_cmp_pd(x, x, _CMP_ORD_Q)
                                 : _mm256_cmp_pd(x, pv, _CMP_LT_OQ);
    const unsigned m = static_cast<unsigned>(_mm256_movemask_pd(lt));
    const unsigned mn = ~m & 0xFu;
    const __m256i xi = _mm256_castpd_si256(x);
    const __m256i pl = Lut4Perm(m), ph = Lut4Perm(mn);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(v + lo + f),
                        _mm256_permutevar8x32_epi32(xi, pl));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(ids + lo + f),
                        _mm256_permutevar8x32_epi32(r, pl));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(b.v + hb),
                        _mm256_permutevar8x32_epi32(xi, ph));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(b.i + hb),
                        _mm256_permutevar8x32_epi32(r, ph));
    const size_t c = static_cast<size_t>(__builtin_popcount(m));
    f += c;
    hb += 4 - c;
    if (hb >= HighBounce<double>::kCap) FlushHigh(b, st, h, hb, nt);
  }
  DrainHigh(b, st, h, hb);
  ScalarTail(v, ids, lo, n, k, pivot, st, f, h);
  return CopyBack(v, ids, lo, n, st, f, h);
}

// -------------------------------------------------------------- AVX-512 --

__attribute__((target("avx512f"))) inline size_t CrackAvx512(
    int32_t* v, RowId* ids, size_t lo, size_t hi, int32_t pivot,
    CrackScratch<int32_t>& scratch) {
  const size_t n = hi - lo;
  const Streams<int32_t> st = PrepareStreams(scratch, n);
  HighBounce<int32_t> b;
  const bool nt = n * (sizeof(int32_t) + sizeof(RowId)) >= kNtCopyBytes;
  const __m512i pv = _mm512_set1_epi32(pivot);
  size_t f = 0, h = 0, hb = 0, k = 0;
  for (; k + 16 <= n; k += 16) {
    _mm_prefetch(reinterpret_cast<const char*>(v + lo + k) + 1024,
                 _MM_HINT_T0);
    _mm_prefetch(reinterpret_cast<const char*>(ids + lo + k) + 1024,
                 _MM_HINT_T0);
    const __m512i x = _mm512_loadu_si512(v + lo + k);
    const __m512i ra = _mm512_loadu_si512(ids + lo + k);
    const __m512i rb = _mm512_loadu_si512(ids + lo + k + 8);
    const __mmask16 m = _mm512_cmp_epi32_mask(x, pv, _MM_CMPINT_LT);
    const __mmask16 mn = static_cast<__mmask16>(~m);
    // Compress in registers and issue plain full-width stores: vcompress-
    // to-memory microcodes to a slow store on most Xeons. The garbage lanes
    // past each cursor are overwritten by the next store (see file comment).
    _mm512_storeu_si512(v + lo + f, _mm512_maskz_compress_epi32(m, x));
    _mm512_storeu_si512(b.v + hb, _mm512_maskz_compress_epi32(mn, x));
    const __mmask8 m_a = static_cast<__mmask8>(m);
    const __mmask8 m_b = static_cast<__mmask8>(m >> 8);
    const __mmask8 n_a = static_cast<__mmask8>(mn);
    const __mmask8 n_b = static_cast<__mmask8>(mn >> 8);
    _mm512_storeu_si512(ids + lo + f, _mm512_maskz_compress_epi64(m_a, ra));
    _mm512_storeu_si512(ids + lo + f + __builtin_popcount(m_a),
                        _mm512_maskz_compress_epi64(m_b, rb));
    _mm512_storeu_si512(b.i + hb, _mm512_maskz_compress_epi64(n_a, ra));
    _mm512_storeu_si512(b.i + hb + __builtin_popcount(n_a),
                        _mm512_maskz_compress_epi64(n_b, rb));
    const size_t c = static_cast<size_t>(__builtin_popcount(m));
    f += c;
    hb += 16 - c;
    if (hb >= HighBounce<int32_t>::kCap) FlushHigh(b, st, h, hb, nt);
  }
  DrainHigh(b, st, h, hb);
  ScalarTail(v, ids, lo, n, k, pivot, st, f, h);
  return CopyBack(v, ids, lo, n, st, f, h);
}

__attribute__((target("avx512f"))) inline size_t CrackAvx512(
    int64_t* v, RowId* ids, size_t lo, size_t hi, int64_t pivot,
    CrackScratch<int64_t>& scratch) {
  const size_t n = hi - lo;
  const Streams<int64_t> st = PrepareStreams(scratch, n);
  HighBounce<int64_t> b;
  const bool nt = n * (sizeof(int64_t) + sizeof(RowId)) >= kNtCopyBytes;
  const __m512i pv = _mm512_set1_epi64(pivot);
  size_t f = 0, h = 0, hb = 0, k = 0;
  for (; k + 8 <= n; k += 8) {
    _mm_prefetch(reinterpret_cast<const char*>(v + lo + k) + 1024,
                 _MM_HINT_T0);
    _mm_prefetch(reinterpret_cast<const char*>(ids + lo + k) + 1024,
                 _MM_HINT_T0);
    const __m512i x = _mm512_loadu_si512(v + lo + k);
    const __m512i r = _mm512_loadu_si512(ids + lo + k);
    const __mmask8 m = _mm512_cmp_epi64_mask(x, pv, _MM_CMPINT_LT);
    const __mmask8 mn = static_cast<__mmask8>(~m);
    // Register-compress + full-width stores (see the int32 kernel note).
    _mm512_storeu_si512(v + lo + f, _mm512_maskz_compress_epi64(m, x));
    _mm512_storeu_si512(ids + lo + f, _mm512_maskz_compress_epi64(m, r));
    _mm512_storeu_si512(b.v + hb, _mm512_maskz_compress_epi64(mn, x));
    _mm512_storeu_si512(b.i + hb, _mm512_maskz_compress_epi64(mn, r));
    const size_t c = static_cast<size_t>(__builtin_popcount(m));
    f += c;
    hb += 8 - c;
    if (hb >= HighBounce<int64_t>::kCap) FlushHigh(b, st, h, hb, nt);
  }
  DrainHigh(b, st, h, hb);
  ScalarTail(v, ids, lo, n, k, pivot, st, f, h);
  return CopyBack(v, ids, lo, n, st, f, h);
}

__attribute__((target("avx512f"))) inline size_t CrackAvx512(
    double* v, RowId* ids, size_t lo, size_t hi, double pivot,
    CrackScratch<double>& scratch) {
  const size_t n = hi - lo;
  const Streams<double> st = PrepareStreams(scratch, n);
  HighBounce<double> b;
  const bool nt = n * (sizeof(double) + sizeof(RowId)) >= kNtCopyBytes;
  const __m512d pv = _mm512_set1_pd(pivot);
  const bool nan_pivot = pivot != pivot;
  size_t f = 0, h = 0, hb = 0, k = 0;
  for (; k + 8 <= n; k += 8) {
    _mm_prefetch(reinterpret_cast<const char*>(v + lo + k) + 1024,
                 _MM_HINT_T0);
    _mm_prefetch(reinterpret_cast<const char*>(ids + lo + k) + 1024,
                 _MM_HINT_T0);
    const __m512d x = _mm512_loadu_pd(v + lo + k);
    const __m512i r = _mm512_loadu_si512(ids + lo + k);
    const __mmask8 m = nan_pivot ? _mm512_cmp_pd_mask(x, x, _CMP_ORD_Q)
                                 : _mm512_cmp_pd_mask(x, pv, _CMP_LT_OQ);
    const __mmask8 mn = static_cast<__mmask8>(~m);
    // Register-compress + full-width stores (see the int32 kernel note).
    _mm512_storeu_pd(v + lo + f, _mm512_maskz_compress_pd(m, x));
    _mm512_storeu_si512(ids + lo + f, _mm512_maskz_compress_epi64(m, r));
    _mm512_storeu_pd(b.v + hb, _mm512_maskz_compress_pd(mn, x));
    _mm512_storeu_si512(b.i + hb, _mm512_maskz_compress_epi64(mn, r));
    const size_t c = static_cast<size_t>(__builtin_popcount(m));
    f += c;
    hb += 8 - c;
    if (hb >= HighBounce<double>::kCap) FlushHigh(b, st, h, hb, nt);
  }
  DrainHigh(b, st, h, hb);
  ScalarTail(v, ids, lo, n, k, pivot, st, f, h);
  return CopyBack(v, ids, lo, n, st, f, h);
}

#endif  // HOLIX_SIMD_X86

inline void CountSimdCrack() {
  static obs::Counter& ops =
      obs::MetricsRegistry::Global().GetCounter("holix_crack_simd_ops_total");
  ops.Inc();
}

}  // namespace simd_internal

/// SIMD out-of-place two-way partition of values+rowids in [lo, hi).
/// Key types without a vector kernel — and the portable tier — fall back to
/// CrackInTwoOutOfPlace, whose output layout the vector kernels reproduce
/// exactly, so results are deterministic across dispatch levels.
/// \return the cut: first position whose value is >= pivot.
template <typename T>
size_t CrackInTwoSimd(T* v, RowId* ids, size_t lo, size_t hi, T pivot,
                      CrackScratch<T>& scratch,
                      SimdLevel level = DetectSimdLevel()) {
  (void)level;
#if HOLIX_SIMD_X86
  if constexpr (std::is_same_v<T, int32_t> || std::is_same_v<T, int64_t> ||
                std::is_same_v<T, double>) {
    if (level == SimdLevel::kAvx512) {
      simd_internal::CountSimdCrack();
      return simd_internal::CrackAvx512(v, ids, lo, hi, pivot, scratch);
    }
    if (level == SimdLevel::kAvx2) {
      simd_internal::CountSimdCrack();
      return simd_internal::CrackAvx2(v, ids, lo, hi, pivot, scratch);
    }
  }
#endif
  return CrackInTwoOutOfPlace(v, ids, lo, hi, pivot, scratch);
}

}  // namespace holix
