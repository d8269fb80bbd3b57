/// \file crack_kernels.h
/// \brief Physical reorganization kernels for database cracking (§3.2).
///
/// Two two-way kernels are provided:
///  * CrackInTwoScalar     — branchy in-place Hoare partition (the classic
///                           cracking kernel of [27]); the cracker column
///                           uses it only for payload-aligned columns,
///  * CrackInTwoOutOfPlace — the predicated out-of-place kernel in the
///                           spirit of the vectorized cracking of Pirk et
///                           al. [44]: one sequential read stream, two
///                           sequential write streams, no data-dependent
///                           branches in the hot loop.
///
/// Both partition values and co-move an attached rowid array (and, for the
/// scalar kernel, arbitrary extra payload arrays via the swap functor),
/// because cracker columns are (value, rowid) pairs. A select whose bounds
/// share one piece cracks twice (at low, then at high): two vectorized
/// two-way passes beat one branchy three-way pass, and there is one kernel
/// path to keep correct instead of two.
///
/// Ordering goes through KeyTraits<T>::Less, never raw `<`: for integers it
/// compiles to the identical compare, for doubles it is the engine's total
/// order (NaN above +inf, -0.0 == +0.0) — with raw `<` a NaN would satisfy
/// neither `< pivot` nor `>= pivot` and the Hoare kernel would spin.

#pragma once

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

#include "storage/types.h"

namespace holix {

/// In-place two-way partition of [lo, hi): values < pivot first.
/// \param swap  callable swap(i, j) exchanging full rows i and j.
/// \return the cut: first position whose value is >= pivot.
template <typename T, typename SwapFn>
size_t CrackInTwoScalar(T* v, size_t lo, size_t hi, T pivot, SwapFn&& swap) {
  size_t i = lo;
  size_t j = hi;
  while (i < j) {
    while (i < j && KeyTraits<T>::Less(v[i], pivot)) ++i;
    while (i < j && !KeyTraits<T>::Less(v[j - 1], pivot)) --j;
    if (i < j) {
      swap(i, j - 1);
      ++i;
      --j;
    }
  }
  return i;
}

/// Scratch buffers reused across out-of-place cracks by one thread.
template <typename T>
struct CrackScratch {
  std::vector<T> values;
  std::vector<RowId> rowids;
};

/// Thread-local scratch for out-of-place cracking.
template <typename T>
CrackScratch<T>& ThreadLocalCrackScratch() {
  thread_local CrackScratch<T> scratch;
  return scratch;
}

/// Out-of-place two-way partition of values+rowids in [lo, hi).
///
/// Reads the piece once sequentially, writes lows forward / highs backward
/// into scratch with predicated cursor updates (no mispredicted branches),
/// then copies back. This keeps the memory-access character of vectorized
/// cracking [44] — sequential streams instead of the random-ish swap
/// pattern of the Hoare kernel — at the cost of piece-sized scratch. Pieces
/// shrink as cracking progresses, but the scratch does not: through
/// ThreadLocalCrackScratch it keeps the size of the largest piece its
/// thread ever cracked until the thread exits (ROADMAP.md, "Bounded-memory
/// cracking", plans to bound that retention).
/// \return the cut: first position whose value is >= pivot.
template <typename T>
size_t CrackInTwoOutOfPlace(T* v, RowId* ids, size_t lo, size_t hi, T pivot,
                            CrackScratch<T>& scratch) {
  const size_t n = hi - lo;
  if (n == 0) return lo;
  if (scratch.values.size() < n) {
    scratch.values.resize(n);
    scratch.rowids.resize(n);
  }
  T* vb = scratch.values.data();
  RowId* ib = scratch.rowids.data();
  size_t f = 0;
  size_t b = n - 1;
  for (size_t k = lo; k < hi; ++k) {
    const T x = v[k];
    const RowId r = ids[k];
    // Write to both candidate slots, advance exactly one cursor.
    vb[f] = x;
    ib[f] = r;
    vb[b] = x;
    ib[b] = r;
    const bool lt = KeyTraits<T>::Less(x, pivot);
    f += lt;
    b -= !lt;
  }
  std::copy_n(vb, n, v + lo);
  std::copy_n(ib, n, ids + lo);
  return lo + f;
}

}  // namespace holix
