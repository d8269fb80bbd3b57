/// \file pre_crack.h
/// \brief Coarse-granular pre-partitioning (the mP-CCGI baseline, [8] as
/// modified in §5.2 of the paper).
///
/// P-CCGI range-partitions the data before the first query can benefit
/// from cracking; our modified variant keeps a single contiguous array (so
/// downstream operators see dense ranges, i.e. the consolidation the paper
/// added is implicit) by inserting k-1 equi-width boundaries up front. The
/// whole pre-partitioning cost lands on the first query, exactly the
/// penalty Figure 11 attributes to mP-CCGI.

#pragma once

#include <cmath>
#include <cstddef>
#include <type_traits>

#include "cracking/crack_config.h"
#include "cracking/cracker_column.h"

namespace holix {

/// The i-th of n equi-width grid pivots between \p lo and \p hi. Integer
/// domains interpolate in rank space (exact, overflow-free for domains
/// spanning all of T); double domains interpolate in value space when the
/// endpoints are finite, falling back to rank space for domains that reach
/// the infinities (where "value width" is meaningless).
template <typename T>
T EquiWidthPivot(T lo, T hi, size_t i, size_t n) {
  const double f = static_cast<double>(i) / static_cast<double>(n);
  if constexpr (std::is_floating_point_v<T>) {
    if (std::isfinite(lo) && std::isfinite(hi)) {
      // Convex combination: never overflows for finite endpoints.
      const T p = static_cast<T>(lo * (1.0 - f) + hi * f);
      if (std::isfinite(p)) return p;
    }
  }
  const uint64_t rlo = KeyTraits<T>::ToRank(lo);
  const uint64_t rhi = KeyTraits<T>::ToRank(hi);
  const uint64_t off =
      static_cast<uint64_t>(static_cast<double>(rhi - rlo) * f);
  return KeyTraits<T>::FromRank(rlo + off);
}

/// Splits \p col into \p pieces equi-width value ranges by cracking at the
/// k-1 interior grid pivots. Uses the kernel \p cfg leads to (parallel
/// cracking makes this scale with cores, as in [8]).
template <typename T>
void PreCrackEquiWidth(CrackerColumn<T>& col, size_t pieces,
                       const CrackConfig& cfg = {}) {
  if (pieces < 2 || col.size() == 0) return;
  const T lo = col.MinValue();
  const T hi = col.MaxValue();
  if (!KeyTraits<T>::Less(lo, hi)) return;
  for (size_t i = 1; i < pieces; ++i) {
    const T pivot = EquiWidthPivot(lo, hi, i, pieces);
    if (!KeyTraits<T>::Less(lo, pivot) || KeyTraits<T>::Less(hi, pivot)) {
      continue;
    }
    col.CrackAtBlocking(pivot, cfg);
  }
}

}  // namespace holix
