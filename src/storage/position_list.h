/// \file position_list.h
/// \brief Intermediate results of select operators: lists of qualifying
/// row identifiers, plus contiguous position ranges for cracked columns.

#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <vector>

#include "storage/types.h"

namespace holix {

/// A materialized list of qualifying row ids (column-store intermediate).
using PositionList = std::vector<RowId>;

/// Lists of at most this many rowids are sorted by std::sort: below it the
/// radix sort's 2^11-bucket digit histograms cost more than the rows.
inline constexpr size_t kRowIdRadixCutoff = 64;

/// Sorts \p rows ascending. Rowids are dense integers, so this is an LSD
/// radix sort over 11-bit digits with as many passes as the largest rowid
/// has digits: two for a 2^22-row table, more when rows appended past the
/// base (rowids drawn from `next_rowid`, possibly beyond 2^32) are present.
/// One read pass finds the largest rowid and returns at once when the list
/// is already ascending, as scan-mode selects produce it. The scatter
/// buffer is allocated per call and released on return.
inline void SortRowIds(PositionList& rows) {
  constexpr unsigned kDigitBits = 11;
  constexpr size_t kBuckets = size_t{1} << kDigitBits;
  constexpr RowId kDigitMask = kBuckets - 1;
  const size_t n = rows.size();
  if (n < 2) return;
  RowId max = rows[0];
  bool ascending = true;
  for (size_t i = 1; i < n; ++i) {
    ascending &= rows[i - 1] <= rows[i];
    max = std::max(max, rows[i]);
  }
  if (ascending) return;
  if (n <= kRowIdRadixCutoff) {
    std::sort(rows.begin(), rows.end());
    return;
  }
  const unsigned passes =
      (static_cast<unsigned>(std::bit_width(max)) + kDigitBits - 1) /
      kDigitBits;
  // Every digit's histogram comes from one more read pass; each scatter
  // pass then only reads its source and writes its destination.
  std::vector<std::array<size_t, kBuckets>> offsets(passes);
  for (RowId r : rows) {
    for (unsigned p = 0; p < passes; ++p) {
      ++offsets[p][(r >> (p * kDigitBits)) & kDigitMask];
    }
  }
  PositionList scratch(n);
  RowId* src = rows.data();
  RowId* dst = scratch.data();
  for (unsigned p = 0; p < passes; ++p) {
    std::array<size_t, kBuckets>& off = offsets[p];
    size_t sum = 0;
    for (size_t& c : off) {
      const size_t count = c;
      c = sum;
      sum += count;
    }
    const unsigned shift = p * kDigitBits;
    for (size_t i = 0; i < n; ++i) {
      const RowId r = src[i];
      dst[off[(r >> shift) & kDigitMask]++] = r;
    }
    std::swap(src, dst);
  }
  if (src != rows.data()) rows.swap(scratch);
}

/// A half-open contiguous range of positions [begin, end) inside a cracker
/// column. Cracked selects return ranges instead of materialized lists;
/// the project operator then reads rowids out of the cracker column.
struct PositionRange {
  size_t begin = 0;
  size_t end = 0;

  /// Number of positions covered.
  size_t size() const { return end - begin; }
  /// True when the range is empty.
  bool empty() const { return end <= begin; }
};

}  // namespace holix
