/// \file sorted_index.h
/// \brief Full indexing baseline: a sorted (value, rowid) projection with
/// binary-search range selects (§3.1/§5.1).
///
/// Offline indexing builds one of these per column before query processing;
/// online indexing builds them after an observation window. The sort itself
/// is the parallel merge sort of util/parallel_sort.h (the paper uses the
/// NUMA-aware m-way sort of [9] — same role, same scaling story).

#pragma once

#include <algorithm>
#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "storage/position_list.h"
#include "storage/types.h"
#include "util/parallel_sort.h"
#include "util/thread_pool.h"

namespace holix {

/// Sorted projection of one attribute.
template <typename T>
class SortedIndex {
 public:
  /// Builds the index by copying and parallel-sorting \p base.
  /// This is the O(N log N) investment offline/online indexing pays.
  SortedIndex(std::string name, const std::vector<T>& base, ThreadPool& pool)
      : name_(std::move(name)) {
    entries_.resize(base.size());
    for (size_t i = 0; i < base.size(); ++i) {
      entries_[i] = {base[i], static_cast<RowId>(i)};
    }
    ParallelSort(entries_, pool, [](const Entry& a, const Entry& b) {
      if (KeyTraits<T>::Less(a.value, b.value)) return true;
      return KeyTraits<T>::Eq(a.value, b.value) && a.rowid < b.rowid;
    });
  }

  /// Attribute name.
  const std::string& name() const { return name_; }
  /// Number of rows.
  size_t size() const { return entries_.size(); }

  /// Positions (in sorted order) of values in [low, high): O(log N). An
  /// absent \p high is the open top: the range runs to the last entry.
  PositionRange SelectRange(T low, std::optional<T> high) const {
    const auto cmp = [](const Entry& e, T v) {
      return KeyTraits<T>::Less(e.value, v);
    };
    const auto b = std::lower_bound(entries_.begin(), entries_.end(), low, cmp);
    const auto e =
        high ? std::lower_bound(entries_.begin(), entries_.end(), *high, cmp)
             : entries_.end();
    return {static_cast<size_t>(b - entries_.begin()),
            static_cast<size_t>(e - entries_.begin())};
  }

  /// Value at sorted position \p pos.
  T ValueAt(size_t pos) const { return entries_[pos].value; }
  /// Rowid at sorted position \p pos (tuple reconstruction).
  RowId RowIdAt(size_t pos) const { return entries_[pos].rowid; }

  /// Materializes rowids for \p range.
  PositionList FetchRowIds(PositionRange range) const {
    PositionList out;
    out.reserve(range.size());
    for (size_t i = range.begin; i < range.end; ++i) {
      out.push_back(entries_[i].rowid);
    }
    return out;
  }

  /// Bytes materialized by this index.
  size_t SizeBytes() const { return entries_.size() * sizeof(Entry); }

 private:
  struct Entry {
    T value;
    RowId rowid;
  };
  std::string name_;
  std::vector<Entry> entries_;
};

}  // namespace holix
