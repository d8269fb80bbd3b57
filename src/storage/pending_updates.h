/// \file pending_updates.h
/// \brief Pending insertion/deletion queues for cracked columns (§4.2,
/// "Updates"; Ripple algorithm of [28]).
///
/// Updates against a cracked column are not applied eagerly. Inserts are
/// parked in a pending-insertions column, deletes in a pending-deletions
/// column; an update is a delete followed by an insert. Values are merged
/// into the cracker column on demand: by a user query whose range covers
/// them, or by a holistic worker whose random pivot lands in their piece.

#pragma once

#include <algorithm>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "storage/types.h"

namespace holix {

/// Thread-safe pending-update store for one attribute.
template <typename T>
class PendingUpdates {
 public:
  /// Parks an insertion of (value, rowid).
  void AddInsert(T value, RowId rowid) {
    std::lock_guard<std::mutex> lk(mu_);
    inserts_.push_back({value, rowid});
    ins_bounds_.Widen(value);
    appended_[rowid] = value;
  }

  /// Parks a deletion of (value, rowid). A delete of a row that was itself
  /// appended simply nets out of the appended registry; a delete of a BASE
  /// row is remembered in the deleted-base registry — the base array never
  /// shrinks, so durability (to reconstruct the column's effective
  /// multiset) and positional base probes need the list of base rows no
  /// longer live.
  void AddDelete(T value, RowId rowid) {
    std::lock_guard<std::mutex> lk(mu_);
    deletes_.push_back({value, rowid});
    del_bounds_.Widen(value);
    if (appended_.erase(rowid) == 0) deleted_base_[rowid] = value;
  }

  /// Extracts (removes and returns) every pending insert whose value lies
  /// in [low, high); an absent \p high is the open top of the order.
  std::vector<std::pair<T, RowId>> TakeInsertsInRange(T low,
                                                      std::optional<T> high) {
    std::lock_guard<std::mutex> lk(mu_);
    auto taken = TakeRangeLocked(inserts_, low, high);
    if (inserts_.empty()) ins_bounds_.Reset();
    return taken;
  }

  /// Extracts every pending delete whose value lies in [low, high).
  std::vector<std::pair<T, RowId>> TakeDeletesInRange(T low,
                                                      std::optional<T> high) {
    std::lock_guard<std::mutex> lk(mu_);
    auto taken = TakeRangeLocked(deletes_, low, high);
    if (deletes_.empty()) del_bounds_.Reset();
    return taken;
  }

  /// True when any pending insert or delete may fall in [low, high). Cheap
  /// peek so merge paths can skip exclusive latching when nothing in the
  /// queues concerns their range. Conservative value bounds reject the
  /// common disjoint case in O(1); only overlapping ranges pay the scan.
  bool AnyInRange(T low, std::optional<T> high) const {
    std::lock_guard<std::mutex> lk(mu_);
    auto in_range = [&](const std::pair<T, RowId>& p) {
      return InRange(p.first, low, high);
    };
    return (ins_bounds_.Overlaps(low, high) &&
            std::any_of(inserts_.begin(), inserts_.end(), in_range)) ||
           (del_bounds_.Overlaps(low, high) &&
            std::any_of(deletes_.begin(), deletes_.end(), in_range));
  }

  /// Looks up the value of an appended row (one added through AddInsert and
  /// not since deleted). Unlike the queues, this registry is *persistent*:
  /// Ripple merges drain the queues into the cracker column, but the base
  /// column array never grows, so positional paths (conjunction probes,
  /// projection sums) need a side lookup for rowids past the base. Returns
  /// false when \p rowid was never appended here (or was deleted again).
  bool AppendedValue(RowId rowid, T* out) const {
    std::lock_guard<std::mutex> lk(mu_);
    auto it = appended_.find(rowid);
    if (it == appended_.end()) return false;
    *out = it->second;
    return true;
  }

  /// Removes from \p rows every rowid in the deleted-base registry, keeping
  /// the order of the rest. Positional probes of the base array need this:
  /// a deleted base row still holds its value there. One lock per call;
  /// returns at once while no base row has been deleted.
  void EraseDeletedBase(std::vector<RowId>* rows) const {
    std::lock_guard<std::mutex> lk(mu_);
    if (deleted_base_.empty()) return;
    std::erase_if(*rows, [&](RowId r) { return deleted_base_.contains(r); });
  }

  /// True while this attribute holds any update history: queued entries,
  /// live appended rows or deleted base rows. The history lives only here,
  /// so a cracker column holding it cannot be rebuilt from the base array.
  bool HasHistory() const {
    std::lock_guard<std::mutex> lk(mu_);
    return !inserts_.empty() || !deletes_.empty() || !appended_.empty() ||
           !deleted_base_.empty();
  }

  /// Every live appended row as (rowid, value), ascending by rowid — the
  /// deterministic export a checkpoint serializes.
  std::vector<std::pair<RowId, T>> AppendedEntries() const {
    std::lock_guard<std::mutex> lk(mu_);
    return SortedEntriesLocked(appended_);
  }

  /// Every deleted BASE row as (rowid, value), ascending by rowid.
  std::vector<std::pair<RowId, T>> DeletedBaseEntries() const {
    std::lock_guard<std::mutex> lk(mu_);
    return SortedEntriesLocked(deleted_base_);
  }

  /// Number of pending insertions.
  size_t PendingInserts() const {
    std::lock_guard<std::mutex> lk(mu_);
    return inserts_.size();
  }

  /// Number of pending deletions.
  size_t PendingDeletes() const {
    std::lock_guard<std::mutex> lk(mu_);
    return deletes_.size();
  }

 private:
  /// Conservative min/max of a queue's values: widened on every Add, reset
  /// only when the queue drains (so it may be wider than the live contents
  /// — a false positive costs one scan, never a missed merge).
  struct Bounds {
    bool any = false;
    T min{};
    T max{};
    void Widen(T v) {
      if (!any) {
        any = true;
        min = max = v;
      } else {
        if (KeyTraits<T>::Less(v, min)) min = v;
        if (KeyTraits<T>::Less(max, v)) max = v;
      }
    }
    void Reset() { any = false; }
    bool Overlaps(T low, std::optional<T> high) const {
      return any && (!high || KeyTraits<T>::Less(min, *high)) &&
             !KeyTraits<T>::Less(max, low);
    }
  };

  static std::vector<std::pair<RowId, T>> SortedEntriesLocked(
      const std::unordered_map<RowId, T>& m) {
    std::vector<std::pair<RowId, T>> out(m.begin(), m.end());
    std::sort(out.begin(), out.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    return out;
  }

  static std::vector<std::pair<T, RowId>> TakeRangeLocked(
      std::vector<std::pair<T, RowId>>& queue, T low, std::optional<T> high) {
    std::vector<std::pair<T, RowId>> taken;
    auto keep_end = std::remove_if(
        queue.begin(), queue.end(), [&](const std::pair<T, RowId>& p) {
          if (InRange(p.first, low, high)) {
            taken.push_back(p);
            return true;
          }
          return false;
        });
    queue.erase(keep_end, queue.end());
    return taken;
  }

  mutable std::mutex mu_;
  std::vector<std::pair<T, RowId>> inserts_;
  std::vector<std::pair<T, RowId>> deletes_;
  Bounds ins_bounds_;
  Bounds del_bounds_;
  /// rowid -> value for every live appended row; survives Take* drains.
  std::unordered_map<RowId, T> appended_;
  /// rowid -> value for every deleted base row; survives Take* drains
  /// (base arrays never shrink — see AddDelete).
  std::unordered_map<RowId, T> deleted_base_;
};

}  // namespace holix
